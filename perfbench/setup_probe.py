"""Fresh-process probe: what every CLI call pays before it starts working.

    python3 perfbench/setup_probe.py <workload> <seed> <directory> [--call]

Imports `spectralqm.cli` and writes the workload's inputs into <directory>,
then prints one JSON line with the import time and the CLOCK_MONOTONIC
reading at that point, from which run.py takes the set-up time.  With
--call it then makes the workload's CLI call once, writing into
<directory>/out, and adds its exit code and the process's peak resident
memory.
"""

import json
import sys
import time
from pathlib import Path

start = time.monotonic()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import spectralqm.cli as cli  # noqa: E402

import_s = time.monotonic() - start

from workloads import WORKLOADS, write_inputs  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
directory = Path(sys.argv[3])
config_path, inputs = write_inputs(workload, int(sys.argv[2]), directory)
report = {"import_s": import_s, "setup_done": time.monotonic()}
if "--call" in sys.argv[4:]:
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        report["exit_code"] = cli.main(workload.argv(config_path, inputs, directory / "out"))
    from tracing import peak_rss_mb

    report["peak_rss_mb"] = peak_rss_mb()
print(json.dumps(report))
