"""Benchmark of the spectralqm CLI: four workloads, end to end or by layer.

Run from the repository root, with numpy and scipy installed; the program
is imported from ./src:

    python3 perfbench/run.py --workload twoslit-512 --seed 1 --seconds 12 --trace 0

Workloads: twoslit-512, evolve-1d, verify, spectrum-2d, or `all` for the
four one after another in this one process.  Each round makes one CLI call
in-process through `spectralqm.cli.main`, the call a user makes, and checks
what it wrote (see workloads.py).  Rounds repeat until --seconds of rounds
have passed, and at least three times; repeats are compared byte for byte.

--trace 0 prints the end-to-end metrics: wall_s and cpu_s (medians over the
rounds), setup_s (median over three fresh processes that import spectralqm
and write the inputs) and peak_rss_mb (the peak resident memory of this
process after its first round, when it has made the CLI call once, as a
user would; for a later workload of `all`, of a fresh process that makes
the call once).  --trace 1 alternates untraced and traced rounds and
prints the per-layer metrics (tracing.py), including the tracing overhead.
The last line of stdout is one JSON object; the full record, with spans
when traced, goes to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import gc
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
RUNS = HERE / "runs"
SETUP_SAMPLES = 3
MIN_ROUNDS = 3
# Rounds during which the hypervisor stole more than this share of the
# host's CPU time are left out of the wall_s and cpu_s medians (see README)
STEAL_LIMIT_PCT = 2.0

from tracing import Tracer, cpu_ticks, host_record, host_speed_ms, peak_rss_mb, steal_pct  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


def probe(workload: str, seed: int, directory: Path, call: bool = False) -> dict:
    """Run setup_probe.py in a fresh process; its set-up time is taken from
    the parent's clock before the start to the child's when its inputs are
    written (CLOCK_MONOTONIC is shared by all processes)."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(directory),
         *(["--call"] if call else [])],
        capture_output=True, text=True, timeout=150, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"probe failed: {done.stderr.strip()}")
    report = json.loads(done.stdout.splitlines()[-1])
    report["setup_s"] = report.pop("setup_done") - start
    return report


def digest(out: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update((out / name).read_bytes())
    return h.hexdigest()


def run_controls(workload, output: dict, inputs: dict) -> list[str]:
    """Names of checks whose negative control did not trip them."""
    missed = []
    for target, corrupt in workload.controls():
        damaged = copy.deepcopy(output)
        corrupt(damaged)
        if target not in workload.check(damaged, inputs):
            missed.append(target)
    return missed


def run_workload(workload, seed: int, seconds: float, trace: bool, fresh: bool) -> dict:
    """Rounds of one workload; `fresh` says that no CLI call has run in this
    process yet, so that its peak memory after round 1 is a fresh call's."""
    import spectralqm.cli as cli

    run_dir = RUNS / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ticks_before = cpu_ticks()
    config_path, inputs = write_inputs(workload, seed, run_dir / "inputs")

    tracer = Tracer() if trace else None
    setup, rounds, failures, problems = [], [], [], []
    attempted = failed = 0
    first_digest = None
    measured = 0.0
    while len(rounds) < MIN_ROUNDS or measured < seconds:
        # set-up samples are spread over the run, between rounds, and not
        # counted in its length: a slow spell of the host then moves one of
        # them, not all
        if len(setup) < SETUP_SAMPLES:
            setup.append(probe(workload.name, seed, run_dir / f"probe{len(setup)}",
                               call=not (setup or trace or fresh)))
        round_start = time.perf_counter()
        # a CLI call starts in a fresh process: free the last round's garbage
        gc.collect()
        speed_ms = host_speed_ms()
        traced = trace and len(rounds) % 2 == 1
        out = run_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = workload.argv(config_path, inputs, out)
        if traced:
            tracer.round = len(rounds)
            if tracer.first_traced_round < 0:
                tracer.first_traced_round = tracer.round
            tracer.install()
        stdout = io.StringIO()
        error = None
        ticks = cpu_ticks()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crashing call is a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if not rounds:
            peak_mb = peak_rss_mb()
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, "wall_s": wall, "cpu_s": cpu, "exit_code": code,
                       "host_speed_ms": speed_ms, "steal_pct": steal_pct(ticks, cpu_ticks())})
        attempted += workload.ops_per_round

        if code not in workload.exit_codes:
            failed += workload.ops_per_round
            failures.append(f"round {len(rounds)}: {error or f'exit code {code}'}")
        else:
            try:
                output = workload.read(out, code)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"round {len(rounds)}: unreadable output: {exc}")
                measured += time.perf_counter() - round_start
                continue
            failed += workload.failed_ops(output)
            for name in workload.check(output, inputs):
                problems.append(f"round {len(rounds)}: check {name} failed")
            if first_digest is None:
                first_digest = digest(out, workload.data_files)
                for name in run_controls(workload, output, inputs):
                    problems.append(f"negative control did not trip check {name}")
            elif digest(out, workload.data_files) != first_digest:
                problems.append(f"round {len(rounds)}: data files differ from round 1")
        measured += time.perf_counter() - round_start

    if "exit_code" in setup[0]:
        peak_mb = setup[0]["peak_rss_mb"]
        if setup[0]["exit_code"] not in workload.exit_codes:
            problems.append(f"the fresh-process call exited with {setup[0]['exit_code']}")
        elif (first_digest
              and digest(run_dir / "probe0" / "out", workload.data_files) != first_digest):
            problems.append("the fresh-process call's data files differ from round 1")
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "inputs": inputs,
        "setup": setup,
        "rounds": rounds,
        "failures": failures,
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
    }
    untraced = [r for r in rounds if not r["traced"]]
    timed = ([r for r in untraced if r["steal_pct"] <= STEAL_LIMIT_PCT]
             or [min(untraced, key=lambda r: r["steal_pct"])])
    for r in timed:
        r["timed"] = True
    wall = statistics.median(r["wall_s"] for r in timed)
    if not trace:
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in timed), "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, rounds, setup, wall)
        record["spans"] = tracer.spans
    record["host"] = host_record(ticks_before, cpu_ticks())
    record["host"]["speed_ms"] = statistics.median(r["host_speed_ms"] for r in rounds)
    if trace:
        for key, unit in (("cores", "count"), ("steal_pct", "%"), ("idle_pct", "%"),
                          ("speed_ms", "ms")):
            metrics[f"host.{key}"] = (record["host"][key], unit)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (run_dir / "record.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    return record


UNITS = {"cli.bytes_written": "count", "scenarios.diffraction_step_ms": "ms",
         "evolution.steps": "count", "evolution.records": "count",
         "evolution.states_kept": "count", "operators.dense_mb": "MB",
         "checks.reports": "count"}


def layer_metrics(tracer: Tracer, rounds: list[dict], setup: list[dict], wall: float) -> dict:
    traced = [i for i, r in enumerate(rounds) if r["traced"]]
    per_round = [tracer.layer_metrics(i) for i in traced]
    metrics = {name: (statistics.median(m[name] for m in per_round), UNITS.get(name, "s"))
               for name in per_round[0]}
    step_us, record_us = tracer.step_and_record_us()
    metrics["evolution.step_us"] = (step_us, "us")
    metrics["evolution.record_us"] = (record_us, "us")
    metrics["cli.import_s"] = (statistics.median(s["import_s"] for s in setup), "s")
    traced_wall = statistics.median(rounds[i]["wall_s"] for i in traced)
    metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "spectralqm" / "__init__.py").is_file():
        print(f"error: no spectralqm source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for i, name in enumerate(names):
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              fresh=i == 0)
        for problem in record["failures"] + record["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        result["correct"] &= record["correct"]
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
        result["metrics"].update({prefix + k: v for k, v in record["metrics"].items()})
        host = record["host"]
        print(f"{name}: {len(record['rounds'])} rounds, {record['attempted']} operations, "
              f"{record['failed']} failed; host: steal {host['steal_pct']:.1f} %, "
              f"idle {host['idle_pct']:.1f} % of {host['cores']} cores, "
              f"speed probe {host['speed_ms']:.1f} ms")
        for metric, entry in record["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
