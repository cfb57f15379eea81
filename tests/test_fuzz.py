"""A seeded fuzzer of the CLI's exit-code contract.

Each variant takes a small `evolve`, `spectrum` or `diffract` config and sets
one or two of its keys to an awkward value.  The wells are 1-D, or 2-D and
even in y, so that their runs take the even sector and the 2-D drift.
Whatever the value, the run must exit 0 or 2, never raise.  Exit 2 prints
one `error: ` line and creates no `--out`.  Exit 0 writes finite or empty CSV
cells and JSON that `json.loads` reads.  No run writes outside `--out`.
"""

import copy
import csv
import json
import math
import random
import warnings

from spectralqm.cli import main

VARIANTS = 300
DIFFRACT_VARIANTS = 8
VARIANTS_2D = 100  # drawn after the others, which they leave unchanged
AWKWARD_VALUES = [0, -1, 1e300, -1e300, 1e-300, 1e308, math.nan, "1.0", None, [], [1.0],
                  [1.0, 2.0], True]
WELLS = {"free": None, "harmonic": "omega", "quartic": "a"}
KEYS = [("grid",), ("grid", "dim"), ("grid", "n"), ("grid", "length"), ("grid", "origin"),
        ("potential",), ("initial",), ("initial", "x0"), ("initial", "p0"),
        ("initial", "sigma"), ("dt",), ("steps",), ("record_every",), ("seed",), ("hbar",),
        ("mass",)]
SLIT_KEYS = [("potential", "slit_width"), ("potential", "slit_separation"),
             ("potential", "barrier_height"), ("potential", "barrier_thickness"),
             ("potential", "positions", "wall"), ("potential", "positions", "detector")]


def well_config(kind: str) -> dict:
    potential = {"kind": kind}
    if WELLS[kind]:
        potential[WELLS[kind]] = 1.0
    return {"name": "fuzz", "grid": {"dim": 1, "n": 64, "length": 20.0, "origin": -10.0},
            "potential": potential,
            "initial": {"kind": "gaussian", "x0": 1.0, "p0": 0.5, "sigma": 1.0},
            "dt": 1e-3, "steps": 20, "record_every": 5}


def well_config_2d(kind: str) -> dict:
    return dict(well_config(kind),
                grid={"dim": 2, "n": [16, 8], "length": [20.0, 16.0], "origin": [-10.0, -8.0]},
                initial={"kind": "gaussian", "x0": [1.0, 0.0], "p0": [0.5, 0.0],
                         "sigma": [1.0, 1.0]})


def slit_config() -> dict:
    from test_scenarios import fast_two_slit_config

    return dict(fast_two_slit_config().as_dict(), steps=20, record_every=20)


def set_key(config: dict, path: tuple, value) -> None:
    *parents, last = path
    for key in parents:
        config = config[key]
        if not isinstance(config, dict):
            return  # an earlier change replaced the section
    config[last] = copy.deepcopy(value)


def mutate(rng: random.Random, config: dict, keys: list) -> str:
    """One change to config, described; a kind swap keeps the coefficient key."""
    potential = config["potential"]
    if isinstance(potential, dict) and potential.get("kind") in WELLS and rng.random() < 0.15:
        if rng.random() < 0.5:
            potential["kind"] = rng.choice(sorted(WELLS))
            return f"potential.kind={potential['kind']}"
        coefficient = rng.choice(["omega", "a"])
        for key in ("omega", "a"):
            potential.pop(key, None)
        potential[coefficient] = 1.0
        return f"potential.{coefficient} in place of the kind's key"
    path = rng.choice(keys)
    value = rng.choice(AWKWARD_VALUES)
    set_key(config, path, value)
    return f"{'.'.join(path)}={value!r}"


def variants():
    rng = random.Random(2022)
    for index in range(VARIANTS + VARIANTS_2D):
        if index < DIFFRACT_VARIANTS:
            command, config, keys = "diffract", slit_config(), KEYS + SLIT_KEYS
        else:
            kind = rng.choice(sorted(WELLS))
            command = rng.choice(["evolve", "spectrum"])
            config = (well_config if index < VARIANTS else well_config_2d)(kind)
            keys = KEYS + ([("potential", WELLS[kind])] if WELLS[kind] else [])
        changes = [mutate(rng, config, keys) for _ in range(rng.choice([1, 2]))]
        yield index, command, config, changes


def broken_outputs(out) -> list[str]:
    """Each non-finite CSV cell, and each JSON file that json.loads refuses."""
    faults = []
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            with path.open(newline="", encoding="utf-8") as fh:
                cells = [cell for row in list(csv.reader(fh))[1:] for cell in row]
            faults += [f"{path.name}: {cell}" for cell in cells
                       if cell != "" and not math.isfinite(float(cell))]
        elif path.suffix == ".json":
            try:
                json.loads(path.read_text(encoding="utf-8"))
            except ValueError as exc:
                faults.append(f"{path.name}: {exc}")
    return faults


def test_awkward_config_values_keep_the_exit_code_contract(tmp_path, capsys, monkeypatch):
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    broken = []
    for index, command, config, changes in variants():
        run_dir = tmp_path / f"run{index}"
        run_dir.mkdir()
        config_path = tmp_path / f"config{index}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = run_dir / "out"
        argv = [command, "--config", str(config_path), "--out", str(out)]
        where = f"{command} {changes}"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv)
        except Exception as exc:  # noqa: BLE001 - a raise is what the fuzzer looks for
            broken.append(f"{where}: raised {type(exc).__name__}: {exc}")
            capsys.readouterr()
            continue
        err = capsys.readouterr().err
        if code == 2:
            if not (err.startswith("error: ") and err.count("\n") == 1):
                broken.append(f"{where}: exit 2 with stderr {err!r}")
            if out.exists():
                broken.append(f"{where}: exit 2 but --out was created")
        elif code == 0:
            broken += [f"{where}: {fault}" for fault in broken_outputs(out)]
        else:
            broken.append(f"{where}: exit {code}")
        if [path.name for path in run_dir.iterdir()] not in ([], ["out"]) or any(work.iterdir()):
            broken.append(f"{where}: wrote outside --out")
    total = VARIANTS + VARIANTS_2D
    assert not broken, f"{len(broken)} of {total} variants broke the contract:\n" + "\n".join(
        broken)
