"""Command-line front end: verify, evolve, spectrum, diffract.

Every command runs through `_run_command`: check `--out`, load the config,
compute, make the directory, write the outputs and the manifest, with the
load, compute and write phases timed on one clock.  The `_COMMANDS` table
holds each command's own loader, compute and write steps and flags.

Outputs are CSV and JSON with floats printed at 17 significant digits, so a
fixed config and seed reproduce byte-identical data files.  Exit codes:
0 success / all checks pass, 1 check failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
import scipy

from . import __version__
from .checks import VerifyConfig, _ehrenfest_residuals, run_all
from .evolution import Trajectory, _blas_pools
from .grids import make_grid
from .operators import hamiltonian
from .scenarios import _POTENTIALS, ScenarioConfig, potential_samples, run, run_diffraction
from .evolution import spectrum as compute_spectrum

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
# lines that write_csv writes per call, and rows that _trajectory_rows converts at a time
_CSV_BLOCK = 4096


def _json_value(value) -> str:
    """Serialize with floats at 17 significant digits, keys in given order."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        # json.loads reads a non-finite float back only from json.dumps' Infinity or NaN
        return "%.17g" % value if math.isfinite(value) else json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def write_json(path: Path, value) -> None:
    path.write_text(_json_value(value) + "\n", encoding="utf-8")


def write_csv(path: Path, header: list[str], rows: Iterable) -> None:
    """Comma-separated, LF endings, dot decimals, one %-template per pattern of cell types.

    A float (np.float64 too) is printed at 17 significant digits, None as an
    empty cell and any other value as its str().  The rows may be any
    iterable, a generator too; they are written as they are formatted, one
    write of _CSV_BLOCK lines at a time, so the text held at once is a block's.
    """
    templates = {}
    lines = [",".join(header) + "\n"]
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            kinds = tuple(map(type, row))
            template = templates.get(kinds)
            if template is None:
                # "%.0s" prints None as nothing
                template = templates[kinds] = ",".join(
                    "%.0s" if kind is type(None) else "%.17g" if issubclass(kind, float) else "%s"
                    for kind in kinds) + "\n"
            lines.append(template % tuple(row))
            if len(lines) == _CSV_BLOCK:
                fh.write("".join(lines))
                lines.clear()
        fh.write("".join(lines))


def _load_json_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    with p.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _out_dir(out: str) -> Path:
    """--out as a Path, refused up front unless it can be written; creates nothing.

    The nearest existing path among --out and its ancestors must be a
    writable directory: an existing --out must be a directory, and a missing
    one is made later under a writable ancestor.
    """
    path = Path(out)
    nearest = next(p for p in (path, *path.absolute().parents) if p.exists())
    if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
        raise ValueError(f"--out {out} cannot be written: {nearest} is not a writable directory")
    return path


def _trajectory_rows(traj: Trajectory):
    """The trajectory CSV's rows, converted from the arrays _CSV_BLOCK at a time; the last two
    cells, the 3-point Ehrenfest residuals of axis 0, are None at the two endpoint rows."""
    n = len(traj.times)
    columns = [traj.times, traj.norm, traj.x_mean[:, 0], traj.p_mean[:, 0], traj.u_mean,
               traj.f_mean[:, 0], traj.energy]
    residuals = [np.empty(0)] * 2
    if n >= 3:
        v, f, _ = _ehrenfest_residuals(traj, float(traj.times[1] - traj.times[0]), 2)
        residuals = [v[:, 0], f[:, 0]]
    for start in range(0, n, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, n)
        cells = [column[start:stop].tolist() for column in columns]
        # row i's residual sits at i - 1
        cells += [[None] * (start == 0) + resid[max(start - 1, 0):stop - 1].tolist()
                  + [None] * (stop == n) for resid in residuals]
        yield from zip(*cells)


def _load_verify(args) -> VerifyConfig:
    config = VerifyConfig.from_dict(_load_json_config(args.config) if args.config else {})
    overrides = {"seed": args.seed, "tolerance_scale": args.tolerance_scale}
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _load_scenario(args) -> ScenarioConfig:
    return ScenarioConfig.from_dict(_load_json_config(args.config))


def _compute_verify(config: VerifyConfig, args):
    group_seconds: dict[str, float] = {}
    return run_all(config, group_seconds), group_seconds


def _write_verify(out_dir: Path, config: VerifyConfig, result):
    reports, _ = result
    name_w = max(len(r.name) for r in reports)
    tag_w = max(len(r.tag) for r in reports)
    print(f"{'check':<{name_w}}  {'tag':<{tag_w}}  {'residual':>12}  {'tolerance':>12}  result")
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{name_w}}  {r.tag:<{tag_w}}  {r.residual:>12.3e}  {r.tolerance:>12.3e}  {status}")
    failed = sum(not r.passed for r in reports)
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    path = out_dir / "verify_reports.json"
    write_json(path, [r.as_dict() for r in reports])
    return [path], EXIT_CHECK_FAILED if failed else EXIT_OK


def _write_evolve(out_dir: Path, config: ScenarioConfig, traj: Trajectory):
    """The trajectory CSV, written block by block as _trajectory_rows converts the arrays."""
    path = out_dir / f"{config.name}_trajectory.csv"
    write_csv(path, ["t", "norm", "x_mean", "p_mean", "u_mean", "f_mean", "energy",
                     "ehrenfest_v_resid", "ehrenfest_f_resid"], _trajectory_rows(traj))
    print(f"wrote {path} ({len(traj.times)} records)")
    return [path], EXIT_OK


def _compute_spectrum(config: ScenarioConfig, args):
    g = config.grid
    grid = make_grid(g["dim"], g["n"], g["length"], g["origin"])
    if not 1 <= args.levels <= grid.size:
        raise ValueError(f"requested {args.levels} levels; the grid has {grid.size} points, "
                         f"so 1 to {grid.size} levels are possible")
    u = potential_samples(grid, config.potential)
    return compute_spectrum(hamiltonian(grid, u, config.mass, config.hbar), args.levels)


def _write_spectrum(out_dir: Path, config: ScenarioConfig, pairs):
    rows = [[level, float(energy), None, None] for level, (energy, _) in enumerate(pairs)]
    _, power, coefficient = _POTENTIALS[config.potential["kind"]]
    c = coefficient(config.potential) if power == 2 else 0.0
    if c > 0:
        # U = c |x|^2 / 2 has the levels hbar sqrt(c) / sqrt(m) (n_1 + ... + n_dim + dim/2); the
        # level n_1 + ... + n_dim = n is C(n + dim - 1, dim - 1)-fold degenerate.  c = 0 is
        # the flat periodic box (free, or omega = 0), with no oscillator levels
        dim = config.grid["dim"]
        quantum = config.hbar * math.sqrt(c) / math.sqrt(config.mass)
        quanta = (n + dim / 2 for n in itertools.count()
                  for _ in range(math.comb(n + dim - 1, dim - 1)))
        for row, q in zip(rows, quanta):
            row[2:] = [quantum * q, abs(row[1] - quantum * q)]
    path = out_dir / f"{config.name}_spectrum.csv"
    write_csv(path, ["level", "energy", "analytic_energy", "abs_error"], rows)
    print(f"wrote {path} ({len(rows)} levels)")
    return [path], EXIT_OK


def _write_diffract(out_dir: Path, config: ScenarioConfig, result):
    csv_path = out_dir / f"{config.name}_intensity.csv"
    write_csv(csv_path, ["detector_position", "intensity"],
              [[float(y), float(i)] for y, i in zip(result.positions, result.intensity)])
    summary_path = out_dir / f"{config.name}_summary.json"
    write_json(summary_path, {
        "measured_fringe_spacing": result.fringe_spacing,
        "fraunhofer_prediction": result.fraunhofer_spacing,
        "relative_error": result.relative_error,
        "final_norm": result.final_norm,
        "transmitted_fraction": result.transmitted_fraction,
        "fresnel_number": result.fresnel_number,
        "details": result.details,
    })
    if result.fringe_spacing is not None:
        print(f"fringe spacing {result.fringe_spacing:.6g} vs prediction "
              f"{result.fraunhofer_spacing:.6g} (relative error {result.relative_error:.3f})")
    else:
        print(f"no two-slit fringe analysis: {result.details}")
    print(f"wrote {csv_path} and {summary_path}")
    return [csv_path, summary_path], EXIT_OK


@dataclasses.dataclass(frozen=True)
class _Command:
    """A subcommand's own parts; `_run_command` supplies the frame around them."""

    help: str
    load: Callable      # args -> config
    compute: Callable   # (config, args) -> result
    write: Callable     # (out_dir, config, result) -> (output paths, exit code); prints stdout
    options: tuple = ()  # (flag, type, default) of each flag besides --config/--out
    fields: Callable = lambda config, result, phases: {}  # the command's own manifest fields


def _evolve_fields(config: ScenarioConfig, traj: Trajectory, phases) -> dict:
    # the energy drift is relative to |E(0)|, and null when E(0) is 0
    e0 = abs(float(traj.energy[0]))
    energy_drift = float(np.max(np.abs(traj.energy - traj.energy[0])))
    return {"steps_per_second": config.steps / phases["compute"],
            "max_norm_drift": float(np.max(np.abs(traj.norm - 1.0))),
            "relative_energy_drift": energy_drift / e0 if e0 else None}


def _diffract_fields(config: ScenarioConfig, result, phases) -> dict:
    return {"steps_per_second": config.steps / phases["compute"],
            "norm_drift": abs(result.final_norm - 1.0)}


# The compute steps look run_all, run, compute_spectrum and run_diffraction up
# when they are called, so a replaced module global is the one that runs.
_COMMANDS = {
    "verify": _Command("run the full check suite", _load_verify, _compute_verify, _write_verify,
                       options=(("--seed", int, None), ("--tolerance-scale", float, None)),
                       fields=lambda config, result, phases: {"group_seconds": result[1]}),
    "evolve": _Command("run a scenario and write the trajectory CSV", _load_scenario,
                       lambda config, args: run(config), _write_evolve,
                       fields=_evolve_fields),
    "spectrum": _Command("lowest eigenvalues of the configured setup", _load_scenario,
                         _compute_spectrum, _write_spectrum, options=(("--levels", int, 5),)),
    "diffract": _Command("run a slit scenario and analyze fringes", _load_scenario,
                         lambda config, args: run_diffraction(config), _write_diffract,
                         fields=_diffract_fields),
}


def _run_command(args) -> int:
    """Check --out, then load, compute and write on one clock, then the manifest."""
    command = _COMMANDS[args.command]
    out_dir = _out_dir(args.out)
    marks = [time.perf_counter()]
    config = command.load(args)
    marks.append(time.perf_counter())
    result = command.compute(config, args)
    marks.append(time.perf_counter())
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs, code = command.write(out_dir, config, result)
    marks.append(time.perf_counter())
    phases = {phase: b - a for phase, a, b in zip(("load", "compute", "write"), marks, marks[1:])}
    manifest = {"command": args.command, "config": config.as_dict(), "version": __version__,
                "seed": config.seed, "duration_seconds": time.perf_counter() - marks[0],
                "phase_seconds": phases, "outputs": [str(path) for path in outputs],
                "python_version": platform.python_version(), "numpy_version": np.__version__,
                "scipy_version": scipy.__version__, "cpu_count": os.cpu_count(),
                "blas_threads": [get() for get, _ in _blas_pools()],
                **command.fields(config, result, phases)}
    write_json(out_dir / f"{args.command}_manifest.json", manifest)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectralqm",
        description="Spectral quantum dynamics: verification suite, scenario runs, "
                    "spectra, and two-slit diffraction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        # verify runs at its pinned defaults without a config file
        p.add_argument("--config", required=name != "verify", help="JSON config")
        p.add_argument("--out", default="out", help="output directory")
        for flag, kind, default in command.options:
            p.add_argument(flag, type=kind, default=default)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; keep --version/-h at 0
        return int(exc.code or 0)
    try:
        return _run_command(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
