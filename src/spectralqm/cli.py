"""Command-line front end: verify, evolve, spectrum, diffract.

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
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checks import VerifyConfig, _central_difference, run_all
from .evolution import Trajectory, _fft_workers
from .grids import make_grid
from .operators import hamiltonian
from .scenarios import ScenarioConfig, potential_samples, run, run_diffraction
from .evolution import spectrum as compute_spectrum

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_value(value) -> str:
    """Serialize with floats at 17 significant digits, keys in given order."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return _format_float(value)
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


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Comma-separated, LF endings, dot decimals; None becomes an empty cell."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, float):
                cells.append(_format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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


def _write_manifest(out_dir: Path, command: str, config: dict, seed, started: float,
                    outputs: list[str], **telemetry) -> None:
    manifest = {
        "command": command,
        "config": config,
        "version": __version__,
        "seed": seed,
        "duration_seconds": time.perf_counter() - started,
        "outputs": outputs,
        **telemetry,
    }
    write_json(out_dir / f"{command}_manifest.json", manifest)


def _timed_run(runner, config: ScenarioConfig):
    """runner(config), plus the manifest's steps per second and FFT worker count."""
    started = time.perf_counter()
    result = runner(config)
    telemetry = {
        "steps_per_second": config.steps / (time.perf_counter() - started),
        "fft_workers": _fft_workers(config.grid["dim"]),
    }
    return result, telemetry


def _ehrenfest_residual_columns(traj: Trajectory, mass: float):
    """3-point centered-difference residuals; None at the two endpoint rows."""
    n = len(traj.times)
    v_resid: list[float | None] = [None] * n
    f_resid: list[float | None] = [None] * n
    if n >= 3:
        h = float(traj.times[1] - traj.times[0])
        dx, interior = _central_difference(traj.x_mean[:, 0], h, stencil=2)
        dp, _ = _central_difference(traj.p_mean[:, 0], h, stencil=2)
        v_resid[interior] = np.abs(dx - traj.p_mean[interior, 0] / mass).tolist()
        f_resid[interior] = np.abs(dp - traj.f_mean[interior, 0]).tolist()
    return v_resid, f_resid


def cmd_verify(args) -> int:
    out_dir = _out_dir(args.out)
    started = time.perf_counter()
    config = VerifyConfig.from_dict(_load_json_config(args.config) if args.config else {})
    overrides = {"seed": args.seed, "tolerance_scale": args.tolerance_scale}
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})

    reports = run_all(config)
    name_w = max(len(r.name) for r in reports)
    tag_w = max(len(r.tag) for r in reports)
    print(f"{'check':<{name_w}}  {'tag':<{tag_w}}  {'residual':>12}  {'tolerance':>12}  result")
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{name_w}}  {r.tag:<{tag_w}}  {r.residual:>12.3e}  {r.tolerance:>12.3e}  {status}")
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")

    out_dir.mkdir(parents=True, exist_ok=True)
    reports_path = out_dir / "verify_reports.json"
    write_json(reports_path, [r.as_dict() for r in reports])
    _write_manifest(out_dir, "verify", config.as_dict(), config.seed, started,
                    [str(reports_path)])
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def _scenario_from_args(args) -> ScenarioConfig:
    config = ScenarioConfig.from_dict(_load_json_config(args.config))
    if args.seed is not None:
        config = ScenarioConfig.from_dict(dict(config.as_dict(), seed=args.seed))
    return config


def cmd_evolve(args) -> int:
    out_dir = _out_dir(args.out)
    started = time.perf_counter()
    config = _scenario_from_args(args)
    traj, telemetry = _timed_run(run, config)
    v_resid, f_resid = _ehrenfest_residual_columns(traj, config.mass)
    rows = []
    for i, t in enumerate(traj.times):
        rows.append([
            float(t), float(traj.norm[i]), float(traj.x_mean[i, 0]),
            float(traj.p_mean[i, 0]), float(traj.u_mean[i]), float(traj.f_mean[i, 0]),
            float(traj.energy[i]), v_resid[i], f_resid[i],
        ])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.name}_trajectory.csv"
    write_csv(
        csv_path,
        ["t", "norm", "x_mean", "p_mean", "u_mean", "f_mean", "energy",
         "ehrenfest_v_resid", "ehrenfest_f_resid"],
        rows,
    )
    _write_manifest(out_dir, "evolve", config.as_dict(), config.seed, started,
                    [str(csv_path)], **telemetry)
    print(f"wrote {csv_path} ({len(rows)} records)")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    out_dir = _out_dir(args.out)
    started = time.perf_counter()
    config = _scenario_from_args(args)
    g = config.grid
    grid = make_grid(g["dim"], g["n"], g["length"], g["origin"])
    if not 1 <= args.levels <= grid.size:
        print(f"error: requested {args.levels} levels; the grid has "
              f"{grid.size} points, so 1 to {grid.size} levels are possible",
              file=sys.stderr)
        return EXIT_USAGE
    u = potential_samples(grid, config.potential)
    pairs = compute_spectrum(hamiltonian(grid, u, config.mass, config.hbar), args.levels)

    rows = [[level, float(energy), None, None] for level, (energy, _) in enumerate(pairs)]
    if config.potential["kind"] == "harmonic":
        # U = omega^2 |x|^2 / 2 has the levels hbar omega / sqrt(m) (n_1 + ... + n_dim + dim/2);
        # the level n_1 + ... + n_dim = n is C(n + dim - 1, dim - 1)-fold degenerate
        quantum = config.hbar * float(config.potential.get("omega", 1.0)) / math.sqrt(config.mass)
        quanta = (n + grid.dim / 2 for n in itertools.count()
                  for _ in range(math.comb(n + grid.dim - 1, grid.dim - 1)))
        for row, q in zip(rows, quanta):
            row[2:] = [quantum * q, abs(row[1] - quantum * q)]
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.name}_spectrum.csv"
    write_csv(csv_path, ["level", "energy", "analytic_energy", "abs_error"], rows)
    _write_manifest(out_dir, "spectrum", config.as_dict(), config.seed, started,
                    [str(csv_path)])
    print(f"wrote {csv_path} ({len(rows)} levels)")
    return EXIT_OK


def cmd_diffract(args) -> int:
    out_dir = _out_dir(args.out)
    started = time.perf_counter()
    config = _scenario_from_args(args)
    result, telemetry = _timed_run(run_diffraction, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.name}_intensity.csv"
    write_csv(
        csv_path,
        ["detector_position", "intensity"],
        [[float(y), float(i)] for y, i in zip(result.positions, result.intensity)],
    )
    summary = {
        "measured_fringe_spacing": result.fringe_spacing,
        "fraunhofer_prediction": result.fraunhofer_spacing,
        "relative_error": result.relative_error,
        "final_norm": result.final_norm,
        "transmitted_fraction": result.transmitted_fraction,
        "fresnel_number": result.fresnel_number,
        "details": result.details,
    }
    summary_path = out_dir / f"{config.name}_summary.json"
    write_json(summary_path, summary)
    _write_manifest(out_dir, "diffract", config.as_dict(), config.seed, started,
                    [str(csv_path), str(summary_path)], **telemetry)
    if result.fringe_spacing is not None:
        print(f"fringe spacing {result.fringe_spacing:.6g} vs prediction "
              f"{result.fraunhofer_spacing:.6g} (relative error {result.relative_error:.3f})")
    else:
        print(f"no two-slit fringe analysis: {result.details}")
    print(f"wrote {csv_path} and {summary_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectralqm",
        description="Spectral quantum dynamics: verification suite, scenario runs, "
                    "spectra, and two-slit diffraction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full check suite")
    p_verify.add_argument("--config", help="JSON verify config", default=None)
    p_verify.add_argument("--out", default="out", help="output directory")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--tolerance-scale", type=float, default=None,
                          dest="tolerance_scale")
    p_verify.set_defaults(func=cmd_verify)

    p_evolve = sub.add_parser("evolve", help="run a scenario and write the trajectory CSV")
    p_evolve.add_argument("--config", required=True)
    p_evolve.add_argument("--out", default="out")
    p_evolve.add_argument("--seed", type=int, default=None)
    p_evolve.set_defaults(func=cmd_evolve)

    p_spectrum = sub.add_parser("spectrum", help="lowest eigenvalues of the configured setup")
    p_spectrum.add_argument("--config", required=True)
    p_spectrum.add_argument("--out", default="out")
    p_spectrum.add_argument("--levels", type=int, default=5)
    p_spectrum.add_argument("--seed", type=int, default=None)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_diffract = sub.add_parser("diffract", help="run a slit scenario and analyze fringes")
    p_diffract.add_argument("--config", required=True)
    p_diffract.add_argument("--out", default="out")
    p_diffract.add_argument("--seed", type=int, default=None)
    p_diffract.set_defaults(func=cmd_diffract)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; keep --version/-h at 0
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
