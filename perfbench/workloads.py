"""The benchmark's four workloads.

Each workload makes its inputs from the seed, names the one `spectralqm`
CLI call a user would make, reads what that call wrote, and checks it
against references computed here from the inputs alone (never from the
program's own analysis).  Every check has a negative control: a corrupted
copy of a real output that must trip it.

`check` returns the names of the checks that failed, so a control can
require that the check it targets is among them.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _read_csv(path: Path, header: str, columns: tuple[int, ...]) -> np.ndarray:
    """Selected columns of a CSV whose first line must equal `header`."""
    with path.open(encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return np.array([[float(row[c]) for c in columns] for row in rows]).reshape(-1, len(columns))


def write_inputs(workload, seed: int, directory: Path) -> tuple[Path, dict]:
    """The workload's inputs for this seed, as a JSON config file."""
    inputs = workload.inputs(seed)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload.name}.json"
    path.write_text(json.dumps(inputs, indent=1) + "\n", encoding="utf-8")
    return path, inputs


class Workload:
    """Defaults: one operation per CLI call, which fails unless it exits 0."""

    ops_per_round = 1
    exit_codes = (0,)

    def failed_ops(self, out: dict) -> int:
        return 0


class TwoSlit(Workload):
    """`diffract` on the 512x512 two-slit geometry of the paper's experiment.

    The geometry, packet and barrier are those of
    `reference_two_slit_config()`, written out here so that the inputs do
    not follow later edits of the program.  The time step is 5x the
    reference's (4e-7 instead of 8e-8) and the step count 1/5 (700 instead
    of 3500), so the same physical time 2.8e-4 is integrated: one reference
    run takes 35-47 s here, longer than a whole benchmark run may take.
    At 5x the detector pattern is converged: the fringe error (0.79 % vs
    0.81 %) and the transmitted fraction (0.72962 vs 0.72967) match the
    reference step.  At 7x and 10x they no longer do.
    """

    name = "twoslit-512"
    data_files = ("two-slit-bench_intensity.csv", "two-slit-bench_summary.json")

    def inputs(self, seed: int) -> dict:
        p0 = 1072.0
        return {
            "name": "two-slit-bench",
            "grid": {"dim": 2, "n": [512, 512], "length": [0.42, 1.0], "origin": [-0.21, -0.5]},
            "potential": {
                "kind": "slit_wall",
                "positions": {"wall": -0.02, "detector": 0.08},
                "slit_width": 0.01172,
                "slit_separation": 0.02344,
                "barrier_height": 50.0 * 0.5 * p0**2,
                "barrier_thickness": 0.0033,
            },
            "initial": {"kind": "gaussian", "x0": [-0.115, 0.0], "p0": [p0, 0.0],
                        "sigma": [0.018, 0.02]},
            "dt": 4.0e-7,
            "steps": 700,
            "record_every": 700,
            # reaches only the manifest: the physics stays that of the paper
            "seed": seed,
        }

    def argv(self, config_path: Path, inputs: dict, out: Path) -> list[str]:
        return ["diffract", "--config", str(config_path), "--out", str(out)]

    def read(self, out: Path, exit_code: int) -> dict:
        table = _read_csv(out / self.data_files[0], "detector_position,intensity", (0, 1))
        summary = json.loads((out / self.data_files[1]).read_text(encoding="utf-8"))
        return {"y": table[:, 0], "intensity": table[:, 1], "summary": summary}

    @staticmethod
    def predicted_spacing(inputs: dict) -> float:
        """Far-field fringe spacing lambda * D / d, lambda = 2 pi hbar / p0."""
        pot = inputs["potential"]
        wavelength = 2.0 * math.pi * inputs.get("hbar", 1.0) / inputs["initial"]["p0"][0]
        distance = pot["positions"]["detector"] - pot["positions"]["wall"]
        return wavelength * distance / pot["slit_separation"]

    @staticmethod
    def first_order_spacing(y: np.ndarray, intensity: np.ndarray, guess: float) -> float:
        """Half the distance between the two first-order maxima.

        Each maximum is the brightest sample with 0.5 < |y|/guess < 1.5 on
        its side of the centre, refined by a parabola through its two
        neighbours.  A peak outside the window lands on the window's edge,
        which puts the estimate at least 50 % off.
        """
        dy = float(y[1] - y[0])
        peaks = []
        for side in (-1.0, 1.0):
            window = np.flatnonzero((side * y > 0.5 * guess) & (side * y < 1.5 * guess))
            j = int(window[np.argmax(intensity[window])])
            left, mid, right = intensity[j - 1], intensity[j], intensity[j + 1]
            curvature = left - 2.0 * mid + right
            shift = 0.5 * (left - right) / curvature if curvature != 0.0 else 0.0
            peaks.append(float(y[j]) + shift * dy)
        return (peaks[1] - peaks[0]) / 2.0

    def check(self, out: dict, inputs: dict) -> list[str]:
        failed = []
        grid = inputs["grid"]
        n, length, origin = grid["n"][1], grid["length"][1], grid["origin"][1]
        y, intensity, summary = out["y"], out["intensity"], out["summary"]
        expected_y = origin + np.arange(n) * (length / n)
        if len(y) != n or np.max(np.abs(y - expected_y)) > 1e-12:
            return ["detector-positions"]
        # y_j and y_{n-j} mirror each other about 0; y_0 = -L/2 is its own image
        asymmetry = np.max(np.abs(intensity[1:] - intensity[:0:-1])) / np.max(intensity)
        if not asymmetry <= 1e-10:
            failed.append("mirror-symmetry")
        predicted = self.predicted_spacing(inputs)
        measured = self.first_order_spacing(y, intensity, predicted)
        if not abs(measured - predicted) <= 0.10 * predicted:
            failed.append("fringe-spacing")
        if not abs(summary["fraunhofer_prediction"] - predicted) <= 1e-12 * predicted:
            failed.append("fraunhofer-prediction")
        if not abs(summary["final_norm"] - 1.0) <= 1e-10:
            failed.append("final-norm")
        if not 0.0 < summary["transmitted_fraction"] < 1.0:
            failed.append("transmitted-fraction")
        return failed

    def controls(self) -> list:
        def lopsided(out):
            out["intensity"][300] *= 1.000001

        def stretched(out):
            # moves only the first-order peaks: the grid check looks at y itself
            i = out["intensity"]
            centre = len(i) // 2
            half = np.arange(1, centre)
            src = np.clip(np.round(half / 1.25).astype(int), 0, None)
            i[centre + half] = i[centre + src]
            i[centre - half] = i[centre - src]

        def shifted(out):
            out["y"] = out["y"] + 1e-6

        def mispredicted(out):
            out["summary"]["fraunhofer_prediction"] *= 1.0 + 1e-9

        def leaky(out):
            out["summary"]["final_norm"] = 1.0 + 2e-10

        def blocked(out):
            out["summary"]["transmitted_fraction"] = 0.0

        return [("mirror-symmetry", lopsided), ("fringe-spacing", stretched),
                ("detector-positions", shifted), ("fraunhofer-prediction", mispredicted),
                ("final-norm", leaky), ("transmitted-fraction", blocked)]


class Evolve1D(Workload):
    """`evolve` of a coherent state in a 1-D harmonic well, every step recorded.

    256 points, dt = 1e-3, 20 000 steps, record_every = 1: small FFTs bound
    by per-call overhead, plus 20 001 record reductions, the stored states
    and the CSV writer.  The seed sets the displacement x0 in [0.5, 1.5).
    """

    name = "evolve-1d"
    data_files = ("coherent-1d_trajectory.csv",)
    header = ("t,norm,x_mean,p_mean,u_mean,f_mean,energy,"
              "ehrenfest_v_resid,ehrenfest_f_resid")

    def inputs(self, seed: int) -> dict:
        x0 = round(0.5 + _rng(self.name, seed).random(), 6)
        return {
            "name": "coherent-1d",
            "grid": {"dim": 1, "n": 256, "length": 20.0, "origin": -10.0},
            "potential": {"kind": "harmonic", "omega": 1.0},
            # sigma = sqrt(hbar / (2 m omega)): the coherent-state width
            "initial": {"kind": "gaussian", "x0": x0, "p0": 0.0, "sigma": math.sqrt(0.5)},
            "dt": 1e-3,
            "steps": 20000,
            "record_every": 1,
            "seed": seed,
        }

    def argv(self, config_path: Path, inputs: dict, out: Path) -> list[str]:
        return ["evolve", "--config", str(config_path), "--out", str(out)]

    def read(self, out: Path, exit_code: int) -> dict:
        table = _read_csv(out / self.data_files[0], self.header, (0, 1, 2, 3, 6))
        return dict(zip(("t", "norm", "x", "p", "energy"), table.T))

    def check(self, out: dict, inputs: dict) -> list[str]:
        failed = []
        x0 = inputs["initial"]["x0"]
        omega = inputs["potential"]["omega"]
        interval = inputs["dt"] * inputs["record_every"]
        records = inputs["steps"] // inputs["record_every"] + 1
        if len(out["t"]) != records:
            return ["records"]
        t = np.arange(records) * interval
        if not np.max(np.abs(out["t"] - t)) <= 1e-9:
            failed.append("times")
        if not np.max(np.abs(out["norm"] - 1.0)) <= 1e-10:
            failed.append("norm")
        # mass = hbar = 1: <x> = x0 cos(wt), <p> = -x0 w sin(wt), E = w/2 + (x0 w)^2 / 2
        if not np.max(np.abs(out["x"] - x0 * np.cos(omega * t))) <= 1e-4:
            failed.append("x-mean")
        if not np.max(np.abs(out["p"] + x0 * omega * np.sin(omega * t))) <= 1e-4:
            failed.append("p-mean")
        energy = 0.5 * omega + 0.5 * (x0 * omega) ** 2
        if not np.max(np.abs(out["energy"] - energy)) <= 1e-6 * energy:
            failed.append("energy")
        return failed

    def controls(self) -> list:
        def truncated(out):
            for key in out:
                out[key] = out[key][:-1]

        def late(out):
            out["t"][-1] += 1e-6

        def leaky(out):
            out["norm"][5000] += 2e-10

        def drifted(out):
            out["x"][12345] += 2e-4

        def kicked(out):
            out["p"][777] -= 2e-4

        def heated(out):
            out["energy"][-1] *= 1.0 + 1e-5

        return [("records", truncated), ("times", late), ("norm", leaky),
                ("x-mean", drifted), ("p-mean", kicked), ("energy", heated)]


# The 20 reports `verify` emits, sorted by name, each at its pinned
# tolerance with tolerance_scale = 1.  Recompute with the command in README.md.
VERIFY_TOLERANCES = {
    "antihermitian-exponential": 1e-10,
    "commutant-uniqueness-n16": 1e-08,
    "commutant-uniqueness-n8": 1e-08,
    "commutator-system": 1e-06,
    "ehrenfest-force-harmonic": 1e-05,
    "ehrenfest-force-quartic": 1e-04,
    "ehrenfest-velocity-harmonic": 1e-05,
    "ehrenfest-velocity-quartic": 1e-04,
    "evolution-composition": 1e-10,
    "evolution-inverse": 1e-09,
    "evolution-unitarity": 1e-09,
    "field-energy-parseval": 1e-12,
    "field-energy-sine": 1e-10,
    "gauge-shift": 1e-10,
    "generator-constant": 1e-06,
    "generator-driven": 1e-04,
    "generator-hermiticity": 1e-06,
    "momentum-parseval": 1e-10,
    "normalization": 1e-10,
    "superposition": 1e-10,
}


class Verify(Workload):
    """`verify --seed <seed>` at the default config: the 20-check suite.

    Each report is one operation; a report that does not pass is a failed
    operation.  The seed drives the random states, generators and fields.
    """

    name = "verify"
    ops_per_round = len(VERIFY_TOLERANCES)
    exit_codes = (0, 1)  # 1: some check failed, counted per report
    data_files = ("verify_reports.json",)

    def inputs(self, seed: int) -> dict:
        return {"seed": seed}

    def argv(self, config_path: Path, inputs: dict, out: Path) -> list[str]:
        return ["verify", "--seed", str(inputs["seed"]), "--out", str(out)]

    def read(self, out: Path, exit_code: int) -> dict:
        reports = json.loads((out / self.data_files[0]).read_text(encoding="utf-8"))
        return {"exit_code": exit_code, "reports": reports}

    def failed_ops(self, out: dict) -> int:
        passed = sum(1 for r in out["reports"] if r["name"] in VERIFY_TOLERANCES and r["passed"])
        return len(VERIFY_TOLERANCES) - passed

    def check(self, out: dict, inputs: dict) -> list[str]:
        failed = []
        reports = out["reports"]
        if [r["name"] for r in reports] != list(VERIFY_TOLERANCES):
            failed.append("report-names")
        if any(r["tolerance"] != VERIFY_TOLERANCES.get(r["name"]) for r in reports):
            failed.append("tolerances")
        if any(r["passed"] and not (math.isfinite(r["residual"]) and r["residual"] <= r["tolerance"])
               for r in reports):
            failed.append("residuals")
        if out["exit_code"] != (0 if self.failed_ops(out) == 0 else 1):
            failed.append("exit-code")
        return failed

    def controls(self) -> list:
        def dropped(out):
            del out["reports"][3]

        def loosened(out):
            out["reports"][0]["tolerance"] *= 10.0

        def overshot(out):
            report = out["reports"][5]
            report["residual"] = 2.0 * report["tolerance"]

        def misreported(out):
            out["exit_code"] = 1

        return [("report-names", dropped), ("tolerances", loosened),
                ("residuals", overshot), ("exit-code", misreported)]


class Spectrum2D(Workload):
    """`spectrum --levels 6` of a 2-D isotropic harmonic well, dense path.

    A 64x32 grid (2048 points) over a 12x12 box.  The dense cap is 4096
    points, but one 64x64 call takes ~36 s and ~1 GB here, more than a
    whole benchmark run may take; at 2048 points it is ~4.5 s and 303 or
    366 MB, still dominated by `to_dense` and `eigh`.  The seed sets omega in
    [0.95, 1.05); the levels are hbar omega (nx + ny + 1).
    """

    name = "spectrum-2d"
    levels = 6
    data_files = ("harmonic-2d_spectrum.csv",)

    def inputs(self, seed: int) -> dict:
        omega = round(0.95 + 0.1 * _rng(self.name, seed).random(), 6)
        return {
            "name": "harmonic-2d",
            "grid": {"dim": 2, "n": [64, 32], "length": [12.0, 12.0], "origin": [-6.0, -6.0]},
            "potential": {"kind": "harmonic", "omega": omega},
            "initial": {"kind": "gaussian", "x0": [0.0, 0.0], "p0": [0.0, 0.0],
                        "sigma": [1.0, 1.0]},
            "dt": 1e-3,
            "steps": 1,
            "seed": seed,
        }

    def argv(self, config_path: Path, inputs: dict, out: Path) -> list[str]:
        return ["spectrum", "--config", str(config_path), "--levels", str(self.levels),
                "--out", str(out)]

    def read(self, out: Path, exit_code: int) -> dict:
        table = _read_csv(out / self.data_files[0],
                          "level,energy,analytic_energy,abs_error", (0, 1))
        return {"level": table[:, 0], "energy": table[:, 1]}

    def reference(self, inputs: dict) -> np.ndarray:
        omega = inputs["potential"]["omega"]
        hbar = inputs.get("hbar", 1.0)
        quanta = sorted(nx + ny for nx in range(self.levels) for ny in range(self.levels))
        return np.array([hbar * omega * (q + 1) for q in quanta[: self.levels]])

    def check(self, out: dict, inputs: dict) -> list[str]:
        if list(out["level"]) != list(range(self.levels)):
            return ["levels"]
        if not np.max(np.abs(out["energy"] - self.reference(inputs))) <= 1e-8:
            return ["energies"]
        return []

    def controls(self) -> list:
        def short(out):
            out["level"] = out["level"][:-1]
            out["energy"] = out["energy"][:-1]

        def degenerate_split(out):
            out["energy"][2] += 1e-6

        return [("levels", short), ("energies", degenerate_split)]


WORKLOADS = {w.name: w for w in (TwoSlit(), Evolve1D(), Verify(), Spectrum2D())}
