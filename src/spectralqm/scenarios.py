"""Named physical setups: free packet, harmonic and quartic wells (each kind
stated once, in `_POTENTIALS`), and two-slit diffraction on a 2-D grid.

Configs are plain serializable dataclasses; building and running them is
fully deterministic, so identical configs give bit-identical results.
"""

from __future__ import annotations

import dataclasses
import sys
import warnings

import numpy as np

from .grids import Grid, Wavefunction, gaussian_packet, make_grid
from .evolution import Trajectory, _strang_propagate, split_step
from .operators import kinetic_op

__all__ = [
    "ScenarioConfig",
    "DiffractionResult",
    "build",
    "potential_samples",
    "run",
    "run_diffraction",
    "extract_fringe_spacing",
    "reference_two_slit_config",
]

# kind: (config keys, p, c(spec)) of its well U = c sum_a x_a^p / p; slit_wall has none
_POTENTIALS = {
    "free": (set(), 2, lambda spec: 0.0),
    "harmonic": ({"omega"}, 2, lambda spec: np.float64(spec.get("omega", 1.0)) ** 2),
    "quartic": ({"a"}, 4, lambda spec: float(spec.get("a", 1.0))),
    "slit_wall": ({
        "positions",
        "slit_width",
        "slit_separation",
        "barrier_height",
        "barrier_thickness",
    }, None, None),
}
_INITIAL_KEYS = {"kind", "x0", "p0", "sigma"}
_GRID_KEYS = {"dim", "n", "length", "origin"}


def _check_keys(data, allowed: set, where: str, required: set = frozenset()):
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    missing = required - set(data)
    if missing:
        raise ValueError(f"missing key {sorted(missing)[0]!r} in {where}")


def _check_numbers(value, where: str, integer: bool = False, positive: bool = False,
                   per_axis: bool = False):
    """value must be a finite number (an integer if asked); a per-axis value may
    also be a non-empty list of them.  Any other list is checked as one item, and refused."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    listed = per_axis and isinstance(value, (list, tuple)) and len(value) > 0
    for item in value if listed else [value]:
        # an int compares with a float exactly, so one beyond the largest double fails here
        if (isinstance(item, bool) or not isinstance(item, kinds)
                or not abs(item) <= sys.float_info.max or (positive and item <= 0)):
            kind = "a finite integer" if integer else "a finite number"
            raise ValueError(f"{where} must be {kind}{' > 0' if positive else ''}, got {item!r}")


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one run, JSON-serializable."""

    name: str
    grid: dict
    potential: dict
    initial: dict
    dt: float
    steps: int
    record_every: int = 1
    seed: int = 0
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        """Validate every input once, so a bad config fails here with a ValueError."""
        name = self.name
        stem = name.encode("utf-8", "replace") if isinstance(name, str) else b""
        # <name>_trajectory.csv must be a file name: in UTF-8 (no lone surrogate), 255 bytes at most
        if (stem in (b"", b".", b"..") or any(c in stem for c in (b"/", b"\\", b"\0"))
                or len(stem) > 240 or stem.decode() != name):
            raise ValueError(f"name must be a plain file stem of at most 240 UTF-8 bytes, without "
                             f"a path separator or NUL, got {name!r}")
        _check_keys(self.grid, _GRID_KEYS, "grid", required=_GRID_KEYS)
        # a bool is an int to isinstance, so True would pass as dim 1
        if type(self.grid["dim"]) is not int or self.grid["dim"] not in (1, 2):
            raise ValueError(f"grid.dim must be 1 or 2, got {self.grid['dim']!r}")
        _check_numbers(self.grid["n"], "grid.n", integer=True, positive=True, per_axis=True)
        _check_numbers(self.grid["length"], "grid.length", positive=True, per_axis=True)
        _check_numbers(self.grid["origin"], "grid.origin", per_axis=True)
        kind = self.potential.get("kind") if isinstance(self.potential, dict) else None
        if kind not in _POTENTIALS:
            raise ValueError(f"unknown potential kind {kind!r}")
        keys, power, _ = _POTENTIALS[kind]
        _check_keys(self.potential, keys | {"kind"}, f"potential[{kind}]",
                    required=keys if power is None else set())
        for key, value in self.potential.items():
            if key == "positions":
                _check_keys(value, {"wall", "detector"}, "potential.positions",
                            required={"wall", "detector"})
                for position in value.values():
                    _check_numbers(position, "potential.positions")
            elif key != "kind":
                # a slit and a wall have a width, and two slits a separation >= 0
                _check_numbers(value, f"potential.{key}",
                               positive=key in ("slit_width", "barrier_thickness"))
                if key == "slit_separation" and value < 0:
                    raise ValueError(f"potential.slit_separation must be >= 0, got {value!r}")
        _check_keys(self.initial, _INITIAL_KEYS, "initial", required=_INITIAL_KEYS)
        if self.initial["kind"] != "gaussian":
            raise ValueError(f"unknown initial state kind {self.initial['kind']!r}")
        for key in ("x0", "p0", "sigma"):
            value = self.initial[key]
            _check_numbers(value, f"initial.{key}", positive=key == "sigma", per_axis=True)
            if isinstance(value, (list, tuple)) and len(value) != self.grid["dim"]:
                raise ValueError(f"initial.{key} must be a number or one per axis, got {value!r}")
        if kind == "slit_wall" and self.grid["dim"] != 2:
            raise ValueError("slit_wall potentials require dim = 2")
        for key in ("dt", "hbar", "mass"):
            _check_numbers(getattr(self, key), key, positive=True)
        _check_numbers(self.steps, "steps", integer=True, positive=True)
        _check_numbers(self.record_every, "record_every", integer=True, positive=True)
        _check_numbers(self.seed, "seed", integer=True)
        if self.steps % self.record_every != 0:
            raise ValueError("record_every must divide steps")

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        known = {f.name for f in dataclasses.fields(ScenarioConfig)}
        _check_keys(data, known, "scenario config",
                    required={"name", "grid", "potential", "initial", "dt", "steps"})
        return ScenarioConfig(**data)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _smooth_step(u: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(u))


def _slit_wall_samples(grid: Grid, spec: dict) -> np.ndarray:
    """Finite smooth-edged barrier with slit openings, edges ~2 cells wide."""
    positions = spec["positions"]
    wall_x = float(positions["wall"])
    height = float(spec["barrier_height"])
    thickness = float(spec["barrier_thickness"])
    width = float(spec["slit_width"])
    separation = float(spec["slit_separation"])
    x, y = grid.meshes
    dx, dy = grid.spacing
    along = _smooth_step((x - (wall_x - thickness / 2)) / dx) * _smooth_step(
        ((wall_x + thickness / 2) - x) / dx
    )
    centers = [0.0] if separation == 0.0 else [-separation / 2, separation / 2]
    opening = sum(_smooth_step((y - (c - width / 2)) / dy)
                  * _smooth_step(((c + width / 2) - y) / dy) for c in centers)
    opening = np.clip(opening, 0.0, 1.0)
    return height * along * (1.0 - opening)


def potential_samples(grid: Grid, spec: dict) -> np.ndarray:
    """U sampled on the grid; refused unless every sample is finite."""
    _, power, coefficient = _POTENTIALS[spec["kind"]]
    with np.errstate(over="ignore", invalid="ignore"):
        if power is None:
            u = _slit_wall_samples(grid, spec)
        else:
            # (c / p) x^p overflows later than c x^p / p; U = 0 if c = 0, even where x^p does
            c = coefficient(spec)
            u = sum(((c / power) * x**power for x in grid.meshes if c), np.zeros(grid.shape))
    if not np.isfinite(u).all():
        raise ValueError(f"the {spec['kind']} potential samples overflow for {spec!r}")
    return u


def _analytic_force(grid: Grid, spec: dict):
    """Closed-form -dU/dx = -c x^(p-1) per axis of a well, or None to fall back to spectral.

    Refused unless every sample is finite: the force can overflow where the
    potential does not (a |x|^3 > a x^4 / 4 for |x| < 4).
    """
    _, power, coefficient = _POTENTIALS[spec["kind"]]
    if power is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        c = coefficient(spec)
        force = [-c * x ** (power - 1) if c else np.zeros(grid.shape) for x in grid.meshes]
    if not all(np.isfinite(f).all() for f in force):
        raise ValueError(f"the {spec['kind']} force -dU/dx overflows for {spec!r}")
    return force


def build(config: ScenarioConfig) -> tuple[Grid, np.ndarray, Wavefunction]:
    """Grid, sampled potential, and normalized initial state for a config."""
    g = config.grid
    grid = make_grid(g["dim"], g["n"], g["length"], g["origin"])
    u = potential_samples(grid, config.potential)
    init = config.initial
    psi0 = gaussian_packet(grid, init["x0"], init["p0"], init["sigma"], config.hbar)
    return grid, u, psi0


def run(config: ScenarioConfig) -> Trajectory:
    """Propagate the configured scenario; records per `record_every`, final state only."""
    grid, u, psi0 = build(config)
    return split_step(psi0, u, config.mass, config.hbar, config.dt, config.steps,
                      config.record_every, force_samples=_analytic_force(grid, config.potential),
                      store_states=False)


# ---------------------------------------------------------------------------
# diffraction
# ---------------------------------------------------------------------------


# Fringe analysis only makes sense where the far-field spacing formula
# applies, i.e. inside the paraxial cone: |y| <= PARAXIAL_HALF_TANGENT * D.
# Higher-order fringes outside the cone are real, but their spacing is
# stretched by the sin->tan projection and is not what the formula predicts.
PARAXIAL_HALF_TANGENT = 0.3
# a fringe is a peak of the smoothed intensity with a prominence of at least
# this share of its maximum
PEAK_PROMINENCE_FRACTION = 0.08


@dataclasses.dataclass(frozen=True)
class DiffractionResult:
    """Time-integrated detector intensity plus the fringe-spacing comparison.

    fringe fields are None for single-slit or wall-free runs where a
    two-slit spacing is undefined.
    """

    positions: np.ndarray
    intensity: np.ndarray
    fringe_spacing: float | None
    fraunhofer_spacing: float | None
    relative_error: float | None
    final_norm: float
    transmitted_fraction: float
    fresnel_number: float | None
    details: str = ""


def _refine_peak(y: np.ndarray, intensity: np.ndarray, idx: int) -> float:
    """Sub-cell peak position via a parabolic fit through three samples."""
    if idx <= 0 or idx >= len(intensity) - 1:
        return float(y[idx])
    left, mid, right = intensity[idx - 1], intensity[idx], intensity[idx + 1]
    denom = left - 2.0 * mid + right
    if denom == 0.0:
        return float(y[idx])
    shift = 0.5 * (left - right) / denom
    return float(y[idx] + shift * (y[1] - y[0]))


def _prominent_peaks(x: np.ndarray, min_prominence: float) -> list[int]:
    """Indices of the local maxima of x whose prominence is at least min_prominence.

    The same peaks as `scipy.signal.find_peaks(x, prominence=min_prominence)`:
    a flat top counts once, at its middle index (rounded down), and a top
    that reaches either end of x is no peak.  A peak's prominence is its
    height above the higher of its two bases, where a base is the lowest
    sample on that side before x rises above the peak or ends.
    """
    # runs of equal samples, and the runs higher than both neighbouring runs
    edges = np.flatnonzero(np.diff(x))
    starts, ends = np.r_[0, edges + 1], np.r_[edges, len(x) - 1]
    level = x[starts]
    inner = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = []
    for p in (starts[inner] + ends[inner]) // 2:
        bases = [side[:np.argmax(np.append(side, np.inf) > x[p])].min()
                 for side in (x[p::-1], x[p:])]
        if x[p] - max(bases) >= min_prominence:
            peaks.append(int(p))
    return peaks


def extract_fringe_spacing(positions: np.ndarray,
                           intensity: np.ndarray) -> tuple[float | None, list[float]]:
    """Median spacing of intensity peaks after a 3-point moving average.

    The median is robust against weak edge lobes; peak positions are refined
    to sub-cell accuracy with a parabolic fit.
    """
    smoothed = np.convolve(intensity, np.full(3, 1.0 / 3.0), mode="same")
    top = float(np.max(smoothed))
    if top <= 0.0:
        return None, []
    idx = _prominent_peaks(smoothed, PEAK_PROMINENCE_FRACTION * top)
    peaks = [_refine_peak(positions, smoothed, i) for i in idx]
    if len(peaks) < 2:
        return None, peaks
    spacing = float(np.median(np.diff(sorted(peaks))))
    return spacing, peaks


def run_diffraction(config: ScenarioConfig) -> DiffractionResult:
    """Evolve a slit scenario and read the pattern off the detector line.

    Accumulates time-integrated |psi|^2 on the detector column every step,
    then extracts the fringe spacing and compares it against the far-field
    prediction lambda * D / d with lambda = 2 pi hbar / p0.
    """
    if config.potential["kind"] != "slit_wall":
        raise ValueError("run_diffraction needs a slit_wall potential")
    grid, u, psi0 = build(config)
    spec = config.potential
    positions = spec["positions"]
    wall_x = float(positions["wall"])
    detector_x = float(positions["detector"])
    x_start, x_end = grid.origin[0], grid.origin[0] + grid.length[0]
    # the detector column is the nearest grid column, so one outside the box
    # would silently read the edge column
    if not x_start <= wall_x < detector_x < x_end:
        raise ValueError(f"the detector must sit beyond the wall, both inside the box: need "
                         f"{x_start:g} <= wall < detector < {x_end:g} along x, got wall "
                         f"{wall_x:g} and detector {detector_x:g}")
    p0 = np.atleast_1d(np.asarray(config.initial["p0"], dtype=float))
    p0x = float(p0[0])
    if p0x <= 0:
        raise ValueError("packet momentum must aim at the wall (p0 along +x)")
    if len(p0) < 2 or abs(p0[1]) > 1e-9 * p0x:
        raise ValueError("slit runs need per-axis momentum [p0x, 0] aimed along +x")

    x_axis = grid.axis_points(0)
    y_axis = grid.axis_points(1)
    det_col = int(np.argmin(np.abs(x_axis - detector_x)))

    intensity = np.zeros(grid.n[1])

    def accumulate(row):
        intensity[:] += np.abs(row(det_col)) ** 2 * config.dt

    amps = _strang_propagate(psi0, u, kinetic_op(grid, config.mass, config.hbar).samples,
                             config.hbar, config.dt, config.steps, on_drift=accumulate)

    dv = grid.cell_volume
    final_norm = float(np.sum(np.abs(amps) ** 2) * dv)
    past_wall = x_axis > wall_x + float(spec["barrier_thickness"]) / 2
    transmitted = float(np.sum(np.abs(amps[past_wall, :]) ** 2) * dv)

    height = float(spec["barrier_height"])
    separation = float(spec["slit_separation"])
    wavelength = 2.0 * np.pi * config.hbar / p0x
    distance = detector_x - wall_x
    no_fringes = DiffractionResult(
        positions=y_axis, intensity=intensity,
        fringe_spacing=None, fraunhofer_spacing=None, relative_error=None,
        final_norm=final_norm, transmitted_fraction=transmitted, fresnel_number=None,
    )
    if height == 0.0:
        warnings.warn("barrier height is zero: no wall, skipping interference analysis")
        return dataclasses.replace(no_fringes, details="no wall")
    if transmitted < 1e-6:
        raise ValueError(
            f"no transmitted amplitude past the wall (fraction {transmitted:.3e}); "
            "barrier too high or too thick"
        )
    if separation == 0.0:
        return dataclasses.replace(no_fringes, details="single slit: no two-slit fringe spacing")

    fresnel = separation**2 / (wavelength * distance)
    predicted = wavelength * distance / separation
    window = np.abs(y_axis) <= PARAXIAL_HALF_TANGENT * distance
    measured, peaks = extract_fringe_spacing(y_axis[window], intensity[window])
    if measured is None:
        raise ValueError(f"could not locate interference peaks on the detector line "
                         f"({len(peaks)} found inside the paraxial window)")
    details = (
        f"peaks={len(peaks)} transmitted={transmitted:.4f} "
        f"fresnel={fresnel:.3f} wavelength={wavelength:.6e}"
    )
    return dataclasses.replace(
        no_fringes, fringe_spacing=measured, fraunhofer_spacing=predicted,
        relative_error=abs(measured - predicted) / predicted, fresnel_number=fresnel,
        details=details,
    )


# ---------------------------------------------------------------------------
# reference configurations
# ---------------------------------------------------------------------------


def reference_two_slit_config(momentum_scale: float = 1.0) -> ScenarioConfig:
    """Two-slit setup on a 512x512 grid in the far-field regime.

    The geometry keeps the first-order fringes at small angles inside the
    paraxial analysis cone (sin vs tan stretch ~3%); higher orders land
    outside the cone.  Timing: the transmitted packet fully clears the
    detector column by t ~ 2.75e-4 while the wall-reflected wave, after
    wrapping through the periodic box, only reaches it at t ~ 2.9e-4, so
    steps * dt = 2.8e-4 integrates the whole pattern uncontaminated.
    Scaling the momentum leaves the geometry fixed: dt shrinks with
    1/scale so the same 1400 steps cover the faster transit.  They hold the
    Nyquist drift phase hbar k_max^2 dt / 2m to 1.47 rad at 1x; 3500 steps of
    dt / 2.5 move the intensity by 1.7e-4 (relative L2), the fringes by 2.5e-5.
    """
    p0 = 1072.0 * momentum_scale
    kinetic = 0.5 * 1072.0**2  # barrier pinned to the reference packet energy
    return ScenarioConfig(
        name="two-slit-reference",
        grid={"dim": 2, "n": [512, 512], "length": [0.42, 1.0], "origin": [-0.21, -0.5]},
        potential={
            "kind": "slit_wall",
            "positions": {"wall": -0.02, "detector": 0.08},
            "slit_width": 0.01172,
            "slit_separation": 0.02344,
            "barrier_height": 50.0 * kinetic,
            "barrier_thickness": 0.0033,
        },
        initial={
            "kind": "gaussian",
            "x0": [-0.115, 0.0],
            "p0": [p0, 0.0],
            "sigma": [0.018, 0.02],
        },
        dt=2.0e-7 / momentum_scale,
        steps=1400,
        record_every=1400,
        seed=0,
    )
