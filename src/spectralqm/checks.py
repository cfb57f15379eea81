"""Named, tolerance-bearing numerical checks for the dynamical framework.

Each check measures one claim -- probability-norm conservation, the two
momentum routes agreeing, the velocity/force expectation laws, the
commutator system that pins down the generator, the triviality of the
{x, p} commutant, the anti-Hermitian/unitary correspondence, the two-time
evolution operator laws, and the field-energy Parseval identity -- and
emits a CheckReport with a residual and a pinned tolerance.

Residual conventions: identities exact up to roundoff get 1e-10..1e-12
tolerances, spectrally converged quantities 1e-6, finite-difference-in-time
comparisons 1e-4..1e-5 (see the Ehrenfest checks for the error model).
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .grids import (
    Grid,
    Wavefunction,
    gaussian_packet,
    make_grid,
    norm_squared,
    random_state,
    to_momentum,
)
from .operators import (
    expectation,
    force_op,
    hamiltonian,
    hermiticity_defect,
    momentum_op,
    position_op,
    to_dense,
)
from .scenarios import _check_keys, _check_numbers
from .evolution import (
    Trajectory,
    _single_blas_thread,
    evolution_operator,
    extract_generator,
    split_step,
    unitarity_defect,
)

__all__ = [
    "CheckReport",
    "FieldConfiguration",
    "VerifyConfig",
    "check_normalization",
    "check_parseval_momentum",
    "check_ehrenfest_velocity",
    "check_ehrenfest_force",
    "check_commutator_system",
    "check_commutant_uniqueness",
    "check_antihermitian_exponential",
    "check_field_energy_parseval",
    "check_superposition",
    "check_gauge_shift",
    "check_evolution_operator",
    "random_smooth_fields",
    "run_all",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check; passed iff residual <= tolerance."""

    name: str
    tag: str
    residual: float
    tolerance: float
    passed: bool
    details: str = ""

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _report(name: str, tag: str, residuals, tolerance: float, details: str = "") -> CheckReport:
    # the residual is the largest of the residual values (a number, an array or
    # a list of either), taken by np.max so that a NaN among them is the
    # residual and fails; a non-positive tolerance is outside the CheckReport
    # contract and therefore unsatisfiable: nothing passes at tolerance <= 0
    residual = float(np.max(residuals))
    tolerance = float(tolerance)
    return CheckReport(
        name=name,
        tag=tag,
        residual=residual,
        tolerance=tolerance,
        passed=bool(tolerance > 0.0 and residual <= tolerance),
        details=details,
    )


# ---------------------------------------------------------------------------
# trajectory-level checks
# ---------------------------------------------------------------------------


def check_normalization(trajectory: Trajectory, tolerance: float = 1e-10) -> CheckReport:
    """max over records of | ||psi||^2 - 1 |; the propagator must hold norm."""
    return _report(
        "normalization",
        "probability-norm",
        np.abs(trajectory.norm - 1.0),
        tolerance,
        details=f"records={len(trajectory.times)}",
    )


def check_parseval_momentum(psi: Wavefunction, tolerance: float = 1e-10) -> CheckReport:
    """k-space quadrature of k |Phi|^2 vs the derivative-operator bracket, at hbar = 1.

    Both routes zero the Nyquist bin (the derivative-operator convention);
    they remain computationally independent: one is a plain weighted sum over
    transform amplitudes, the other applies the operator and takes the inner
    product in position space.
    """
    grid = psi.grid
    phi = to_momentum(psi)
    dk = grid.k_cell_volume
    density = np.abs(phi.amps) ** 2
    values = [(float(np.sum(k * density) * dk), expectation(momentum_op(grid, axis), psi))
              for axis, k in enumerate(grid.k_derivative_meshes)]
    details = "; ".join(
        f"axis{a}: kspace={v[0]:.12e} operator={v[1]:.12e}" for a, v in enumerate(values)
    )
    return _report("momentum-parseval", "momentum-spectral",
                   [abs(spectral - operator) for spectral, operator in values], tolerance, details)


def _central_difference(series: np.ndarray, h: float, stencil: int) -> tuple[np.ndarray, slice]:
    """Centered first derivative of uniformly sampled data.

    stencil=2: (f[i+1]-f[i-1])/2h, error h^2 f'''/6.
    stencil=4: (f[i-2]-8f[i-1]+8f[i+1]-f[i+2])/12h, error h^4 f^(5)/30.
    Returns the derivative on the interior and the interior slice.
    """
    if stencil == 2:
        if len(series) < 3:
            raise ValueError("need at least 3 records for a centered difference")
        d = (series[2:] - series[:-2]) / (2.0 * h)
        return d, slice(1, -1)
    if stencil == 4:
        if len(series) < 5:
            raise ValueError("need at least 5 records for the 4th-order stencil")
        d = (series[:-4] - 8.0 * series[1:-3] + 8.0 * series[3:-1] - series[4:]) / (12.0 * h)
        return d, slice(2, -2)
    raise ValueError(f"unsupported stencil order {stencil}")


def _record_interval(trajectory: Trajectory) -> float:
    dt = np.diff(trajectory.times)
    if len(dt) < 2:
        raise ValueError("trajectory has too few records")
    if np.max(np.abs(dt - dt[0])) > 1e-12 * max(1.0, abs(dt[0])):
        raise ValueError("records must be uniformly spaced")
    return float(dt[0])


def _ehrenfest_residuals(trajectory: Trajectory, h: float, stencil: int):
    """|d<x>/dt - <p>/m| and |d<p>/dt - <F>| per interior record and axis, and the interior slice.

    The derivatives are centered differences of records h apart.
    """
    dx, interior = _central_difference(trajectory.x_mean, h, stencil)
    dp, _ = _central_difference(trajectory.p_mean, h, stencil)
    return (np.abs(dx - trajectory.p_mean[interior] / trajectory.mass),
            np.abs(dp - trajectory.f_mean[interior]), interior)


def _ehrenfest_check(trajectory: Trajectory, tolerance: float, law: str) -> CheckReport:
    """The 4th-order residual of one law, "velocity" or "force"."""
    h = _record_interval(trajectory)
    residuals = _ehrenfest_residuals(trajectory, h, 4)[("velocity", "force").index(law)]
    return _report(f"ehrenfest-{law}", f"{law}-law", residuals, tolerance,
                   details=f"h={h:.3e} stencil=4 records={len(trajectory.times)}")


def check_ehrenfest_velocity(trajectory: Trajectory, tolerance: float = 1e-4) -> CheckReport:
    """d<x>/dt vs <p>/m on the recorded trajectory.

    Residual = max over interior records and axes of the centered-difference
    mismatch.  The expected size is C1*h^4 + C2*dt^2: the 4th-order stencil
    keeps the differencing term negligible so the integrator itself is what
    gets tested.
    """
    return _ehrenfest_check(trajectory, tolerance, "velocity")


def check_ehrenfest_force(trajectory: Trajectory, tolerance: float = 1e-4) -> CheckReport:
    """d<p>/dt vs <F> = <-dU/dx> on the recorded trajectory."""
    return _ehrenfest_check(trajectory, tolerance, "force")


# ---------------------------------------------------------------------------
# operator-algebra checks
# ---------------------------------------------------------------------------


def check_commutator_system(
    grid: Grid,
    u_samples: np.ndarray,
    mass: float,
    hbar: float,
    test_states: list[Wavefunction],
    force_samples: np.ndarray | None = None,
    tolerance: float = 1e-6,
) -> CheckReport:
    """State-wise residuals of the commutator system that determines H.

    The two relations (i/hbar)[H,P]psi = -U'psi and (i/hbar)[H,X]psi =
    (P/m)psi are continuum identities; on a periodic grid they hold on
    interior band-limited states, so the residual is measured state-wise in
    the L2 norm, never as a matrix-norm identity.  H, X and P act through
    `_apply_amps` on all test states as one batch; no matrix is formed.

    -U' defaults to spectral differentiation of u_samples; pass
    force_samples for potentials that are not periodic-smooth.
    """
    if grid.dim != 1:
        raise ValueError("commutator system check is defined on 1-D grids")
    h = hamiltonian(grid, u_samples, mass, hbar)._apply_amps
    x = position_op(grid)._apply_amps
    p = momentum_op(grid, 0, hbar)._apply_amps
    force = force_op(grid, u_samples, 0, force_samples).samples

    states = np.stack([psi.amps for psi in test_states]).astype(complex)
    h_states, p_states = h(states), p(states)
    comm_hp = (1j / hbar) * (h(p_states) - p(h_states))
    comm_hx = (1j / hbar) * (h(x(states)) - x(h_states))
    sqrt_dv = np.sqrt(grid.cell_volume)
    r_force = np.linalg.norm(comm_hp - force * states, axis=-1) * sqrt_dv
    r_velocity = np.linalg.norm(comm_hx - p_states / mass, axis=-1) * sqrt_dv
    return _report(
        "commutator-system",
        "generator-equations",
        [r_force, r_velocity],
        tolerance,
        details=f"states={len(test_states)} n={grid.n[0]}",
    )


def check_commutant_uniqueness(n: int, tolerance: float = 1e-8) -> CheckReport:
    """Null space of M |-> ([M,X], [M,P]) over all complex n x n matrices.

    The joint commutant of the position and derivative operators should be
    exactly the scalars: nullity 1 with the null vector aligned to the
    identity.  Residual = (nullity - 1) + (1 - |overlap with I|).  The
    commutant does not depend on hbar, so P is taken at hbar = 1.  The SVD is
    taken of the n^2 x n^2 R factor of the stacked 2n^2 x n^2 map, which has the
    map's singular values and right singular vectors at a fraction of its memory.
    """
    if not 4 <= n <= 16:
        raise ValueError(f"commutant check supports 4 <= n <= 16, got {n}")
    grid = make_grid(1, n, float(n), 0.0)
    x_dense = to_dense(position_op(grid)).matrix
    p_dense = to_dense(momentum_op(grid)).matrix
    eye = np.eye(n, dtype=complex)

    def commutation_block(a):
        # row-major vec: vec(MA - AM) = (I (x) A^T - A (x) I) vec(M)
        return np.kron(eye, a.T) - np.kron(a, eye)

    stacked = np.vstack([commutation_block(x_dense), commutation_block(p_dense)])
    # R of stacked = QR has its singular values and right singular vectors; the square
    # R's SVD needs neither stacked's 2n^2 x n^2 U nor its LAPACK workspace
    r = np.linalg.qr(stacked, mode="r")
    del stacked
    _, svals, vh = np.linalg.svd(r)
    cutoff = max(svals[0], 1.0) * 1e-10
    nullity = int(np.sum(svals <= cutoff))
    if nullity == 0:
        return _report(
            "commutant-uniqueness", "commutant-scalars", float("inf"), tolerance,
            details=f"n={n} nullity=0",
        )
    null_basis = vh[-nullity:].conj().T  # orthonormal columns spanning the null space
    identity_vec = eye.ravel() / np.linalg.norm(eye.ravel())
    alignment = float(np.linalg.norm(null_basis.conj().T @ identity_vec))
    residual = (nullity - 1) + np.maximum(0.0, 1.0 - alignment)
    gap = float(svals[-(nullity + 1)]) if nullity < len(svals) else float("nan")
    return _report(
        "commutant-uniqueness",
        "commutant-scalars",
        residual,
        tolerance,
        details=f"n={n} nullity={nullity} alignment={alignment:.12f} spectral_gap={gap:.3e}",
    )


# Higham's degree-13 Pade coefficients b_k = (26 - k)! / (k! (13 - k)!), and the
# 1-norm up to which it needs no scaling in double precision
PADE_13 = tuple(float(math.factorial(26 - k) // (math.factorial(k) * math.factorial(13 - k)))
                for k in range(14))
THETA_13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by Pade-13 scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26,
    1179 (2005)): r(a / 2^s) = (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U, squared s
    times, with s the least that brings the 1-norm of a / 2^s below THETA_13.  The
    second form gives exactly the identity for a zero matrix."""
    s = max(0, math.frexp(np.linalg.norm(a, 1) / THETA_13)[1])
    a = a / 2.0**s
    b, eye = PADE_13, np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
             + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        r = r @ r
    return r


def check_antihermitian_exponential(
    n: int = 16,
    n_random: int = 100,
    seed: int = 0,
    tolerance: float = 1e-10,
    hermitian_control: bool = False,
) -> CheckReport:
    """Anti-Hermitian generators exponentiate to unitaries, and conversely.

    (a) exp(A) for random anti-Hermitian A must be unitary (checked with the
        general matrix exponential `_expm`, Pade-13 scaling and squaring,
        cross-checked against the eigendecomposition oracle);
    (b) numerically differentiating a random unitary one-parameter family at
        t=0 must give back an anti-Hermitian generator.

    hermitian_control=True feeds Hermitian (not anti-) generators through
    route (a); the report is then expected to fail.
    """
    if n > 64:
        raise ValueError("check limited to n <= 64")
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(n_random):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (g + g.conj().T if hermitian_control else g - g.conj().T) / 2.0
        e = _expm(a)
        residuals.append(unitarity_defect(e))
        if not hermitian_control:
            # oracle: A = -iH with H Hermitian, so exp(A) = V exp(-i diag) V^+
            h_mat = 1j * a
            evals, vecs = np.linalg.eigh(h_mat)
            e_oracle = (vecs * np.exp(-1j * evals)) @ vecs.conj().T
            residuals.append(np.linalg.norm(e - e_oracle))
            # reverse direction: differentiate the family exp(A t) at t = 0
            delta = 1e-4
            u_plus = (vecs * np.exp(-1j * evals * delta)) @ vecs.conj().T
            u_minus = (vecs * np.exp(1j * evals * delta)) @ vecs.conj().T
            gen = (u_plus - u_minus) / (2.0 * delta)
            anti_defect = np.linalg.norm(gen + gen.conj().T) / max(1.0, np.linalg.norm(gen))
            residuals.append(anti_defect)
    name = "antihermitian-exponential-control" if hermitian_control else "antihermitian-exponential"
    return _report(
        name,
        "unitary-generator",
        residuals,
        tolerance,
        details=f"n={n} trials={n_random} seed={seed}",
    )


# ---------------------------------------------------------------------------
# field-energy (transform prelude) checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldConfiguration:
    """Sampled three-component E and H fields on a 1-D grid."""

    grid: Grid
    e: np.ndarray  # shape (3, n)
    h: np.ndarray  # shape (3, n)

    def __post_init__(self):
        if self.grid.dim != 1:
            raise ValueError("field configurations live on 1-D grids")
        expected = (3, self.grid.n[0])
        if self.e.shape != expected or self.h.shape != expected:
            raise ValueError(f"field arrays must have shape {expected}")


def check_field_energy_parseval(
    fields: FieldConfiguration, tolerance: float = 1e-12
) -> CheckReport:
    """Total field energy computed in real space vs summed over harmonics."""
    grid = fields.grid
    dx = grid.cell_volume
    w_real = float(np.sum(fields.e**2) + np.sum(fields.h**2)) * dx / (8.0 * np.pi)
    # |component(k)|^2 of all six components, via the library transform
    spectra = [np.abs(to_momentum(Wavefunction(grid, comp.astype(complex))).amps) ** 2
               for comp in (*fields.e, *fields.h)]
    w_k = float(np.sum(spectra)) * grid.k_cell_volume / (8.0 * np.pi)
    residual = abs(w_real - w_k) / max(w_real, 1e-30)
    return _report(
        "field-energy-parseval",
        "field-energy",
        residual,
        tolerance,
        details=f"w_real={w_real:.15e} w_k={w_k:.15e}",
    )


def random_smooth_fields(grid: Grid, rng: np.random.Generator) -> FieldConfiguration:
    """Band-limited random fields: harmonics up to n/8 with Gaussian weights."""
    max_mode = max(1, grid.n[0] // 8)
    modes = np.arange(1, max_mode + 1)
    phase = 2 * np.pi * modes[:, None] * grid.axis_points(0) / grid.length[0]
    # one (cos, sin) coefficient pair per component and mode, drawn in that order
    coeffs = rng.standard_normal((6, max_mode, 2))
    fields = coeffs[..., 0] @ np.cos(phase) + coeffs[..., 1] @ np.sin(phase)
    e, h = fields[:3], fields[3:]
    return FieldConfiguration(grid, e, h)


# ---------------------------------------------------------------------------
# linearity / gauge checks
# ---------------------------------------------------------------------------


def check_superposition(
    u_samples: np.ndarray,
    psi1: Wavefunction,
    psi2: Wavefunction,
    dt: float,
    steps: int,
    tolerance: float = 1e-10,
) -> CheckReport:
    """Evolving the normalized sum equals the normalized sum of evolutions, at hbar = m = 1."""
    scale = 1.0 / np.sqrt(norm_squared(psi1.with_amps(psi1.amps + psi2.amps)))

    def final(psi):
        return split_step(psi, u_samples, 1.0, 1.0, dt, steps, steps,
                          store_states=False).states[-1].amps

    evolved_sum = final(psi1.with_amps(scale * (psi1.amps + psi2.amps)))
    combined = scale * (final(psi1) + final(psi2))
    residual = float(
        np.linalg.norm(evolved_sum - combined) * np.sqrt(psi1.grid.cell_volume)
    )
    return _report(
        "superposition",
        "linearity",
        residual,
        tolerance,
        details=f"steps={steps} dt={dt:.3e}",
    )


# the constant that check_gauge_shift adds to the potential
GAUGE_SHIFT = 3.7


def check_gauge_shift(
    u_samples: np.ndarray,
    psi0: Wavefunction,
    dt: float,
    steps: int,
    record_every: int,
    force_samples=None,
    tolerance: float = 1e-10,
) -> CheckReport:
    """Adding the constant GAUGE_SHIFT to the potential only changes the global phase.

    Expectation trajectories and Ehrenfest residuals must be unchanged.  Runs
    at hbar = m = 1.
    """

    def run(u):
        return split_step(psi0, u, 1.0, 1.0, dt, steps, record_every,
                          force_samples=force_samples, store_states=False)

    base = run(u_samples)
    shifted = run(u_samples + GAUGE_SHIFT)
    mean_shifts = np.abs([base.x_mean - shifted.x_mean, base.p_mean - shifted.p_mean])
    law_shifts = [abs(check(base).residual - check(shifted).residual)
                  for check in (check_ehrenfest_velocity, check_ehrenfest_force)]
    return _report(
        "gauge-shift",
        "constant-in-potential",
        [mean_shifts.max(), *law_shifts],
        tolerance,
        details=f"shift={GAUGE_SHIFT}",
    )


# ---------------------------------------------------------------------------
# evolution-operator checks
# ---------------------------------------------------------------------------


# the evolution-operator group's unit harmonic well (hbar = m = 1) on a box
# of this length, its slices per unit time and its drive amplitude
EVOLUTION_LENGTH = 12.0
EVOLUTION_SLICES = 64
EVOLUTION_DRIVE = 0.1


def check_evolution_operator(n: int = 32) -> list[CheckReport]:
    """Two-time evolution operator laws and generator extraction.

    Emits separate reports for unitarity, composition, invertibility,
    generator recovery (constant and sinusoidally driven), and generator
    Hermiticity.
    """
    grid = make_grid(1, n, EVOLUTION_LENGTH, -EVOLUTION_LENGTH / 2.0)
    x = grid.axis_points(0)
    h0 = to_dense(hamiltonian(grid, 0.5 * x**2)).matrix
    x_diag = np.diag(x).astype(complex)

    def h_const(_t):
        return h0

    def h_driven(t):
        return h0 + EVOLUTION_DRIVE * np.sin(t) * x_diag

    reports = []
    u_02 = evolution_operator(h_const, 0.0, 2.0, 2 * EVOLUTION_SLICES)
    reports.append(_report(
        "evolution-unitarity", "evolution-laws",
        unitarity_defect(u_02), 1e-9,
        details=f"n={n} interval=(0,2)",
    ))
    u_01 = evolution_operator(h_const, 0.0, 1.0, EVOLUTION_SLICES)
    u_12 = evolution_operator(h_const, 1.0, 2.0, EVOLUTION_SLICES)
    composition = float(np.linalg.norm(u_02 - u_12 @ u_01))
    reports.append(_report(
        "evolution-composition", "evolution-laws",
        composition, 1e-10,
        details="U(0,2) vs U(1,2) @ U(0,1)",
    ))
    u_back = evolution_operator(h_const, 2.0, 0.0, 2 * EVOLUTION_SLICES)
    inverse = float(np.linalg.norm(u_02 @ u_back - np.eye(grid.size)))
    reports.append(_report(
        "evolution-inverse", "evolution-laws",
        inverse, 1e-9,
        details="U(0,2) @ U(2,0) vs identity",
    ))

    # central-difference truncation goes as delta^2 * |H|^3; at this grid's
    # spectral radius (~50) delta must sit below ~7e-5 to clear the 1e-6 gate
    probe_delta = 2e-5
    b_const = extract_generator(h_const, t=1.0, delta=probe_delta, n_slices=EVOLUTION_SLICES)
    rel_const = float(np.linalg.norm(b_const - h0) / np.linalg.norm(h0))
    reports.append(_report(
        "generator-constant", "generator-extraction",
        rel_const, 1e-6,
        details=f"time-independent H, delta={probe_delta:.0e}",
    ))
    t_probe = 1.0
    b_driven = extract_generator(h_driven, t=t_probe, delta=probe_delta,
                                 n_slices=8 * EVOLUTION_SLICES)
    h_t = h_driven(t_probe)
    rel_driven = float(np.linalg.norm(b_driven - h_t) / np.linalg.norm(h_t))
    reports.append(_report(
        "generator-driven", "generator-extraction",
        rel_driven, 1e-4,
        details=f"drive={EVOLUTION_DRIVE}*sin(t)*x at t={t_probe}",
    ))
    reports.append(_report(
        "generator-hermiticity", "generator-extraction",
        [hermiticity_defect(b_const), hermiticity_defect(b_driven)], 1e-6,
        details="worst of constant and driven extractions",
    ))
    return reports


# ---------------------------------------------------------------------------
# the full suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    """The seed and the global tolerance scale for run_all.

    The suite's sizes and step counts are fixed where each group uses them:
    every pinned tolerance is calibrated at those sizes, so they cannot be
    set.  A tolerance scale of 0 fails every check.
    """

    seed: int = 2024
    tolerance_scale: float = 1.0

    def __post_init__(self):
        """Validate both fields once, so a bad config fails here with a ValueError."""
        _check_numbers(self.seed, "seed", integer=True)
        _check_numbers(self.tolerance_scale, "tolerance_scale")
        for name in ("seed", "tolerance_scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")

    @staticmethod
    def from_dict(data: dict) -> "VerifyConfig":
        _check_keys(data, {f.name for f in dataclasses.fields(VerifyConfig)}, "verify config")
        return VerifyConfig(**data)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


# the unit harmonic well that the trajectory groups share, its time step and
# its record interval
WELL_N = 256
WELL_LENGTH = 20.0
WELL_DT = 1e-3
WELL_RECORD_EVERY = 10
COMMUTANT_SIZES = (8, 16)


def _well_grid() -> Grid:
    return make_grid(1, WELL_N, WELL_LENGTH, -WELL_LENGTH / 2.0)


def _harmonic_setup():
    """Grid, potential and force of the unit well, and its coherent state at x0 = 1."""
    grid = _well_grid()
    x = grid.axis_points(0)
    return grid, 0.5 * x**2, -x, gaussian_packet(grid, 1.0, 0.0, np.sqrt(0.5))


def _harmonic_group(config: VerifyConfig) -> list[CheckReport]:
    """Probability norm and both Ehrenfest laws on one long run in the harmonic well."""
    _, u, force, psi0 = _harmonic_setup()
    traj = split_step(psi0, u, 1.0, 1.0, WELL_DT, 10000, WELL_RECORD_EVERY, force_samples=[force],
                      store_states=False)
    return [check_normalization(traj, 1e-10), check_ehrenfest_velocity(traj, 1e-5),
            check_ehrenfest_force(traj, 1e-5)]


def _quartic_group(config: VerifyConfig) -> list[CheckReport]:
    """Both Ehrenfest laws in the quartic well."""
    grid = _well_grid()
    x = grid.axis_points(0)
    psi0 = gaussian_packet(grid, 1.0, 0.0, 0.5)
    traj = split_step(psi0, 0.25 * x**4, 1.0, 1.0, WELL_DT, 6290, WELL_RECORD_EVERY,
                      force_samples=[-(x**3)], store_states=False)
    return [check_ehrenfest_velocity(traj, 1e-4), check_ehrenfest_force(traj, 1e-4)]


def _parseval_group(config: VerifyConfig) -> list[CheckReport]:
    """Momentum route agreement, worst over random states."""
    grid = _well_grid()
    rng = np.random.default_rng(config.seed)
    reports = [check_parseval_momentum(random_state(grid, rng), 1e-10) for _ in range(100)]
    worst = reports[int(np.argmax([r.residual for r in reports]))]
    return [dataclasses.replace(worst, details="max over 100 random states")]


def _commutator_group(config: VerifyConfig) -> list[CheckReport]:
    """Commutator system on interior Gaussian states."""
    grid = make_grid(1, 256, 40.0, -20.0)
    x = grid.axis_points(0)
    states = [gaussian_packet(grid, c, p, 1.0)
              for c, p in zip(np.linspace(-2.0, 2.0, 5), np.linspace(-1.0, 1.0, 5))]
    return [check_commutator_system(grid, 0.5 * x**2, 1.0, 1.0, states, force_samples=-x,
                                    tolerance=1e-6)]


def _commutant_group(config: VerifyConfig) -> list[CheckReport]:
    """Triviality of the {x, p} commutant at each size."""
    return [check_commutant_uniqueness(size, tolerance=1e-8) for size in COMMUTANT_SIZES]


def _antihermitian_group(config: VerifyConfig) -> list[CheckReport]:
    return [check_antihermitian_exponential(16, 100, seed=config.seed, tolerance=1e-10)]


def _field_group(config: VerifyConfig) -> list[CheckReport]:
    """Field-energy Parseval identity on random fields and on one harmonic."""
    grid = make_grid(1, 256, 2.0 * np.pi, 0.0)
    rng = np.random.default_rng(config.seed + 1)
    residuals = [check_field_energy_parseval(random_smooth_fields(grid, rng), 1e-12).residual
                 for _ in range(50)]
    # analytic single-harmonic case: total energy must be exactly 1/4
    e, h = np.zeros((2, 3, 256))
    e[1] = h[2] = np.sin(grid.axis_points(0))
    w_real = float(np.sum(e**2) + np.sum(h**2)) * grid.cell_volume / (8.0 * np.pi)
    return [
        _report("field-energy-parseval", "field-energy", residuals, 1e-12,
                details="max over 50 random smooth configurations"),
        _report("field-energy-sine", "field-energy", abs(w_real - 0.25), 1e-10,
                details=f"w_real={w_real:.15e} expected=0.25"),
    ]


def _superposition_group(config: VerifyConfig) -> list[CheckReport]:
    """Linearity of the propagator."""
    grid, u, _, _ = _harmonic_setup()
    psi1 = gaussian_packet(grid, -1.5, 0.5, 1.0)
    psi2 = gaussian_packet(grid, 1.5, -0.5, 1.0)
    return [check_superposition(u, psi1, psi2, WELL_DT, 1000, tolerance=1e-10)]


def _gauge_group(config: VerifyConfig) -> list[CheckReport]:
    """A constant shift of the potential."""
    _, u, force, psi0 = _harmonic_setup()
    return [check_gauge_shift(u, psi0, WELL_DT, 2000, WELL_RECORD_EVERY, force_samples=[force],
                              tolerance=1e-10)]


def _evolution_group(config: VerifyConfig) -> list[CheckReport]:
    return check_evolution_operator()


def _ehrenfest_names(well: str) -> list[tuple[str, str]]:
    return [(f"ehrenfest-{law}-{well}", f"{law}-law") for law in ("velocity", "force")]


# Each group of run_all with the (name, tag) of every report it emits, in order;
# run_all gives the reports these names and tags.  A group takes the config and
# returns its reports.  It looks the checks, split_step, make_grid and
# random_smooth_fields up as module globals when it runs, so rebinding one of
# them on the module reaches the suite.
_SUITE = (
    (_harmonic_group, [("normalization", "probability-norm"), *_ehrenfest_names("harmonic")]),
    (_quartic_group, _ehrenfest_names("quartic")),
    (_parseval_group, [("momentum-parseval", "momentum-spectral")]),
    (_commutator_group, [("commutator-system", "generator-equations")]),
    (_commutant_group, [(f"commutant-uniqueness-n{size}", "commutant-scalars")
                        for size in COMMUTANT_SIZES]),
    (_antihermitian_group, [("antihermitian-exponential", "unitary-generator")]),
    (_field_group, [("field-energy-parseval", "field-energy"),
                    ("field-energy-sine", "field-energy")]),
    (_superposition_group, [("superposition", "linearity")]),
    (_gauge_group, [("gauge-shift", "constant-in-potential")]),
    (_evolution_group, [(f"evolution-{law}", "evolution-laws")
                        for law in ("unitarity", "composition", "inverse")]
                       + [(f"generator-{case}", "generator-extraction")
                          for case in ("constant", "driven", "hermiticity")]),
)


def run_all(config: VerifyConfig | None = None,
            group_seconds: dict | None = None) -> list[CheckReport]:
    """Run every check at the suite's fixed sizes; deterministic under the seed.

    Each report takes its name and tag from `_SUITE`, where its own tag must
    be the table's, and its own name the table's or a `-`-ended prefix of it
    (`ehrenfest-force`).  A group that raises, or whose reports do not match,
    does not abort the suite: each of its checks is reported as failed, under
    the table's name and tag, with residual inf, tolerance 0 and an `error:`
    detail.  Each report's pinned tolerance is multiplied by
    `config.tolerance_scale` here, once, after its group returns.  Reports
    come back sorted by name.  A given `group_seconds` dict receives each
    group's wall time, keyed by the group's name (`harmonic`, ...,
    `evolution`).  BLAS runs on one thread.
    """
    config = config or VerifyConfig()
    reports: list[CheckReport] = []
    with _single_blas_thread():
        for group, names in _SUITE:
            start = time.perf_counter()
            try:
                group_reports = group(config)
                for (name, tag), r in zip(names, group_reports, strict=True):
                    if r.tag != tag or not (r.name == name or name.startswith(r.name + "-")):
                        raise ValueError(f"{r.name} ({r.tag}) came where {name} ({tag}) belongs")
            except Exception as exc:  # noqa: BLE001 - the suite must not abort
                group_reports = [CheckReport(name, tag, float("inf"), 0.0, False, f"error: {exc}")
                                 for name, tag in names]
            reports.extend(_report(name, tag, r.residual, r.tolerance * config.tolerance_scale,
                                   r.details)
                           for (name, tag), r in zip(names, group_reports, strict=True))
            if group_seconds is not None:
                group_seconds[group.__name__[1:].removesuffix("_group")] = time.perf_counter() - start
    return sorted(reports, key=lambda r: r.name)
