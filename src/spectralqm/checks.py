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
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

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
from .evolution import (
    Trajectory,
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
    "field_energy_spectrum",
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


def _report(name: str, tag: str, residual: float, tolerance: float, details: str = "") -> CheckReport:
    # a non-positive tolerance is outside the CheckReport contract and
    # therefore unsatisfiable: nothing passes at tolerance <= 0
    residual = float(residual)
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
    residual = float(np.max(np.abs(trajectory.norm - 1.0)))
    return _report(
        "normalization",
        "probability-norm",
        residual,
        tolerance,
        details=f"records={len(trajectory.times)}",
    )


def check_parseval_momentum(psi: Wavefunction, tolerance: float = 1e-10) -> CheckReport:
    """k-space quadrature of hbar*k |Phi|^2 vs the derivative-operator bracket.

    Both routes zero the Nyquist bin (the derivative-operator convention);
    they remain computationally independent: one is a plain weighted sum over
    transform amplitudes, the other applies the operator and takes the inner
    product in position space.
    """
    grid = psi.grid
    phi = to_momentum(psi)
    dk = grid.k_cell_volume
    density = np.abs(phi.amps) ** 2
    residual = 0.0
    values = []
    for axis in range(grid.dim):
        k = grid.k_derivative_meshes[axis]
        p_spectral = float(psi.hbar * np.sum(k * density) * dk)
        p_operator = expectation(momentum_op(grid, axis, psi.hbar), psi)
        values.append((p_spectral, p_operator))
        residual = max(residual, abs(p_spectral - p_operator))
    details = "; ".join(
        f"axis{a}: kspace={v[0]:.12e} operator={v[1]:.12e}" for a, v in enumerate(values)
    )
    return _report("momentum-parseval", "momentum-spectral", residual, tolerance, details)


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


def check_ehrenfest_velocity(
    trajectory: Trajectory, tolerance: float = 1e-4, stencil: int = 4
) -> CheckReport:
    """d<x>/dt vs <p>/m on the recorded trajectory.

    Residual = max over interior records and axes of the centered-difference
    mismatch.  The expected size is C1*h^s + C2*dt^2 with s the stencil
    order; the 4th-order stencil keeps the differencing term negligible so
    the integrator itself is what gets tested.
    """
    h = _record_interval(trajectory)
    mass = trajectory.states[0].mass
    residual = 0.0
    for axis in range(trajectory.x_mean.shape[1]):
        d, interior = _central_difference(trajectory.x_mean[:, axis], h, stencil)
        residual = max(residual, float(np.max(np.abs(d - trajectory.p_mean[interior, axis] / mass))))
    return _report(
        "ehrenfest-velocity",
        "velocity-law",
        residual,
        tolerance,
        details=f"h={h:.3e} stencil={stencil} records={len(trajectory.times)}",
    )


def check_ehrenfest_force(
    trajectory: Trajectory, tolerance: float = 1e-4, stencil: int = 4
) -> CheckReport:
    """d<p>/dt vs <F> = <-dU/dx> on the recorded trajectory."""
    h = _record_interval(trajectory)
    residual = 0.0
    for axis in range(trajectory.p_mean.shape[1]):
        d, interior = _central_difference(trajectory.p_mean[:, axis], h, stencil)
        residual = max(residual, float(np.max(np.abs(d - trajectory.f_mean[interior, axis]))))
    return _report(
        "ehrenfest-force",
        "force-law",
        residual,
        tolerance,
        details=f"h={h:.3e} stencil={stencil} records={len(trajectory.times)}",
    )


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

    With dense H, X, P the two relations (i/hbar)[H,P]psi = -U'psi and
    (i/hbar)[H,X]psi = (P/m)psi are continuum identities; on a periodic grid
    they hold on interior band-limited states, so the residual is measured
    state-wise in the L2 norm, never as a matrix-norm identity.

    -U' defaults to spectral differentiation of u_samples; pass
    force_samples for potentials that are not periodic-smooth.
    """
    if grid.dim != 1:
        raise ValueError("commutator system check is defined on 1-D grids")
    h_dense = to_dense(hamiltonian(grid, u_samples, mass, hbar)).matrix
    x_dense = to_dense(position_op(grid)).matrix
    p_dense = to_dense(momentum_op(grid, 0, hbar)).matrix
    force = force_op(grid, u_samples, 0, force_samples).samples

    comm_hp = (1j / hbar) * (h_dense @ p_dense - p_dense @ h_dense)
    comm_hx = (1j / hbar) * (h_dense @ x_dense - x_dense @ h_dense)
    sqrt_dv = np.sqrt(grid.cell_volume)
    residual = 0.0
    for psi in test_states:
        v = psi.amps.ravel()
        r_force = np.linalg.norm(comm_hp @ v - force * v) * sqrt_dv
        r_velocity = np.linalg.norm(comm_hx @ v - (p_dense @ v) / mass) * sqrt_dv
        residual = max(residual, float(r_force), float(r_velocity))
    return _report(
        "commutator-system",
        "generator-equations",
        residual,
        tolerance,
        details=f"states={len(test_states)} n={grid.n[0]}",
    )


def check_commutant_uniqueness(
    n: int,
    hbar: float = 1.0,
    tolerance: float = 1e-8,
    x_only: bool = False,
) -> CheckReport:
    """Null space of M |-> ([M,X], [M,P]) over all complex n x n matrices.

    The joint commutant of the position and derivative operators should be
    exactly the scalars: nullity 1 with the null vector aligned to the
    identity.  Residual = (nullity - 1) + (1 - |overlap with I|).

    x_only=True drops the P equations; the commutant is then all diagonal
    matrices (nullity n), a negative control showing P is load-bearing.
    """
    if not 4 <= n <= 16:
        raise ValueError(f"commutant check supports 4 <= n <= 16, got {n}")
    grid = make_grid(1, n, float(n), 0.0)
    x_dense = to_dense(position_op(grid)).matrix
    p_dense = to_dense(momentum_op(grid, 0, hbar)).matrix
    eye = np.eye(n, dtype=complex)

    def commutation_block(a):
        # row-major vec: vec(MA - AM) = (I (x) A^T - A (x) I) vec(M)
        return np.kron(eye, a.T) - np.kron(a, eye)

    blocks = [commutation_block(x_dense)]
    if not x_only:
        blocks.append(commutation_block(p_dense))
    stacked = np.vstack(blocks)
    _, svals, vh = sla.svd(stacked)
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
    residual = (nullity - 1) + max(0.0, 1.0 - alignment)
    gap = float(svals[-(nullity + 1)]) if nullity < len(svals) else float("nan")
    name = "commutant-x-only" if x_only else "commutant-uniqueness"
    return _report(
        name,
        "commutant-scalars",
        residual,
        tolerance,
        details=f"n={n} nullity={nullity} alignment={alignment:.12f} spectral_gap={gap:.3e}",
    )


def check_antihermitian_exponential(
    n: int = 16,
    n_random: int = 100,
    seed: int = 0,
    tolerance: float = 1e-10,
    hermitian_control: bool = False,
) -> CheckReport:
    """Anti-Hermitian generators exponentiate to unitaries, and conversely.

    (a) exp(A) for random anti-Hermitian A must be unitary (checked with the
        general matrix exponential, cross-checked against the
        eigendecomposition oracle);
    (b) numerically differentiating a random unitary one-parameter family at
        t=0 must give back an anti-Hermitian generator.

    hermitian_control=True feeds Hermitian (not anti-) generators through
    route (a); the report is then expected to fail.
    """
    if n > 64:
        raise ValueError("check limited to n <= 64")
    rng = np.random.default_rng(seed)
    residual = 0.0
    for _ in range(n_random):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if hermitian_control:
            a = (g + g.conj().T) / 2.0
        else:
            a = (g - g.conj().T) / 2.0
        e = sla.expm(a)
        residual = max(residual, unitarity_defect(e))
        if not hermitian_control:
            # oracle: A = -iH with H Hermitian, so exp(A) = V exp(-i diag) V^+
            h_mat = 1j * a
            evals, vecs = sla.eigh(h_mat)
            e_oracle = (vecs * np.exp(-1j * evals)) @ vecs.conj().T
            residual = max(residual, float(np.linalg.norm(e - e_oracle)))
            # reverse direction: differentiate the family exp(A t) at t = 0
            delta = 1e-4
            u_plus = (vecs * np.exp(-1j * evals * delta)) @ vecs.conj().T
            u_minus = (vecs * np.exp(1j * evals * delta)) @ vecs.conj().T
            gen = (u_plus - u_minus) / (2.0 * delta)
            anti_defect = np.linalg.norm(gen + gen.conj().T) / max(1.0, np.linalg.norm(gen))
            residual = max(residual, float(anti_defect))
    name = "antihermitian-exponential-control" if hermitian_control else "antihermitian-exponential"
    return _report(
        name,
        "unitary-generator",
        residual,
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


def _component_spectra(fields: FieldConfiguration) -> np.ndarray:
    """|component(k)|^2 for all six components, via the library transform."""
    grid = fields.grid
    spectra = []
    for comp in list(fields.e) + list(fields.h):
        phi = to_momentum(Wavefunction(grid, comp.astype(complex)))
        spectra.append(np.abs(phi.amps) ** 2)
    return np.array(spectra)


def field_energy_spectrum(fields: FieldConfiguration) -> tuple[np.ndarray, np.ndarray]:
    """Energy carried per harmonic: (|E(k)|^2 + |H(k)|^2) / 8 pi per k bin."""
    spectra = _component_spectra(fields)
    k = fields.grid.axis_wavenumbers(0)
    per_harmonic = np.sum(spectra, axis=0) / (8.0 * np.pi)
    order = np.argsort(k)
    return k[order], per_harmonic[order]


def check_field_energy_parseval(
    fields: FieldConfiguration, tolerance: float = 1e-12
) -> CheckReport:
    """Total field energy computed in real space vs summed over harmonics."""
    grid = fields.grid
    dx = grid.cell_volume
    w_real = float(np.sum(fields.e**2) + np.sum(fields.h**2)) * dx / (8.0 * np.pi)
    spectra = _component_spectra(fields)
    w_k = float(np.sum(spectra)) * grid.k_cell_volume / (8.0 * np.pi)
    residual = abs(w_real - w_k) / max(w_real, 1e-30)
    return _report(
        "field-energy-parseval",
        "field-energy",
        residual,
        tolerance,
        details=f"w_real={w_real:.15e} w_k={w_k:.15e}",
    )


def random_smooth_fields(grid: Grid, rng: np.random.Generator, max_mode: int | None = None) -> FieldConfiguration:
    """Band-limited random fields: harmonics up to n/8 with Gaussian weights."""
    n = grid.n[0]
    if max_mode is None:
        max_mode = max(1, n // 8)
    x = grid.axis_points(0)
    length = grid.length[0]

    def component():
        f = np.zeros(n)
        for m in range(1, max_mode + 1):
            a, b = rng.standard_normal(2)
            f += a * np.cos(2 * np.pi * m * x / length) + b * np.sin(2 * np.pi * m * x / length)
        return f

    e = np.array([component() for _ in range(3)])
    h = np.array([component() for _ in range(3)])
    return FieldConfiguration(grid, e, h)


# ---------------------------------------------------------------------------
# linearity / gauge checks
# ---------------------------------------------------------------------------


def check_superposition(
    grid: Grid,
    u_samples: np.ndarray,
    psi1: Wavefunction,
    psi2: Wavefunction,
    dt: float,
    steps: int,
    tolerance: float = 1e-10,
) -> CheckReport:
    """Evolving the normalized sum equals the normalized sum of evolutions."""
    hbar, mass = psi1.hbar, psi1.mass
    scale = 1.0 / np.sqrt(norm_squared(psi1.with_amps(psi1.amps + psi2.amps)))

    def final(psi):
        return split_step(psi, u_samples, mass, hbar, dt, steps, steps,
                          store_states=False).states[-1].amps

    evolved_sum = final(psi1.with_amps(scale * (psi1.amps + psi2.amps)))
    combined = scale * (final(psi1) + final(psi2))
    residual = float(
        np.linalg.norm(evolved_sum - combined) * np.sqrt(grid.cell_volume)
    )
    return _report(
        "superposition",
        "linearity",
        residual,
        tolerance,
        details=f"steps={steps} dt={dt:.3e}",
    )


def check_gauge_shift(
    grid: Grid,
    u_samples: np.ndarray,
    psi0: Wavefunction,
    dt: float,
    steps: int,
    record_every: int,
    shift: float = 3.7,
    force_samples=None,
    tolerance: float = 1e-10,
) -> CheckReport:
    """Adding a constant to the potential only changes the global phase.

    Expectation trajectories and Ehrenfest residuals must be unchanged.
    """
    hbar, mass = psi0.hbar, psi0.mass

    def run(u):
        return split_step(
            psi0, u, mass, hbar, dt, steps, record_every,
            force_samples=force_samples, store_states=False,
        )

    base = run(u_samples)
    shifted = run(u_samples + shift)
    residual = max(
        float(np.max(np.abs(base.x_mean - shifted.x_mean))),
        float(np.max(np.abs(base.p_mean - shifted.p_mean))),
    )
    for check in (check_ehrenfest_velocity, check_ehrenfest_force):
        residual = max(residual, abs(check(base).residual - check(shifted).residual))
    return _report(
        "gauge-shift",
        "constant-in-potential",
        residual,
        tolerance,
        details=f"shift={shift}",
    )


# ---------------------------------------------------------------------------
# evolution-operator checks
# ---------------------------------------------------------------------------


def check_evolution_operator(
    n: int = 32,
    length: float = 12.0,
    hbar: float = 1.0,
    n_slices: int = 64,
    drive_amplitude: float = 0.1,
    tolerance_scale: float = 1.0,
) -> list[CheckReport]:
    """Two-time evolution operator laws and generator extraction.

    Emits separate reports for unitarity, composition, invertibility,
    generator recovery (constant and sinusoidally driven), and generator
    Hermiticity.  Each report's pinned tolerance is multiplied by
    `tolerance_scale`.
    """
    pinned = {
        "evolution-unitarity": 1e-9,
        "evolution-composition": 1e-10,
        "evolution-inverse": 1e-9,
        "generator-constant": 1e-6,
        "generator-driven": 1e-4,
        "generator-hermiticity": 1e-6,
    }
    tol = {name: bound * tolerance_scale for name, bound in pinned.items()}
    grid = make_grid(1, n, length, -length / 2.0)
    x = grid.axis_points(0)
    h0 = to_dense(hamiltonian(grid, 0.5 * x**2, 1.0, hbar)).matrix
    x_diag = np.diag(x).astype(complex)

    def h_const(_t):
        return h0

    def h_driven(t):
        return h0 + drive_amplitude * np.sin(t) * x_diag

    reports = []
    u_02 = evolution_operator(h_const, 0.0, 2.0, 2 * n_slices, hbar, grid)
    reports.append(_report(
        "evolution-unitarity", "evolution-laws",
        unitarity_defect(u_02.matrix), tol["evolution-unitarity"],
        details=f"n={n} interval=(0,2)",
    ))
    u_01 = evolution_operator(h_const, 0.0, 1.0, n_slices, hbar, grid)
    u_12 = evolution_operator(h_const, 1.0, 2.0, n_slices, hbar, grid)
    composition = float(np.linalg.norm(u_02.matrix - (u_12 @ u_01).matrix))
    reports.append(_report(
        "evolution-composition", "evolution-laws",
        composition, tol["evolution-composition"],
        details="U(0,2) vs U(1,2) @ U(0,1)",
    ))
    u_back = evolution_operator(h_const, 2.0, 0.0, 2 * n_slices, hbar, grid)
    inverse = float(np.linalg.norm(u_02.matrix @ u_back.matrix - np.eye(grid.size)))
    reports.append(_report(
        "evolution-inverse", "evolution-laws",
        inverse, tol["evolution-inverse"],
        details="U(0,2) @ U(2,0) vs identity",
    ))

    # central-difference truncation goes as delta^2 * |H|^3; at this grid's
    # spectral radius (~50) delta must sit below ~7e-5 to clear the 1e-6 gate
    probe_delta = 2e-5
    b_const = extract_generator(h_const, t=1.0, delta=probe_delta, hbar=hbar,
                                n_slices=n_slices, grid=grid)
    rel_const = float(np.linalg.norm(b_const.matrix - h0) / np.linalg.norm(h0))
    reports.append(_report(
        "generator-constant", "generator-extraction",
        rel_const, tol["generator-constant"],
        details=f"time-independent H, delta={probe_delta:.0e}",
    ))
    t_probe = 1.0
    b_driven = extract_generator(
        h_driven, t=t_probe, delta=probe_delta, hbar=hbar, n_slices=8 * n_slices, grid=grid
    )
    h_t = h_driven(t_probe)
    rel_driven = float(np.linalg.norm(b_driven.matrix - h_t) / np.linalg.norm(h_t))
    reports.append(_report(
        "generator-driven", "generator-extraction",
        rel_driven, tol["generator-driven"],
        details=f"drive={drive_amplitude}*sin(t)*x at t={t_probe}",
    ))
    herm = max(hermiticity_defect(b_const.matrix), hermiticity_defect(b_driven.matrix))
    reports.append(_report(
        "generator-hermiticity", "generator-extraction",
        herm, tol["generator-hermiticity"],
        details="worst of constant and driven extractions",
    ))
    return reports


# ---------------------------------------------------------------------------
# the full suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    """Sizes, step counts, and the global tolerance scale for run_all."""

    seed: int = 2024
    tolerance_scale: float = 1.0
    norm_n: int = 256
    norm_length: float = 20.0
    norm_dt: float = 1e-3
    norm_steps: int = 10000
    norm_record_every: int = 100
    parseval_n: int = 256
    parseval_states: int = 100
    ehrenfest_dt: float = 1e-3
    ehrenfest_record_every: int = 10
    ehrenfest_steps: int = 6290
    commutator_n: int = 256
    commutator_length: float = 40.0
    commutator_states: int = 5
    commutant_sizes: tuple[int, ...] = (8, 16)
    anti_n: int = 16
    anti_trials: int = 100
    field_n: int = 256
    field_trials: int = 50
    evolution_n: int = 32
    evolution_slices: int = 64

    @staticmethod
    def from_dict(data: dict) -> "VerifyConfig":
        known = {f.name for f in dataclasses.fields(VerifyConfig)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown verify config key: {sorted(unknown)[0]!r}")
        if "commutant_sizes" in data:
            data = dict(data, commutant_sizes=tuple(data["commutant_sizes"]))
        return VerifyConfig(**data)

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["commutant_sizes"] = list(d["commutant_sizes"])
        return d


def _scaled(tol: float, config: VerifyConfig) -> float:
    return tol * config.tolerance_scale


def _harmonic_setup(n, length, x0=1.0, p0=0.0, hbar=1.0, mass=1.0, omega=1.0):
    grid = make_grid(1, n, length, -length / 2.0)
    x = grid.axis_points(0)
    u = 0.5 * mass * omega**2 * x**2
    force = -mass * omega**2 * x
    sigma = np.sqrt(hbar / (2.0 * mass * omega))  # coherent-state width
    psi0 = gaussian_packet(grid, x0, p0, sigma, hbar, mass)
    return grid, u, force, psi0


def run_all(config: VerifyConfig | None = None) -> list[CheckReport]:
    """Run every check with the configured sizes; deterministic under the seed.

    Individual check failures (exceptions) are captured in the report list
    rather than aborting the suite.  Reports come back sorted by name.
    """
    config = config or VerifyConfig()
    reports: list[CheckReport] = []

    def guarded(fn, name, tag):
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - suite must not abort
            reports.append(CheckReport(
                name=name, tag=tag, residual=float("inf"),
                tolerance=0.0, passed=False, details=f"error: {exc}",
            ))
            return
        if isinstance(result, list):
            reports.extend(result)
        else:
            reports.append(result)

    # probability norm under long evolution
    def norm_check():
        grid, u, force, psi0 = _harmonic_setup(config.norm_n, config.norm_length)
        traj = split_step(
            psi0, u, 1.0, 1.0, config.norm_dt, config.norm_steps,
            config.norm_record_every, force_samples=[force], store_states=False,
        )
        return check_normalization(traj, _scaled(1e-10, config))

    guarded(norm_check, "normalization", "probability-norm")

    # momentum route agreement on random states
    def parseval_check():
        grid = make_grid(1, config.parseval_n, config.norm_length, -config.norm_length / 2)
        rng = np.random.default_rng(config.seed)
        worst = None
        for _ in range(config.parseval_states):
            r = check_parseval_momentum(random_state(grid, rng), _scaled(1e-10, config))
            if worst is None or r.residual > worst.residual:
                worst = r
        return CheckReport(
            name="momentum-parseval", tag=worst.tag, residual=worst.residual,
            tolerance=worst.tolerance, passed=worst.passed,
            details=f"max over {config.parseval_states} random states",
        )

    guarded(parseval_check, "momentum-parseval", "momentum-spectral")

    # velocity / force laws, harmonic and quartic
    def harmonic_traj():
        grid, u, force, psi0 = _harmonic_setup(config.norm_n, config.norm_length)
        return split_step(
            psi0, u, 1.0, 1.0, config.ehrenfest_dt, config.ehrenfest_steps,
            config.ehrenfest_record_every, force_samples=[force], store_states=False,
        )

    def quartic_traj():
        grid = make_grid(1, config.norm_n, config.norm_length, -config.norm_length / 2)
        x = grid.axis_points(0)
        u = 0.25 * x**4
        force = -(x**3)
        psi0 = gaussian_packet(grid, 1.0, 0.0, 0.5, 1.0, 1.0)
        return split_step(
            psi0, u, 1.0, 1.0, config.ehrenfest_dt, config.ehrenfest_steps,
            config.ehrenfest_record_every, force_samples=[force], store_states=False,
        )

    def ehrenfest_checks():
        out = []
        traj = harmonic_traj()
        for fn, suffix in ((check_ehrenfest_velocity, "velocity"), (check_ehrenfest_force, "force")):
            r = fn(traj, _scaled(1e-5, config))
            out.append(dataclasses.replace(r, name=f"ehrenfest-{suffix}-harmonic"))
        traj = quartic_traj()
        for fn, suffix in ((check_ehrenfest_velocity, "velocity"), (check_ehrenfest_force, "force")):
            r = fn(traj, _scaled(1e-4, config))
            out.append(dataclasses.replace(r, name=f"ehrenfest-{suffix}-quartic"))
        return out

    guarded(ehrenfest_checks, "ehrenfest", "velocity-law")

    # commutator system on interior Gaussian states
    def commutator_check():
        grid = make_grid(1, config.commutator_n, config.commutator_length,
                         -config.commutator_length / 2)
        x = grid.axis_points(0)
        u = 0.5 * x**2
        force = -x
        centers = np.linspace(-2.0, 2.0, config.commutator_states)
        momenta = np.linspace(-1.0, 1.0, config.commutator_states)
        states = [
            gaussian_packet(grid, c, p, 1.0, 1.0, 1.0)
            for c, p in zip(centers, momenta)
        ]
        return check_commutator_system(
            grid, u, 1.0, 1.0, states, force_samples=force,
            tolerance=_scaled(1e-6, config),
        )

    guarded(commutator_check, "commutator-system", "generator-equations")

    # commutant triviality
    def commutant_checks():
        out = []
        for size in config.commutant_sizes:
            r = check_commutant_uniqueness(size, tolerance=_scaled(1e-8, config))
            out.append(dataclasses.replace(r, name=f"commutant-uniqueness-n{size}"))
        return out

    guarded(commutant_checks, "commutant-uniqueness", "commutant-scalars")

    # anti-Hermitian exponentials
    guarded(
        lambda: check_antihermitian_exponential(
            config.anti_n, config.anti_trials, seed=config.seed,
            tolerance=_scaled(1e-10, config),
        ),
        "antihermitian-exponential", "unitary-generator",
    )

    # field-energy Parseval identity
    def field_checks():
        out = []
        grid = make_grid(1, config.field_n, 2.0 * np.pi, 0.0)
        rng = np.random.default_rng(config.seed + 1)
        worst = 0.0
        for _ in range(config.field_trials):
            r = check_field_energy_parseval(
                random_smooth_fields(grid, rng), _scaled(1e-12, config)
            )
            worst = max(worst, r.residual)
        out.append(_report(
            "field-energy-parseval", "field-energy", worst,
            _scaled(1e-12, config),
            details=f"max over {config.field_trials} random smooth configurations",
        ))
        # analytic single-harmonic case: total energy must be exactly 1/4
        x = grid.axis_points(0)
        e = np.zeros((3, config.field_n))
        h = np.zeros((3, config.field_n))
        e[1] = np.sin(x)
        h[2] = np.sin(x)
        fields = FieldConfiguration(grid, e, h)
        dx = grid.cell_volume
        w_real = float(np.sum(e**2) + np.sum(h**2)) * dx / (8.0 * np.pi)
        out.append(_report(
            "field-energy-sine", "field-energy",
            abs(w_real - 0.25), _scaled(1e-10, config),
            details=f"w_real={w_real:.15e} expected=0.25",
        ))
        return out

    guarded(field_checks, "field-energy-parseval", "field-energy")

    # linearity of the propagator
    def superposition_check():
        grid, u, force, _ = _harmonic_setup(config.norm_n, config.norm_length)
        psi1 = gaussian_packet(grid, -1.5, 0.5, 1.0)
        psi2 = gaussian_packet(grid, 1.5, -0.5, 1.0)
        return check_superposition(
            grid, u, psi1, psi2, config.ehrenfest_dt, 1000,
            tolerance=_scaled(1e-10, config),
        )

    guarded(superposition_check, "superposition", "linearity")

    # constant shift of the potential
    def gauge_check():
        grid, u, force, psi0 = _harmonic_setup(config.norm_n, config.norm_length)
        return check_gauge_shift(
            grid, u, psi0, config.ehrenfest_dt, 2000, config.ehrenfest_record_every,
            force_samples=[force], tolerance=_scaled(1e-10, config),
        )

    guarded(gauge_check, "gauge-shift", "constant-in-potential")

    # evolution-operator laws
    guarded(
        lambda: check_evolution_operator(
            config.evolution_n, n_slices=config.evolution_slices,
            tolerance_scale=config.tolerance_scale,
        ),
        "evolution-operator", "evolution-laws",
    )

    return sorted(reports, key=lambda r: r.name)
