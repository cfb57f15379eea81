"""Time evolution: split-step propagation, dense unitary propagators, and
the two-time evolution operator with its generator.

The split-step integrator uses Strang splitting (exact potential half-kick,
exact kinetic drift in k-space, half-kick), so the norm is conserved to
roundoff and the global error is O(dt^2).  Dense propagators go through a
Hermitian eigendecomposition, which keeps them unitary to roundoff as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.fft as sfft
import scipy.linalg as sla

from .grids import Grid, Wavefunction
from .operators import DenseOperator, hermiticity_defect, spectral_gradient

__all__ = [
    "Trajectory",
    "EvolutionOperator",
    "split_step",
    "dense_propagator",
    "evolution_operator",
    "extract_generator",
    "unitarity_defect",
    "spectrum",
]

DENSE_PROPAGATOR_LIMIT = 1024
UNITARITY_TOL = 1e-9
HERMITICITY_PRE_TOL = 1e-10


@dataclass(frozen=True)
class Trajectory:
    """Recorded states plus per-record expectation values.

    Vector observables (x_mean, p_mean, f_mean) have one column per grid
    axis; norm, u_mean, and energy are scalars per record.
    """

    times: np.ndarray
    states: tuple[Wavefunction, ...]
    norm: np.ndarray
    x_mean: np.ndarray
    p_mean: np.ndarray
    u_mean: np.ndarray
    f_mean: np.ndarray
    energy: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("record times must be strictly increasing")
        if len(self.norm) != n:
            raise ValueError("record arrays must have one entry per time")
        # states hold every record, or just the final state when not stored
        if len(self.states) not in (n, 1):
            raise ValueError("states must cover every record (or only the final state)")

    @property
    def grid(self) -> Grid:
        return self.states[0].grid

    @property
    def record_interval(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0


def _fft_workers(grid: Grid) -> int:
    # 2-D transforms benefit from both cores; 1-D ones are too small to bother.
    return 2 if grid.dim == 2 else 1


def _records_from_amps(grid, amps, u_samples, force_samples, kinetic_k, hbar):
    """Expectation values computed directly from raw amplitudes (fast path)."""
    dv = grid.cell_volume
    density = np.abs(amps) ** 2
    norm = float(np.sum(density) * dv)
    x_mean = np.array([float(np.sum(grid.meshes[a] * density) * dv) for a in range(grid.dim)])
    spec = sfft.fftn(amps, workers=_fft_workers(grid))
    spec_density = np.abs(spec) ** 2
    # |fft|^2 * dx^dim / n_total equals |Phi|^2 dk^dim for the library transform.
    k_weight = dv / grid.size
    p_mean = np.array([float(hbar * np.sum(k * spec_density) * k_weight)
                       for k in grid.k_derivative_meshes])
    u_mean = float(np.sum(u_samples * density) * dv)
    f_mean = np.array([float(np.sum(f * density) * dv) for f in force_samples])
    energy = float(np.sum(kinetic_k * spec_density) * k_weight) + u_mean
    return norm, x_mean, p_mean, u_mean, f_mean, energy


def _strang_propagate(psi0, u_samples, mass, hbar, dt, steps,
                      record_every=None, on_record=None, on_drift=None) -> np.ndarray:
    """Strang steps on a copy of psi0.amps, done in place; returns the final amplitudes.

    Adjacent half-kicks are merged into one full kick, and split only at the
    last step and at each record point (step % record_every == 0), where
    on_record(step, amps) sees the whole state.  on_drift(amps) runs after
    every drift, before the kick, so it may read only |amps|^2.
    """
    half_kick = np.exp(-1j * u_samples * dt / (2.0 * hbar))
    full_kick = half_kick * half_kick
    drift = np.exp(-1j * hbar * psi0.grid.k_squared * dt / (2.0 * mass))
    workers = _fft_workers(psi0.grid)
    amps = psi0.amps * half_kick
    for step in range(1, steps + 1):
        amps = sfft.fftn(amps, workers=workers, overwrite_x=True)
        amps *= drift
        amps = sfft.ifftn(amps, workers=workers, overwrite_x=True)
        if on_drift is not None:
            on_drift(amps)
        recorded = on_record is not None and step % record_every == 0
        if step < steps and not recorded:
            amps *= full_kick
            continue
        amps *= half_kick
        if recorded:
            on_record(step, amps)
        if step < steps:
            amps *= half_kick
    return amps


def split_step(
    psi0: Wavefunction,
    u_samples: np.ndarray,
    mass: float,
    hbar: float,
    dt: float,
    steps: int,
    record_every: int = 1,
    force_samples=None,
    store_states: bool = True,
) -> Trajectory:
    """Propagate psi0 under H = -hbar^2/(2m) Lap + U with Strang splitting.

    Per step: half-kick exp(-i U dt / 2 hbar), exact kinetic drift in
    k-space, half-kick.  Records (norm, <x>, <p>, <U>, <F>, <H>) at t=0 and
    every `record_every` steps.

    force_samples: per-axis -dU/dx arrays; computed by spectral
    differentiation of u_samples when omitted.  Supply the analytic
    derivative for potentials that are not periodic-smooth.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    grid = psi0.grid
    u_samples = np.asarray(u_samples, dtype=float)
    if u_samples.shape != grid.shape:
        raise ValueError("potential samples shape must match grid shape")

    if force_samples is None:
        force_samples = [-spectral_gradient(grid, u_samples, a) for a in range(grid.dim)]
    elif grid.dim == 1 and np.ndim(force_samples) == 1:
        force_samples = [force_samples]
    force_samples = [np.asarray(f, dtype=float) for f in force_samples]
    kinetic_k = hbar**2 * grid.k_squared / (2.0 * mass)

    times, states, rows = [], [], []

    def record(step, amps):
        times.append(step * dt)
        if store_states:
            states.append(Wavefunction(grid, amps.copy(), hbar=hbar, mass=mass))
        rows.append(_records_from_amps(grid, amps, u_samples, force_samples, kinetic_k, hbar))

    record(0, psi0.amps)
    amps = _strang_propagate(psi0, u_samples, mass, hbar, dt, steps, record_every, record)
    if not store_states:
        states = [Wavefunction(grid, amps, hbar=hbar, mass=mass)]

    norm, x_mean, p_mean, u_mean, f_mean, energy = (np.array(col) for col in zip(*rows))
    return Trajectory(
        times=np.array(times),
        states=tuple(states),
        norm=norm,
        x_mean=x_mean,
        p_mean=p_mean,
        u_mean=u_mean,
        f_mean=f_mean,
        energy=energy,
    )


def unitarity_defect(matrix: np.ndarray) -> float:
    """||U^dagger U - I||_F."""
    m = matrix.matrix if isinstance(matrix, DenseOperator) else np.asarray(matrix)
    return float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])))


@dataclass(frozen=True)
class EvolutionOperator:
    """Dense unitary mapping states at t1 to states at t2."""

    matrix: np.ndarray
    t1: float
    t2: float
    grid: Grid | None = None

    def __post_init__(self):
        defect = unitarity_defect(self.matrix)
        if defect > UNITARITY_TOL:
            raise ValueError(f"evolution operator unitarity defect {defect:.3e} > {UNITARITY_TOL}")

    def __matmul__(self, other: "EvolutionOperator") -> "EvolutionOperator":
        """Compose with an earlier-interval operator: (self @ other) spans other.t1 -> self.t2."""
        if abs(other.t2 - self.t1) > 1e-12:
            raise ValueError("composition requires other.t2 == self.t1")
        return EvolutionOperator(self.matrix @ other.matrix, other.t1, self.t2, self.grid)

    def inverse(self) -> "EvolutionOperator":
        return EvolutionOperator(self.matrix.conj().T, self.t2, self.t1, self.grid)


def _expm_hermitian(h: np.ndarray, factor: complex) -> np.ndarray:
    """exp(factor * H) via eigendecomposition; exactly unitary for imaginary factor."""
    evals, vecs = sla.eigh(h)
    return (vecs * np.exp(factor * evals)) @ vecs.conj().T


def dense_propagator(h_dense, delta_t: float, hbar: float = 1.0) -> EvolutionOperator:
    """U = exp(-i H delta_t / hbar) for a Hermitian dense H."""
    grid = h_dense.grid if isinstance(h_dense, DenseOperator) else None
    h = h_dense.matrix if isinstance(h_dense, DenseOperator) else np.asarray(h_dense)
    if h.shape[0] > DENSE_PROPAGATOR_LIMIT:
        raise ValueError(f"dense propagator limited to {DENSE_PROPAGATOR_LIMIT} points")
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_PRE_TOL:
        raise ValueError(f"dense propagator needs Hermitian H (defect {defect:.3e})")
    u = _expm_hermitian(h, -1j * delta_t / hbar)
    return EvolutionOperator(u, 0.0, delta_t, grid)


def _hermitian_at(h_of_t, t: float) -> np.ndarray:
    h = h_of_t(t)
    h = h.matrix if isinstance(h, DenseOperator) else np.asarray(h)
    defect = hermiticity_defect(h)
    if defect > 1e-8:
        raise ValueError(f"H(t={t}) is not Hermitian (defect {defect:.3e})")
    return h


def evolution_operator(
    h_of_t: Callable[[float], np.ndarray],
    t1: float,
    t2: float,
    n_slices: int = 1,
    hbar: float = 1.0,
    grid: Grid | None = None,
) -> EvolutionOperator:
    """Two-time evolution operator as a time-ordered product of midpoint slices.

    Each slice contributes exp(-i H(t_mid) dt / hbar); later slices multiply
    from the left, so states compose as psi(t2) = U(t1,t2) psi(t1) and
    U(t1,t3) = U(t2,t3) @ U(t1,t2) holds exactly when slice boundaries align.
    t2 < t1 runs the slices backward, realizing the inverse operator.
    """
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    first = _hermitian_at(h_of_t, t1)
    dim = first.shape[0]
    u = np.eye(dim, dtype=complex)
    if t2 != t1:
        dt = (t2 - t1) / n_slices
        for s in range(n_slices):
            mid = t1 + (s + 0.5) * dt
            u = _expm_hermitian(_hermitian_at(h_of_t, mid), -1j * dt / hbar) @ u
    return EvolutionOperator(u, t1, t2, grid)


def extract_generator(
    h_of_t: Callable[[float], np.ndarray],
    t: float,
    delta: float = 1e-4,
    hbar: float = 1.0,
    t0: float = 0.0,
    n_slices: int = 16,
    grid: Grid | None = None,
) -> DenseOperator:
    """Recover the Hermitian generator from the evolution operator family.

    Central difference in the second time argument:

        B = i hbar * [U(t0, t+delta) - U(t0, t-delta)] / (2 delta) * U(t0, t)^-1

    with U^-1 = U^dagger.  The three operators are built on an aligned slice
    grid (the long leg is shared), so the long-leg discretization error
    cancels and the result is O(delta^2) accurate.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if t - delta < t0:
        raise ValueError("need t - delta >= t0")
    leg_slices = 4
    u_minus = evolution_operator(h_of_t, t0, t - delta, n_slices, hbar, grid)
    u_center = evolution_operator(h_of_t, t - delta, t, leg_slices, hbar, grid) @ u_minus
    u_plus = evolution_operator(h_of_t, t, t + delta, leg_slices, hbar, grid) @ u_center
    diff = (u_plus.matrix - u_minus.matrix) / (2.0 * delta)
    b = 1j * hbar * diff @ u_center.matrix.conj().T
    return DenseOperator(b, grid, label="generator")


def spectrum(h_dense: DenseOperator, n_levels: int) -> list[tuple[float, Wavefunction]]:
    """Lowest eigenpairs of a Hermitian dense Hamiltonian.

    Eigenstates are normalized under the dx^dim measure and returned with
    energies ascending.
    """
    h = h_dense.matrix
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_PRE_TOL:
        raise ValueError(f"spectrum needs Hermitian H (defect {defect:.3e})")
    if h_dense.grid is None:
        raise ValueError("spectrum needs a DenseOperator with a grid reference")
    if n_levels > h.shape[0]:
        raise ValueError(f"n_levels {n_levels} exceeds matrix dimension {h.shape[0]}")
    grid = h_dense.grid
    evals, vecs = sla.eigh(h)
    out = []
    scale = 1.0 / np.sqrt(grid.cell_volume)
    for i in range(n_levels):
        amps = (vecs[:, i] * scale).reshape(grid.shape)
        out.append((float(evals[i]), Wavefunction(grid, amps.astype(complex))))
    return out
