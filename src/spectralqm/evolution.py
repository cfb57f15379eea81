"""Time evolution: split-step propagation, the two-time evolution operator
with its generator, and bound-state spectra.

The split-step integrator uses Strang splitting (exact potential half-kick,
exact kinetic drift in k-space, half-kick), so the norm is conserved to
roundoff and the global error is O(dt^2).  Between kicks it holds the state
in a mixed representation, and a mirror-even 2-D run in its even sector
(see `_strang_propagate`); callers still see full-grid position-space
states.  The evolution operator is a plain unitary matrix, a time-ordered
product of slices exp(-i H dt) (hbar = 1), each through a Hermitian
eigendecomposition (one stacked `eigh` per block of slices), which keeps it
unitary to roundoff.  The spectrum of a real symmetric grid operator such as
`hamiltonian(grid, U)` comes from a preconditioned block eigensolver (LOBPCG)
in real arithmetic.
"""

from __future__ import annotations

import ctypes
import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from .grids import Grid, Wavefunction, _dft
from .operators import (
    DENSE_SIZE_LIMIT,
    DenseOperator,
    DiagonalReal,
    OperatorSum,
    SpectralReal,
    _as_matrix,
    force_op,
    hermiticity_defect,
    kinetic_op,
    momentum_op,
    to_dense,
)

__all__ = [
    "Trajectory",
    "split_step",
    "evolution_operator",
    "extract_generator",
    "unitarity_defect",
    "spectrum",
]

HERMITICITY_PRE_TOL = 1e-10
# `_lowest_block` runs BLOCK_PAD states beyond the request (so that it spans each
# degenerate level whole) until every requested residual is below BLOCK_TOL times
# the largest |H v| of its random start, the scale of a product's rounding, or
# fails after BLOCK_MAX_STEPS steps
BLOCK_PAD = 4
BLOCK_TOL = 1e-13
BLOCK_MAX_STEPS = 1000
# a grid operator is solved matrix-free only if it maps a real state to one
# whose imaginary part is below this share of its largest magnitude
REALNESS_TOL = 1e-12
# split_step reduces its records a block of states at a time, and
# evolution_operator decomposes its slices a block of Hamiltonians at a time:
# about this many bytes of complex amplitudes or matrices per block (64
# slices at n = 32), and never fewer than one state or slice.
RECORD_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class Trajectory:
    """Recorded states plus per-record expectation values, at the run's mass.

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
    mass: float

    def __post_init__(self):
        n = len(self.times)
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("record times must be strictly increasing")
        if len(self.norm) != n:
            raise ValueError("record arrays must have one entry per time")
        # states hold every record, or just the final state when not stored
        if len(self.states) not in (n, 1):
            raise ValueError("states must cover every record (or only the final state)")

    @property
    def grid(self) -> Grid:
        return self.states[0].grid


@cache
def _blas_pools() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS pool in numpy's and scipy's wheels.

    A pool is an `*openblas*` library in `numpy.libs` or `scipy.libs`, found by path, exporting
    `scipy_openblas_{get,set}_num_threads{64_,}`; other BLAS builds have none.
    """
    import scipy
    pools = []
    for libs in (Path(np.__file__).parents[1] / "numpy.libs",
                 Path(scipy.__file__).parents[1] / "scipy.libs"):
        for path, suffix in itertools.product(sorted(libs.glob("*openblas*")), ("64_", "")):
            lib = ctypes.CDLL(str(path))
            get, put = (getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}", None)
                        for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
    return tuple(pools)


@contextmanager
def _single_blas_thread():
    """Run the body with every pool of `_blas_pools` on one thread, restoring each count after.

    The limit is process-wide while the scope is open: BLAS calls from other threads get it too.
    """
    saved = [(put, get()) for get, put in _blas_pools()]
    try:
        for put, _ in saved:
            put(1)
        yield
    finally:
        for put, count in saved:
            put(count)


def _weighted_sums(states, weights):
    """sum_j |states[r]_j|^2 weights[c]_j for every state r and weight c.

    A weight of None stands for 1 (a row sum); the others are read in place,
    so no stacked copy of grid-sized arrays is made.
    """
    density = np.abs(states)
    density *= density
    density = density.reshape(len(states), -1)
    return np.column_stack([density.sum(axis=1) if w is None else density @ w.ravel()
                            for w in weights])


def _mirror_even(a: np.ndarray) -> bool:
    """a is 2-D, axis 1 has even length, and a is unchanged by j -> -j mod n along it."""
    return a.ndim == 2 and a.shape[1] % 2 == 0 and np.array_equal(a[:, 1:], a[:, :0:-1])


def _strang_propagate(psi0, u_samples, kinetic, hbar, dt, steps, record_every=None,
                      on_record=None, on_drift=None) -> np.ndarray:
    """Strang steps on a copy of psi0.amps, done in place; returns the final amplitudes.

    Between kicks the state is held in the mixed representation: transformed
    along every axis but axis 0 (in 1-D, plain position space).  A drift is
    then one FFT pair along axis 0.  A kick is the identity on every axis-0
    row where u_samples is zero, so it transforms back only the slab of rows
    from the first to the last nonzero one, multiplies it and transforms it
    forward again.  A free potential has an empty slab; one that is nonzero
    on both sides of the periodic edge kicks every row.

    The even sector: when u_samples and psi0.amps are both 2-D, axis 1 has an
    even length n, and both are unchanged by the index map j -> -j mod n
    along axis 1 (compared exactly), linear evolution keeps the state so.
    Then only the columns j = 0..n/2 are held, and the transform along axis 1
    is the DCT-I of those columns, which equals the first n/2 + 1 entries of
    the FFT of the whole even row.  Any other input, 1-D runs and odd n
    included, is held whole and transformed by FFTs.  So the representation
    is picked once, as the (forward, inverse, expand) triple that the whole
    state, the kick's slab and a row share: the identity in 1-D, FFTs
    along axis 1 (and the identity) on a full 2-D grid, the DCT-I and
    IDCT-I (and the mirror image of the columns) in the even sector.  Each
    transform, the identity or one bound by `_dft`, writes into the `out` it
    is given, so all three run in place through one kick path.

    Adjacent half-kicks are merged into one full kick, and split only at the
    last step and at each record point (step % record_every == 0), where the
    whole state returns to position space and on_record(step, amps) sees it
    on the full grid.  on_drift(row) runs after every drift, before the kick;
    row(i) returns position-space axis-0 row i on the full grid as a new
    array.  The returned amplitudes are on the full grid too.  kinetic is T,
    the samples of `kinetic_op`; the drift phase is T dt / hbar.  A kick or
    drift phase that overflows raises ValueError before any step.  T is let go
    before the state is copied: a caller that keeps no reference never holds both.
    """
    grid = psi0.grid
    trailing = tuple(range(1, grid.dim))
    even = _mirror_even(u_samples) and _mirror_even(psi0.amps)
    width = grid.n[1] // 2 + 1 if even else None  # the columns held
    u_samples, kinetic = u_samples[..., :width], kinetic[..., :width]

    rows = np.flatnonzero(np.any(u_samples != 0, axis=trailing))
    slab = slice(rows[0], rows[-1] + 1) if rows.size else slice(0, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        kick_phase = -1j * u_samples[slab] * dt / (2.0 * hbar)
        drift_phase = -1j * kinetic * dt / hbar
    for phase, name in ((kick_phase, "kick phase U dt / (2 hbar)"),
                        (drift_phase, "drift phase T dt / hbar")):
        if not np.isfinite(phase).all():
            raise ValueError(f"the {name} overflows for hbar={hbar!r}, dt={dt!r}")
    del kinetic
    half_kick = np.exp(kick_phase, out=kick_phase)
    full_kick = half_kick * half_kick
    drift = np.exp(drift_phase, out=drift_phase)

    amps = np.array(psi0.amps[..., :width], dtype=complex)
    forward = inverse = expand = lambda a, out=None: a  # the identity
    if even:
        forward, inverse = (_dft(name, amps, (1,)) for name in ("dct1", "idct1"))
        expand = lambda a: np.concatenate([a, a[..., -2:0:-1]], axis=-1)
    elif trailing:
        forward, inverse = (_dft(name, amps, trailing) for name in ("fftn", "ifftn"))
    drift_forward, drift_inverse = (_dft(name, amps, (0,)) for name in ("fftn", "ifftn"))

    def row(i):
        return expand(inverse(amps[i:i + 1]))[0]

    amps[slab] *= half_kick
    forward(amps, out=amps)
    for step in range(1, steps + 1):
        drift_forward(amps, out=amps)
        amps *= drift
        drift_inverse(amps, out=amps)
        if on_drift is not None:
            on_drift(row)
        recorded = on_record is not None and step % record_every == 0
        if step < steps and not recorded:
            kicked = amps[slab]  # a view of contiguous rows, transformed in place
            inverse(kicked, out=kicked)
            kicked *= full_kick
            forward(kicked, out=kicked)
            continue
        inverse(amps, out=amps)
        amps[slab] *= half_kick
        if recorded:
            on_record(step, expand(amps))
        if step < steps:
            amps[slab] *= half_kick
            forward(amps, out=amps)
    return expand(amps)


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
    every `record_every` steps.  Recorded states fill a block of about
    RECORD_BLOCK_BYTES, reduced at once when full and at the last record:
    |psi|^2 against 1, x_a, U, F_a, then one batched FFT and |psi_k|^2 against
    the samples of `momentum_op` p_a and of `kinetic_op` T, which the drift reads.

    force_samples: -dU/dx_a, one real array of the grid's shape per axis a, each
    through `force_op`; spectral differentiation of u_samples when omitted.
    Supply the analytic derivative for potentials that are not periodic-smooth.
    """
    if not (np.isfinite(float(dt)) and dt > 0):  # numpy cannot take an int beyond int64
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    grid = psi0.grid
    u_samples = np.asarray(u_samples, dtype=float)
    if u_samples.shape != grid.shape:
        raise ValueError("potential samples shape must match grid shape")
    kinetic = kinetic_op(grid, mass, hbar).samples

    dim = grid.dim
    if force_samples is not None and len(force_samples) != dim:
        raise ValueError(f"force_samples needs one array per axis, {dim}, got {len(force_samples)}")
    forces = [force_op(grid, u_samples, a, None if force_samples is None else force_samples[a])
              .samples for a in range(dim)]
    x_weights = [None, *grid.meshes, u_samples, *forces]
    k_weights = [*(momentum_op(grid, a, hbar).samples for a in range(dim)), kinetic]
    times = np.arange(0, steps + 1, record_every) * float(dt)
    x_moments = np.empty((len(times), len(x_weights)))
    k_moments = np.empty((len(times), len(k_weights)))
    block_rows = max(1, RECORD_BLOCK_BYTES // (16 * grid.size))
    block = np.empty((min(block_rows, len(times)), *grid.shape), dtype=complex)
    block_fft = _dft("fftn", block, tuple(range(1, dim + 1)))
    states = []

    def record(step, amps):
        index = step // record_every
        if store_states:
            states.append(Wavefunction(grid, amps.copy()))
        row = index % len(block)
        block[row] = amps
        if row == len(block) - 1 or index == len(times) - 1:
            start, rows = index - row, block[:row + 1]
            x_moments[start:index + 1] = _weighted_sums(rows, x_weights)
            k_moments[start:index + 1] = _weighted_sums(block_fft(rows, out=rows), k_weights)

    record(0, psi0.amps)
    amps = _strang_propagate(psi0, u_samples, kinetic, hbar, dt, steps, record_every, record)
    if not store_states:
        states = [Wavefunction(grid, amps)]

    # |fft|^2 * dx^dim / n_total equals |Phi|^2 dk^dim for the library transform.
    x_moments *= grid.cell_volume
    k_moments *= grid.cell_volume / grid.size
    u_mean = x_moments[:, 1 + dim]
    return Trajectory(
        times=times,
        states=tuple(states),
        norm=x_moments[:, 0],
        x_mean=x_moments[:, 1:1 + dim],
        p_mean=k_moments[:, :dim],
        u_mean=u_mean,
        f_mean=x_moments[:, 2 + dim:],
        energy=k_moments[:, dim] + u_mean,
        mass=mass,
    )


def unitarity_defect(matrix: np.ndarray) -> float:
    """||U^dagger U - I||_F."""
    return float(np.linalg.norm(matrix.conj().T @ matrix - np.eye(matrix.shape[0])))


def _hermitian_at(h_of_t, t: float) -> np.ndarray:
    h = _as_matrix(h_of_t(t))
    defect = hermiticity_defect(h)
    if not defect <= 1e-8:  # a non-finite H has a NaN defect
        raise ValueError(f"H(t={t}) is not Hermitian (defect {defect:.3e})")
    return h


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def evolution_operator(
    h_of_t: Callable[[float], np.ndarray],
    t1: float,
    t2: float,
    n_slices: int = 1,
) -> np.ndarray:
    """Two-time evolution operator U(t1, t2) as a time-ordered product of midpoint slices.

    Each slice contributes exp(-i H(t_mid) dt) (hbar = 1); later slices multiply
    from the left, so states compose as psi(t2) = U(t1,t2) psi(t1) and
    U(t1,t3) = U(t2,t3) @ U(t1,t2) holds exactly when slice boundaries align.
    t2 < t1 runs the slices backward, realizing the inverse operator.

    The slices go a block of RECORD_BLOCK_BYTES of matrices at a time.  Every
    slice's H is checked for Hermiticity; the block's distinct ones go through
    one stacked `eigh` and one stacked product (V e^{-i lambda dt}) V^H.
    A slice whose H equals the previous slice's bit for bit reuses its
    exponential, so a constant H costs one decomposition per block.
    """
    if n_slices < 1:
        raise ValueError("n_slices must be >= 1")
    first = _hermitian_at(h_of_t, t1)
    dim = first.shape[0]
    u = np.eye(dim, dtype=complex)
    if t2 == t1:
        return u
    dt = (t2 - t1) / n_slices
    block = max(1, RECORD_BLOCK_BYTES // (16 * dim * dim))
    for start in range(0, n_slices, block):
        distinct, which = [], []
        for s in range(start, min(start + block, n_slices)):
            h = _hermitian_at(h_of_t, t1 + (s + 0.5) * dt)
            if not distinct or not _same_bits(h, distinct[-1]):
                distinct.append(h.copy())  # h_of_t may refill one buffer
            which.append(len(distinct) - 1)
        evals, vecs = np.linalg.eigh(np.stack(distinct))
        phases = np.exp((-1j * dt) * evals)
        slices = (vecs * phases[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        for k in which:
            u = slices[k] @ u
    return u


def extract_generator(
    h_of_t: Callable[[float], np.ndarray],
    t: float,
    delta: float = 1e-4,
    n_slices: int = 16,
) -> np.ndarray:
    """Recover the Hermitian generator matrix from the evolution operator family.

    Central difference in the second time argument, with the family started at 0
    and hbar = 1:

        B = i * [U(0, t+delta) - U(0, t-delta)] / (2 delta) * U(0, t)^-1

    with U^-1 = U^dagger.  The three operators are built on an aligned slice
    grid (the long leg is shared), so the long-leg discretization error
    cancels and the result is O(delta^2) accurate.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if t - delta < 0.0:
        raise ValueError("need t - delta >= 0")
    leg_slices = 4
    u_minus = evolution_operator(h_of_t, 0.0, t - delta, n_slices)
    u_center = evolution_operator(h_of_t, t - delta, t, leg_slices) @ u_minus
    u_plus = evolution_operator(h_of_t, t, t + delta, leg_slices) @ u_center
    diff = (u_plus - u_minus) / (2.0 * delta)
    return 1j * diff @ u_center.conj().T


def spectrum(h, n_levels: int) -> list[tuple[float, Wavefunction]]:
    """Lowest eigenpairs of a Hermitian Hamiltonian.

    A real symmetric grid LinearOperator such as `hamiltonian(...)` is solved
    matrix-free, in real arithmetic, by a preconditioned block solver that
    applies it from its summed samples (see `_lowest_block`).  That solver's
    basis holds 3 (n_levels + BLOCK_PAD) states; when this is more than a
    quarter of the N grid points, or more entries than the largest dense
    matrix, the matrix is built with `to_dense` and solved by the subset
    `eigh`, and above the dense size limit such a request is refused.

    A grid operator that fails one probe apply (`_maps_real_to_real`), a
    complex Hermitian one such as H + c p, takes the dense route at any
    n_levels; above the dense size limit it is refused.  Only the matrix-free
    solve runs its BLAS on one thread.  A DenseOperator holds its matrix and
    goes through the Hermiticity pre-check and subset `eigh`.

    Eigenstates are orthonormal under the dx^dim measure and returned with
    energies ascending.
    """
    grid = h.grid
    n = grid.size
    if not 1 <= n_levels <= n:
        raise ValueError(f"n_levels must be in [1, {n}], got {n_levels}")
    basis = 3 * (n_levels + BLOCK_PAD)
    if not isinstance(h, DenseOperator):
        if 4 * basis > n or basis * n > DENSE_SIZE_LIMIT**2:
            refusal = (f"{n_levels} of {n} levels need a dense solve, and the dense limit is "
                       f"{DENSE_SIZE_LIMIT} points; ask for fewer levels")
        elif not _maps_real_to_real(h, grid):
            refusal = (f"{h.label} maps real states to complex ones, so its spectrum needs a "
                       f"dense solve, and the dense limit is {DENSE_SIZE_LIMIT} points")
        else:
            refusal = None
        if refusal is not None:
            if n > DENSE_SIZE_LIMIT:
                raise ValueError(refusal)
            h = to_dense(h)
    if isinstance(h, DenseOperator):
        defect = hermiticity_defect(h.matrix)
        if defect > HERMITICITY_PRE_TOL:
            raise ValueError(f"spectrum needs Hermitian H (defect {defect:.3e})")
        import scipy.linalg as sla
        evals, vecs = sla.eigh(h.matrix, subset_by_index=[0, n_levels - 1])
    else:
        with _single_blas_thread():
            evals, vecs = _lowest_block(h, grid, n_levels)
    states = (vecs.T * (1.0 / np.sqrt(grid.cell_volume))).reshape(n_levels, *grid.shape)
    return [(float(e), Wavefunction(grid, a.astype(complex))) for e, a in zip(evals, states)]


def _maps_real_to_real(h, grid: Grid) -> bool:
    """Whether h maps a real random state to a real one, to REALNESS_TOL of its largest entry.

    A Hermitian grid operator that passes is a real symmetric matrix.  The
    probe has its own random stream, so the solver's start vectors do not move.
    """
    out = h._apply_amps(np.random.default_rng(1).standard_normal(grid.shape).astype(complex))
    return bool(np.abs(out.imag).max() <= REALNESS_TOL * np.abs(out).max())


def _summands(h) -> list:
    """The operators that h adds up, with each nested OperatorSum opened."""
    return [q for p in h.parts for q in _summands(p)] if isinstance(h, OperatorSum) else [h]


def _lowest_block(h, grid: Grid, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest n_levels eigenpairs of a real symmetric grid operator by LOBPCG.

    Knyazev's block solver (SIAM J. Sci. Comput. 23, 517 (2001)) on n_levels +
    BLOCK_PAD states, in real arithmetic (`spectrum` has probed that h maps
    real states to real ones): H v = irfftn(T rfftn(v)) + U v, T and U the
    summed `SpectralReal` and `DiagonalReal` samples of `_summands(h)`, plus
    the real part of each other summand's `_apply_amps`.  Each step takes the
    Ritz pairs of the span of the block X, its last move P and the
    preconditioned residuals W, kept orthonormal.  The preconditioner D (T +
    c)^-1 D, with D = (1 + (U - min U) / c)^-1/2 and c the largest |Ritz
    value|, keeps the step count from growing as 1/dx^2.  The products of X and
    P are carried along, so a last Rayleigh-Ritz step on exact products sets
    the energies.  A fixed random start makes reruns byte-identical.
    """
    shape, m = grid.shape, n_levels + BLOCK_PAD
    parts = _summands(h)
    kinetic, u = (sum((p.samples for p in parts if isinstance(p, kind)), np.zeros(shape))
                  for kind in (SpectralReal, DiagonalReal))
    others = [p for p in parts if not isinstance(p, (SpectralReal, DiagonalReal))]
    kinetic = kinetic[..., :shape[-1] // 2 + 1]  # the half that rfftn keeps
    forward, inverse = (_dft(name, u, tuple(range(-grid.dim, 0))) for name in ("rfftn", "irfftn"))

    def apply(v):
        v = v.reshape(-1, *shape)
        spec = forward(v)
        spec *= kinetic
        hv = inverse(spec, out=spec) + u * v
        for p in others:
            hv += p._apply_amps(v.astype(complex)).real
        return hv.reshape(len(v), -1)

    def precondition(r, c):
        d = (1.0 + (u - u.min()) / c) ** -0.5
        spec = forward(d * r.reshape(-1, *shape)) / (kinetic + c)
        return (d * inverse(spec, out=spec)).reshape(len(r), -1)

    q = np.linalg.qr(np.random.default_rng(0).standard_normal((grid.size, m)))[0].T
    hq = apply(q)
    tol = BLOCK_TOL * np.linalg.norm(hq, axis=1).max()
    for _ in range(BLOCK_MAX_STEPS):
        # the rows of q are the orthonormal [X; P; W], those of hq their products
        theta, v = np.linalg.eigh(q @ hq.T)
        # P: the old X's part outside the new X, in the higher Ritz vectors
        rot = np.linalg.eigh(v[:m, m:].T @ v[:m, m:])[1][:, -m:]
        coef = np.hstack([v[:, :m], v[:, m:] @ rot]).T
        y, hy, theta = coef @ q, coef @ hq, theta[:m]
        r = hy[:m] - theta[:, None] * y[:m]
        norms = np.linalg.norm(r, axis=1)
        if norms[:n_levels].max() <= tol:
            x = y[:n_levels]
            theta, c = np.linalg.eigh(x @ apply(x).T)
            return theta, (c.T @ x).T
        active = norms > tol
        w = precondition(r[active] / norms[active, None], np.abs(theta).max())
        for first in (True, False):
            # project out [X; P] and orthonormalize; a Gram eigenvalue below 1e-14
            # of the largest (of 1 for the second pass's unit rows) is rounding
            w -= (w @ y.T) @ y
            lam, rot = np.linalg.eigh(w @ w.T)
            keep = lam > 1e-14 * (lam[-1] if first else 1.0)
            w = (rot[:, keep] / np.sqrt(lam[keep])).T @ w
        q, hq = np.vstack([y, w]), np.vstack([hy, apply(w)])
    raise ValueError(f"spectrum did not converge in {BLOCK_MAX_STEPS} steps")
