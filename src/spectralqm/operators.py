"""Observables on periodic grids: diagonal, spectral, and sum operators.

Operators are Hermitian by construction (real samples), applied either
pointwise (diagonal) or through the transform pair (spectral).  Every
`_apply_amps` treats the axes in front of the grid's axes as a batch.  Dense
matrix forms for the finite-dimensional algebra checks are one such batched
call on the identity basis, the same code path as `apply`, so the two
representations cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .grids import Grid, Wavefunction, inner

__all__ = [
    "LinearOperator",
    "DiagonalReal",
    "SpectralReal",
    "ScaledIdentity",
    "OperatorSum",
    "DenseOperator",
    "position_op",
    "momentum_op",
    "potential_op",
    "force_op",
    "spectral_gradient",
    "kinetic_op",
    "hamiltonian",
    "apply",
    "expectation",
    "to_dense",
    "commutator",
    "hermiticity_defect",
]

DENSE_SIZE_LIMIT = 4096
IMAG_RESIDUAL_TOL = 1e-10


class LinearOperator:
    """Base class; subclasses implement `_apply_amps` on raw amplitude arrays.

    Subclasses carry `label` and `grid` fields (grid may be None for
    grid-free operators such as scaled identities).
    """

    def _apply_amps(self, amps: np.ndarray) -> np.ndarray:
        """op applied over the trailing grid axes of amps; leading axes are a batch."""
        raise NotImplementedError

    def _check_grid(self, grid: Grid):
        if self.grid is not None and grid != self.grid:
            raise ValueError(f"{self.label}: operator grid does not match state grid")


@dataclass(frozen=True)
class DiagonalReal(LinearOperator):
    """Multiplication by a real sample array (position, potential, force)."""

    grid: Grid
    samples: np.ndarray
    label: str = "diagonal"

    def __post_init__(self):
        if np.iscomplexobj(self.samples):
            raise ValueError(f"{self.label}: diagonal samples must be real")
        if self.samples.shape != self.grid.shape:
            raise ValueError(f"{self.label}: samples shape must match grid shape")

    def _apply_amps(self, amps):
        return self.samples * amps


@dataclass(frozen=True)
class SpectralReal(LinearOperator):
    """Multiplication by a real function of k, conjugated by the transform pair."""

    grid: Grid
    samples: np.ndarray
    label: str = "spectral"

    def __post_init__(self):
        if np.iscomplexobj(self.samples):
            raise ValueError(f"{self.label}: spectral samples must be real")
        if self.samples.shape != self.grid.shape:
            raise ValueError(f"{self.label}: samples shape must match k-grid shape")

    def _apply_amps(self, amps):
        # The origin phases of the forward/inverse transforms cancel for a
        # pure k-multiplier, so plain FFTs suffice.
        axes = tuple(range(-self.samples.ndim, 0))
        spec = sfft.fftn(amps, axes=axes)
        spec *= self.samples
        return sfft.ifftn(spec, axes=axes, overwrite_x=True)


@dataclass(frozen=True)
class ScaledIdentity(LinearOperator):
    """c * I; Hermitian iff c is real.  Grid-free, applies to any state."""

    value: complex
    label: str = "identity"
    grid: Grid | None = None

    def _apply_amps(self, amps):
        return self.value * amps


@dataclass(frozen=True)
class OperatorSum(LinearOperator):
    """Sum of operators; Hermitian iff every part is."""

    parts: tuple[LinearOperator, ...]
    label: str = "sum"

    def __post_init__(self):
        if not self.parts:
            raise ValueError("OperatorSum needs at least one part")

    @property
    def grid(self):
        for p in self.parts:
            if p.grid is not None:
                return p.grid
        return None

    def _apply_amps(self, amps):
        first, *rest = self.parts
        out = first._apply_amps(amps)
        for p in rest:
            out += p._apply_amps(amps)
        return out


@dataclass(frozen=True)
class DenseOperator:
    """Explicit matrix form on the flattened (C-order) grid basis."""

    matrix: np.ndarray
    grid: Grid | None = None
    label: str = "dense"

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("dense operator matrix must be square")
        if self.grid is not None and m.shape[0] != self.grid.size:
            raise ValueError("dense matrix dimension must equal grid point count")


def position_op(grid: Grid, axis: int = 0) -> DiagonalReal:
    """Coordinate observable for one axis: diagonal with samples x_j."""
    return DiagonalReal(grid, grid.meshes[axis], label=f"x[{axis}]")


def momentum_op(grid: Grid, axis: int = 0, hbar: float = 1.0) -> SpectralReal:
    """Derivative observable -i*hbar*d/dx as hbar*k in the transform basis.

    The Nyquist bin is zeroed (ambiguous sign on a real grid); states used in
    tight-tolerance checks are expected to carry negligible Nyquist content.
    """
    return SpectralReal(grid, hbar * grid.k_derivative_meshes[axis], label=f"p[{axis}]")


def potential_op(grid: Grid, u_samples: np.ndarray) -> DiagonalReal:
    return DiagonalReal(grid, np.asarray(u_samples), label="U")


def spectral_gradient(grid: Grid, samples: np.ndarray, axis: int = 0) -> np.ndarray:
    """d(samples)/dx_axis by spectral differentiation (exact for band-limited data)."""
    k = grid.k_derivative_meshes[axis]
    return sfft.ifftn(1j * k * sfft.fftn(np.asarray(samples, dtype=complex))).real


def force_op(grid: Grid, u_samples: np.ndarray, axis: int = 0,
             force_samples: np.ndarray | None = None) -> DiagonalReal:
    """-dU/dx_axis as a diagonal observable.

    Defaults to spectral differentiation of the sampled potential; pass
    `force_samples` to use an analytic derivative instead (required for
    potentials whose periodic extension has a kink at the box edge).
    """
    if force_samples is None:
        force_samples = -spectral_gradient(grid, u_samples, axis)
    else:
        force_samples = np.asarray(force_samples)
        if np.iscomplexobj(force_samples):
            raise ValueError("force samples must be real")
    return DiagonalReal(grid, force_samples, label=f"F[{axis}]")


def kinetic_op(grid: Grid, mass: float = 1.0, hbar: float = 1.0) -> SpectralReal:
    """hbar^2 k^2 / (2 m), with k^2 from :attr:`Grid.k_squared`."""
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    return SpectralReal(grid, hbar**2 * grid.k_squared / (2.0 * mass), label="T")


def hamiltonian(grid: Grid, u_samples: np.ndarray, mass: float = 1.0, hbar: float = 1.0) -> OperatorSum:
    """T + U, the generator of the dynamics."""
    return OperatorSum(
        (kinetic_op(grid, mass, hbar), potential_op(grid, u_samples)), label="H"
    )


def apply(op: LinearOperator, psi: Wavefunction) -> Wavefunction:
    """Linear action op(psi); the result is not renormalized."""
    op._check_grid(psi.grid)
    return psi.with_amps(op._apply_amps(psi.amps.astype(complex)))


def expectation(op: LinearOperator, psi: Wavefunction) -> float:
    """Real bracket (psi, op psi) for a normalized psi.

    A non-negligible imaginary part means the operator is not Hermitian (or
    the state is polluted); that is treated as a bug, not rounded away.
    """
    value = inner(psi, apply(op, psi))
    if abs(value.imag) > IMAG_RESIDUAL_TOL:
        raise ValueError(
            f"expectation of {op.label} has imaginary residual {value.imag:.3e}; "
            "operator is not Hermitian on this state"
        )
    return value.real


def to_dense(op: LinearOperator, grid: Grid | None = None) -> DenseOperator:
    """Materialize the matrix M[:, j] = op(e_j) on the flattened grid basis.

    All N basis states go through one batched `_apply_amps` call.
    """
    if grid is None:
        grid = op.grid
    if grid is None:
        raise ValueError("to_dense needs a grid for a grid-free operator")
    op._check_grid(grid)
    n_total = grid.size
    if n_total > DENSE_SIZE_LIMIT:
        raise ValueError(f"grid has {n_total} points, dense limit is {DENSE_SIZE_LIMIT}")
    rows = op._apply_amps(np.eye(n_total, dtype=complex).reshape(n_total, *grid.shape))
    # rows holds M^T; M is stored as a C-ordered copy because the F-ordered
    # view rows.T raised the peak memory of `verify` by about 1 MB
    matrix = np.ascontiguousarray(rows.reshape(n_total, n_total).T)
    return DenseOperator(matrix, grid, label=op.label)


def _as_matrix(m) -> np.ndarray:
    return m.matrix if isinstance(m, DenseOperator) else np.asarray(m)


def commutator(a, b) -> DenseOperator:
    """[A, B] = AB - BA on dense forms."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"commutator dimension mismatch: {ma.shape} vs {mb.shape}")
    grid = a.grid if isinstance(a, DenseOperator) else (
        b.grid if isinstance(b, DenseOperator) else None)
    return DenseOperator(ma @ mb - mb @ ma, grid, label="commutator")


def hermiticity_defect(m) -> float:
    """||M - M^dagger||_F / max(1, ||M||_F)."""
    mat = _as_matrix(m)
    return float(
        np.linalg.norm(mat - mat.conj().T) / max(1.0, np.linalg.norm(mat))
    )
