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

from .grids import Grid, Wavefunction, _dft, inner, norm_squared

__all__ = [
    "LinearOperator",
    "DiagonalReal",
    "SpectralReal",
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
    "hermiticity_defect",
]

DENSE_SIZE_LIMIT = 4096
IMAG_RESIDUAL_TOL = 1e-10


class LinearOperator:
    """Base class; subclasses implement `_apply_amps` on raw amplitude arrays.

    Subclasses carry `label` and `grid` fields; every operator acts on one grid.
    """

    def __post_init__(self):
        if np.iscomplexobj(self.samples):
            raise ValueError(f"{self.label}: samples must be real")
        if self.samples.shape != self.grid.shape:
            raise ValueError(f"{self.label}: samples shape must match grid shape")

    def _apply_amps(self, amps: np.ndarray) -> np.ndarray:
        """op applied over the trailing grid axes of complex amps; leading axes are a batch."""
        raise NotImplementedError

    def _check_grid(self, grid: Grid):
        if grid != self.grid:
            raise ValueError(f"{self.label}: operator grid does not match state grid")


@dataclass(frozen=True)
class DiagonalReal(LinearOperator):
    """Multiplication by a real sample array (position, potential, force)."""

    grid: Grid
    samples: np.ndarray
    label: str = "diagonal"

    def _apply_amps(self, amps):
        return self.samples * amps


@dataclass(frozen=True)
class SpectralReal(LinearOperator):
    """Multiplication by a real function of k, conjugated by the transform pair."""

    grid: Grid
    samples: np.ndarray
    label: str = "spectral"

    def _apply_amps(self, amps):
        # The origin phases of the forward/inverse transforms cancel for a
        # pure k-multiplier, so plain FFTs suffice.
        axes = tuple(range(-self.samples.ndim, 0))
        spec = _dft("fftn", amps, axes)(amps)
        spec *= self.samples
        return _dft("ifftn", spec, axes)(spec, out=spec)


@dataclass(frozen=True)
class OperatorSum(LinearOperator):
    """Sum of operators on one grid; Hermitian iff every part is."""

    parts: tuple[LinearOperator, ...]
    label: str = "sum"

    def __post_init__(self):
        if not self.parts:
            raise ValueError("OperatorSum needs at least one part")
        if any(p.grid != self.grid for p in self.parts):
            raise ValueError(f"{self.label}: the parts live on different grids")

    @property
    def grid(self) -> Grid:
        return self.parts[0].grid

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
    grid: Grid

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("dense operator matrix must be square")
        if m.shape[0] != self.grid.size:
            raise ValueError("dense matrix dimension must equal grid point count")


def position_op(grid: Grid, axis: int = 0) -> DiagonalReal:
    """Coordinate observable for one axis: diagonal with samples x_j."""
    return DiagonalReal(grid, grid.meshes[axis], label=f"x[{axis}]")


def momentum_op(grid: Grid, axis: int = 0, hbar: float = 1.0) -> SpectralReal:
    """Derivative observable -i*hbar*d/dx as hbar*k in the transform basis.

    The Nyquist bin is zeroed (ambiguous sign on a real grid); states used in
    tight-tolerance checks are expected to carry negligible Nyquist content.
    """
    if not hbar > 0:
        raise ValueError(f"hbar must be positive, got hbar={hbar!r}")
    k = np.broadcast_to(grid.k_derivative_meshes[axis], grid.shape)
    return SpectralReal(grid, hbar * k, label=f"p[{axis}]")


def potential_op(grid: Grid, u_samples: np.ndarray) -> DiagonalReal:
    return DiagonalReal(grid, np.asarray(u_samples), label="U")


def spectral_gradient(grid: Grid, samples: np.ndarray, axis: int = 0) -> np.ndarray:
    """d(samples)/dx_axis by spectral differentiation (exact for band-limited data)."""
    k = grid.k_derivative_meshes[axis]
    axes = tuple(range(grid.dim))
    samples = np.asarray(samples, dtype=complex)
    spec = 1j * k * _dft("fftn", samples, axes)(samples)
    return _dft("ifftn", spec, axes)(spec).real


def force_op(grid: Grid, u_samples: np.ndarray, axis: int = 0,
             force_samples: np.ndarray | None = None) -> DiagonalReal:
    """-dU/dx_axis as a diagonal observable.

    Defaults to spectral differentiation of the sampled potential; pass
    `force_samples` to use an analytic derivative instead (required for
    potentials whose periodic extension has a kink at the box edge).
    """
    if force_samples is None:
        force_samples = -spectral_gradient(grid, u_samples, axis)
    return DiagonalReal(grid, np.asarray(force_samples), label=f"F[{axis}]")


def kinetic_op(grid: Grid, mass: float = 1.0, hbar: float = 1.0) -> SpectralReal:
    """T = hbar^2 |k|^2 / (2 mass), which the drift and the records read.

    The one place that forms |k|^2 (its Nyquist bin kept: |k|^2 is
    unambiguous).  Refused unless hbar and mass are positive and every sample
    is finite.
    """
    if not (hbar > 0 and mass > 0):
        raise ValueError(f"hbar and mass must be positive, got hbar={hbar!r}, mass={mass!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.float64(hbar) ** 2 * sum(k**2 for k in grid.k_meshes) / (2.0 * mass)
    if not np.isfinite(samples).all():
        raise ValueError(f"kinetic samples hbar^2 |k|^2 / (2 mass) overflow for hbar={hbar!r}, "
                         f"mass={mass!r}")
    return SpectralReal(grid, samples, label="T")


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

    An imaginary part above IMAG_RESIDUAL_TOL relative to ||psi|| ||op psi||,
    the Cauchy-Schwarz bound on the bracket, means the operator is not
    Hermitian (or the state is polluted); that is treated as a bug, not
    rounded away.
    """
    op_psi = apply(op, psi)
    value = inner(psi, op_psi)
    if abs(value.imag) > IMAG_RESIDUAL_TOL * np.sqrt(norm_squared(psi) * norm_squared(op_psi)):
        raise ValueError(
            f"expectation of {op.label} has imaginary residual {value.imag:.3e}; "
            "operator is not Hermitian on this state"
        )
    return value.real


def to_dense(op: LinearOperator) -> DenseOperator:
    """Materialize the matrix M[:, j] = op(e_j) on op's flattened grid basis.

    All N basis states go through one batched `_apply_amps` call.
    """
    grid = op.grid
    n_total = grid.size
    if n_total > DENSE_SIZE_LIMIT:
        raise ValueError(f"grid has {n_total} points, dense limit is {DENSE_SIZE_LIMIT}")
    rows = op._apply_amps(np.eye(n_total, dtype=complex).reshape(n_total, *grid.shape))
    # rows holds M^T; M is stored as a C-ordered copy because the F-ordered
    # view rows.T raised the peak memory of `verify` by about 1 MB
    matrix = np.ascontiguousarray(rows.reshape(n_total, n_total).T)
    return DenseOperator(matrix, grid)


def _as_matrix(m) -> np.ndarray:
    return m.matrix if isinstance(m, DenseOperator) else np.asarray(m)


def hermiticity_defect(m) -> float:
    """||M - M^dagger||_F / max(1, ||M||_F)."""
    mat = _as_matrix(m)
    return float(
        np.linalg.norm(mat - mat.conj().T) / max(1.0, np.linalg.norm(mat))
    )
