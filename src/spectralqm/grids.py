"""Periodic sampling grids, wavefunctions, and Parseval-preserving transforms.

Everything here is a pure function of immutable values, and a state is its
grid and amplitudes: hbar and mass belong to the calls that use them.  A grid
is its four fields: each coordinate or wavenumber array is formed when it is
read and belongs to its reader.  The transform pair uses the convention

    Phi_m = dx^dim / (2*pi)^(dim/2) * sum_j psi_j exp(-i k_m . x_j)

so that the discrete Parseval identity

    sum_m |Phi_m|^2 dk^dim == sum_j |psi_j|^2 dx^dim

holds without correction factors.

Every transform goes through `_dft`, which gives scipy.fft's bits: the FFTs
over any axes call numpy.fft's pocketfft gufuncs one axis at a time, and only
the DCT-I pair of the mirror-even sector calls scipy's pocketfft.  So
scipy.fft is loaded by that sector alone.  Every transform runs on one worker.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "Grid",
    "Wavefunction",
    "MomentumAmplitudes",
    "make_grid",
    "gaussian_packet",
    "plane_wave",
    "random_state",
    "inner",
    "norm_squared",
    "normalize",
    "to_momentum",
    "from_momentum",
    "momentum_density_norm",
]

TWO_PI = 2.0 * np.pi


def _per_axis(value, dim, name):
    """Broadcast a scalar to a per-axis tuple, or validate a given tuple."""
    if np.isscalar(value):
        return (value,) * dim
    vals = tuple(value)
    if len(vals) != dim:
        raise ValueError(f"{name} must be scalar or length-{dim}, got {value!r}")
    return vals


@dataclass(frozen=True)
class Grid:
    """Periodic sampling grid in 1 or 2 dimensions.

    Per axis: n samples over a box of the given length starting at origin,
    spacing dx = length/n, sample points x_j = origin + j*dx, and dual
    wavenumbers k_m = 2*pi*m'/length with m' in {-n/2, ..., n/2-1} stored in
    standard DFT ordering.  It holds no arrays: every array property is formed
    anew on each read.
    """

    dim: int
    n: tuple[int, ...]
    length: tuple[float, ...]
    origin: tuple[float, ...]

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.length, self.n))

    @property
    def k_spacing(self) -> tuple[float, ...]:
        return tuple(TWO_PI / l for l in self.length)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def size(self) -> int:
        return int(np.prod(self.n))

    @property
    def cell_volume(self) -> float:
        """Quadrature weight dx^dim of one grid cell."""
        return float(np.prod(self.spacing))

    @property
    def k_cell_volume(self) -> float:
        return float(np.prod(self.k_spacing))

    def axis_points(self, axis: int) -> np.ndarray:
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        dx = self.spacing[axis]
        return self.origin[axis] + dx * np.arange(self.n[axis])

    def axis_wavenumbers(self, axis: int) -> np.ndarray:
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        return TWO_PI * np.fft.fftfreq(self.n[axis], d=self.spacing[axis])

    def axis_derivative_wavenumbers(self, axis: int) -> np.ndarray:
        """Wavenumbers for spectral differentiation: the Nyquist bin is zeroed.

        The m' = -n/2 mode has an ambiguous sign on a real sampling grid;
        zeroing it keeps the derivative operator Hermitian.
        """
        k = self.axis_wavenumbers(axis)
        k[self.n[axis] // 2] = 0.0
        return k

    @property
    def meshes(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays broadcast to the full grid shape (ij indexing)."""
        axes = [self.axis_points(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @property
    def k_meshes(self) -> tuple[np.ndarray, ...]:
        """Open meshes (as `k_derivative_meshes`): axis a holds its n_a values, every other 1."""
        axes = [self.axis_wavenumbers(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    @property
    def k_derivative_meshes(self) -> tuple[np.ndarray, ...]:
        axes = [self.axis_derivative_wavenumbers(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


def make_grid(dim: int, n, length, origin) -> Grid:
    """Build a periodic grid; n must be a power of two >= 4 on every axis."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    ns = tuple(int(v) for v in _per_axis(n, dim, "n"))
    lengths = tuple(float(v) for v in _per_axis(length, dim, "length"))
    origins = tuple(float(v) for v in _per_axis(origin, dim, "origin"))
    for nv in ns:
        if nv < 4 or nv & (nv - 1) != 0:
            raise ValueError(f"samples per axis must be a power of two >= 4, got {nv}")
    for lv in lengths:
        if not lv > 0:
            raise ValueError(f"length must be positive, got {lv}")
    # the quadrature weight and the sample points must be doubles, or every sum over them is NaN
    if not all(map(math.isfinite, (math.prod(lv / nv for lv, nv in zip(lengths, ns)),
                                   *(ov + lv for ov, lv in zip(origins, lengths))))):
        raise ValueError(f"the grid overflows: its cell volume dx^{dim} or its far edge origin + "
                         f"length is not finite (length={lengths}, origin={origins})")
    return Grid(dim, ns, lengths, origins)


@dataclass(frozen=True)
class Wavefunction:
    """Complex amplitudes on a grid; it carries no units."""

    grid: Grid
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape != self.grid.shape:
            raise ValueError(
                f"amps shape {self.amps.shape} does not match grid shape {self.grid.shape}"
            )

    def with_amps(self, amps: np.ndarray) -> "Wavefunction":
        return Wavefunction(self.grid, amps)


@dataclass(frozen=True)
class MomentumAmplitudes:
    """Wavenumber-space amplitudes in DFT ordering, Parseval-matched."""

    grid: Grid
    amps: np.ndarray


def norm_squared(psi: Wavefunction) -> float:
    """Riemann-sum squared norm sum |psi_j|^2 dx^dim."""
    return float(np.sum(np.abs(psi.amps) ** 2).real * psi.grid.cell_volume)


def normalize(psi: Wavefunction) -> Wavefunction:
    n2 = norm_squared(psi)
    if n2 <= 0.0:
        raise ValueError("cannot normalize a zero wavefunction")
    return psi.with_amps(psi.amps / np.sqrt(n2))


def inner(psi: Wavefunction, phi: Wavefunction) -> complex:
    """Bracket (psi, phi) = sum conj(psi_j) phi_j dx^dim; conjugate-linear in psi."""
    if psi.grid != phi.grid:
        raise ValueError("inner product requires wavefunctions on the same grid")
    return complex(np.vdot(psi.amps, phi.amps) * psi.grid.cell_volume)


def gaussian_packet(grid: Grid, x0, p0, sigma, hbar: float = 1.0) -> Wavefunction:
    """Normalized Gaussian packet exp(-(x-x0)^2/(4 sigma^2) + i p0.x/hbar).

    sigma is the position standard deviation per axis, and hbar turns the
    momentum p0 into the wavenumber p0/hbar.  Warns if the 5-sigma support
    leaks outside the periodic box, since every identity downstream assumes
    a negligible boundary amplitude.  Raises ValueError when sigma or hbar is
    not positive or an amplitude is not finite (p0 x / hbar or the envelope
    overflows).
    """
    x0s = _per_axis(x0, grid.dim, "x0")
    p0s = _per_axis(p0, grid.dim, "p0")
    sigmas = _per_axis(sigma, grid.dim, "sigma")
    for name, value in [*(("sigma", s) for s in sigmas), ("hbar", hbar)]:
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
    for a, (c, s) in enumerate(zip(x0s, sigmas)):
        lo, hi = grid.origin[a], grid.origin[a] + grid.length[a]
        if c - 5 * s < lo or c + 5 * s > hi:
            warnings.warn(
                f"gaussian_packet support (x0 +/- 5 sigma) leaves the box on axis {a}",
                stacklevel=2,
            )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        meshes = grid.meshes
        envelope = sum(-(x - c) ** 2 / (4.0 * np.float64(s) ** 2)
                       for x, c, s in zip(meshes, x0s, sigmas))
        phase = sum(p * x / hbar for x, p in zip(meshes, p0s))
        amps = np.exp(envelope + 1j * phase)
    if not np.isfinite(amps).all():
        cause = "p0 x / hbar" if not np.isfinite(phase).all() else "(x - x0)^2 / (4 sigma^2)"
        raise ValueError(f"gaussian packet amplitudes are not finite: {cause} overflows "
                         f"(p0={p0!r}, hbar={hbar!r}, sigma={sigma!r})")
    return normalize(Wavefunction(grid, amps))


def plane_wave(grid: Grid, mode_index) -> Wavefunction:
    """Single harmonic exp(i k_m . x)/sqrt(volume), an exact momentum eigenstate."""
    modes = _per_axis(mode_index, grid.dim, "mode_index")
    phase = np.zeros(grid.shape)
    for a, (m, x) in enumerate(zip(modes, grid.meshes)):
        m = int(m)
        half = grid.n[a] // 2
        if not -half <= m < half:
            raise ValueError(f"mode {m} outside [-{half}, {half}) on axis {a}")
        k = TWO_PI * m / grid.length[a]
        phase = phase + k * x
    amps = np.exp(1j * phase) / np.sqrt(np.prod(grid.length))
    return Wavefunction(grid, amps.astype(complex))


def random_state(grid: Grid, rng: np.random.Generator) -> Wavefunction:
    """Normalized state with iid complex Gaussian amplitudes (test fodder)."""
    amps = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return normalize(Wavefunction(grid, amps))


def _origin_phase(grid: Grid) -> np.ndarray:
    """exp(-i k . x0) factor relating the DFT to the origin-anchored transform."""
    return np.exp(-1j * sum(k * x0 for k, x0 in zip(grid.k_meshes, grid.origin)))


def _dft(name: str, a: np.ndarray, axes: tuple[int, ...]):
    """The transform `name` over `axes`, as a callable with scipy.fft's bits:
    its fftn, ifftn, rfftn or irfftn, or dct1/idct1, its dct/idct of type 1.

    It takes arrays like `a` (its number of axes and its lengths along `axes`;
    for irfftn, like its real result) and `out`: the input itself, to let a
    complex result be written into it; either way it returns the result.
    rfftn and irfftn run over trailing axes.  numpy.fft's pocketfft gufuncs
    make one pass per axis, in scipy's order: rfftn's real input along the last
    axis first (`rfft_n_even`/`_odd`), then the complex passes in the order of
    `axes` (fftn's first pass casts real input, as casting it first would),
    and irfftn's `irfft` pass last.  The inverse's 1/N (N the product of the
    lengths) scales its first complex pass, or its `irfft` pass.
    So its bits are scipy's wherever 1/N rounds alike in double and in scipy's
    long double, at every power-of-two N among them.  The DCT-I pair alone loads
    scipy: one `pypocketfft.dct` call over the (..., 2) float64 view of a
    complex array gives scipy.fft's bits for its two parts.
    """
    if name in ("dct1", "idct1"):
        from scipy.fft._pocketfft import pypocketfft
        inorm, axes = (0 if name == "dct1" else 2), [axis % a.ndim for axis in axes]

        def dct(x, out=None):
            out = np.empty_like(x) if out is None else out
            pypocketfft.dct(x[..., None].view(np.float64), 1, axes, inorm,
                            out[..., None].view(np.float64))
            return out
        return dct
    from numpy.fft import _pocketfft_umath as pocketfft
    forward = name in ("fftn", "rfftn")
    ufunc, fct = ((pocketfft.fft, 1.0) if forward
                  else (pocketfft.ifft, 1 / math.prod(a.shape[axis] for axis in axes)))
    if name in ("fftn", "ifftn") and len(axes) == 1:
        if axes[0] not in (-1, a.ndim - 1):
            ufunc = partial(ufunc, axes=[axes[:1], (), axes[:1]])
        return lambda x, out=None: ufunc(x, fct, out=np.empty(x.shape, complex) if out is None else out)

    def passes(x, out, axes, fct):
        for axis in axes:
            x = ufunc(x, fct, axes=[(axis,), (), (axis,)], out=out)
            fct = 1.0
        return x

    if name in ("fftn", "ifftn"):
        return lambda x, out=None: passes(x, np.empty(x.shape, complex) if out is None else out,
                                          axes, fct)
    n, lead = a.shape[axes[-1]], axes[:-1]
    if not forward:
        return lambda x, out=None: pocketfft.irfft(
            passes(x, np.empty_like(x) if out is None else out, lead, 1.0), fct,
            out=np.empty((*x.shape[:-1], n)))
    rfft = pocketfft.rfft_n_even if n % 2 == 0 else pocketfft.rfft_n_odd

    def real_forward(x, out=None):
        half = rfft(x, 1.0, out=np.empty((*x.shape[:-1], n // 2 + 1), complex))
        return passes(half, half, lead, 1.0)
    return real_forward


def to_momentum(psi: Wavefunction) -> MomentumAmplitudes:
    """Forward transform with the (2*pi)^(-dim/2) * dx^dim scaling."""
    grid = psi.grid
    scale = grid.cell_volume / TWO_PI ** (grid.dim / 2.0)
    spec = _dft("fftn", psi.amps, tuple(range(grid.dim)))(psi.amps)
    return MomentumAmplitudes(grid, spec * (scale * _origin_phase(grid)))


def from_momentum(phi: MomentumAmplitudes) -> Wavefunction:
    """Inverse of :func:`to_momentum`; round trips to machine precision."""
    grid = phi.grid
    scale = grid.cell_volume / TWO_PI ** (grid.dim / 2.0)
    amps = phi.amps * np.conj(_origin_phase(grid)) / scale
    amps = _dft("ifftn", amps, tuple(range(grid.dim)))(amps, out=amps)
    return Wavefunction(grid, amps)


def momentum_density_norm(phi: MomentumAmplitudes) -> float:
    """sum |Phi_m|^2 dk^dim, the k-space side of the Parseval identity."""
    return float(np.sum(np.abs(phi.amps) ** 2).real * phi.grid.k_cell_volume)
