"""Grids, wavefunctions, inner products, and the transform pair."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.integrate import quad

from spectralqm import (
    MomentumAmplitudes,
    Wavefunction,
    expectation,
    from_momentum,
    gaussian_packet,
    inner,
    kinetic_op,
    make_grid,
    momentum_op,
    normalize,
    norm_squared,
    plane_wave,
    position_op,
    random_state,
    split_step,
    to_momentum,
)
from spectralqm.grids import _dft, momentum_density_norm


def test_grid_1d_spacing_and_wavenumber_order():
    grid = make_grid(1, 8, 16.0, -8.0)
    assert grid.spacing == (2.0,)
    assert grid.length[0] == grid.n[0] * grid.spacing[0]
    k = grid.axis_wavenumbers(0)
    expected = np.array([0, 1, 2, 3, -4, -3, -2, -1]) * (2 * np.pi / 16.0)
    np.testing.assert_allclose(k, expected, atol=1e-15)


def test_grid_wavenumber_spacing():
    grid = make_grid(1, 8, 8.0, 0.0)
    assert grid.k_spacing[0] == pytest.approx(2 * np.pi / 8.0, abs=1e-15)
    assert len(grid.axis_wavenumbers(0)) == grid.n[0]


def test_grid_2d_point_count():
    grid = make_grid(2, 4, 4.0, 0.0)
    assert grid.size == 16
    assert grid.spacing == (1.0, 1.0)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_grid(1, 12, 10.0, 0.0)  # not a power of two
    with pytest.raises(ValueError):
        make_grid(1, 2, 10.0, 0.0)  # too small
    with pytest.raises(ValueError):
        make_grid(1, 8, -1.0, 0.0)
    with pytest.raises(ValueError):
        make_grid(3, 8, 10.0, 0.0)
    with pytest.raises(ValueError):
        make_grid(2, (8, 8, 8), 10.0, 0.0)


def test_derivative_wavenumbers_zero_nyquist():
    grid = make_grid(1, 16, 16.0, 0.0)
    k = grid.axis_derivative_wavenumbers(0)
    assert k[8] == 0.0
    assert k[1] == pytest.approx(2 * np.pi / 16.0)


@pytest.fixture
def wide_grid():
    return make_grid(1, 256, 40.0, -20.0)


def test_gaussian_packet_centered_moments(wide_grid):
    psi = gaussian_packet(wide_grid, 0.0, 0.0, 1.0)
    assert norm_squared(psi) == pytest.approx(1.0, abs=1e-12)
    x_mean = float(np.sum(wide_grid.meshes[0] * np.abs(psi.amps) ** 2) * wide_grid.cell_volume)
    assert x_mean == pytest.approx(0.0, abs=1e-12)
    assert expectation(momentum_op(wide_grid), psi) == pytest.approx(0.0, abs=1e-10)


def test_gaussian_packet_momentum(wide_grid):
    psi = gaussian_packet(wide_grid, 0.0, 2.0, 1.0)
    assert expectation(momentum_op(wide_grid), psi) == pytest.approx(2.0, abs=1e-10)


def test_gaussian_kinetic_energy_against_quadrature_oracle(wide_grid):
    # independent oracle: continuum integral (1/2m) int |psi'(x)|^2 dx for
    # psi ~ exp(-x^2/(4 s^2) + i p0 x), evaluated by adaptive quadrature
    p0, sigma = 2.0, 1.0
    norm_c = (2 * np.pi * sigma**2) ** -0.25

    def dpsi_abs2(x):
        env = norm_c * np.exp(-(x**2) / (4 * sigma**2))
        d_env = env * (-x / (2 * sigma**2))
        return d_env**2 + (p0 * env) ** 2

    oracle, err = quad(dpsi_abs2, -15 * sigma, 15 * sigma)
    oracle *= 0.5
    assert err < 1e-10
    assert oracle == pytest.approx(p0**2 / 2 + 1.0 / (8 * sigma**2), abs=1e-10)  # = 2.125
    psi = gaussian_packet(wide_grid, 0.0, p0, sigma)
    assert expectation(kinetic_op(wide_grid), psi) == pytest.approx(oracle, abs=1e-8)


def test_gaussian_packet_rejects_bad_sigma(wide_grid):
    with pytest.raises(ValueError):
        gaussian_packet(wide_grid, 0.0, 0.0, -1.0)


def test_gaussian_packet_warns_near_boundary(wide_grid):
    with pytest.warns(UserWarning):
        gaussian_packet(wide_grid, 18.0, 0.0, 1.0)


def test_gaussian_packet_warns_when_its_5_sigma_support_leaves_the_box(wide_grid):
    # x0 + 5 sigma = 20.5 lies past the edge at 20, x0 + 4 sigma = 19.5 inside it, so the
    # mutant that warns at 4 sigma in place of 5 stays silent here
    with pytest.warns(UserWarning, match="5 sigma"):
        gaussian_packet(wide_grid, 15.5, 0.0, 1.0)
    with pytest.warns(UserWarning, match="5 sigma"):
        gaussian_packet(wide_grid, -15.5, 0.0, 1.0)


def _full_mesh_packet(grid, x0s, p0s, sigmas, hbar):
    """The packet formed on the full coordinate meshes, as before its per-axis form."""
    meshes = grid.meshes
    envelope = sum(-(x - c) ** 2 / (4.0 * np.float64(s) ** 2)
                   for x, c, s in zip(meshes, x0s, sigmas))
    phase = sum(p * x / hbar for x, p in zip(meshes, p0s))
    return normalize(Wavefunction(grid, np.exp(envelope + 1j * phase))).amps


@pytest.mark.parametrize("grid, x0, p0, sigma, hbar", [
    # 64x32 with p0 on both axes; each x0 is a grid point, so an envelope term is exactly 0
    (make_grid(2, [64, 32], [8.0, 4.0], [-4.0, -2.0]), [0.5, -0.25], [3.0, -1.5], [0.6, 0.3], 0.8),
    # the 1-D well grid and packet of `evolve` and the verify groups
    (make_grid(1, 256, 20.0, -10.0), [1.0], [0.0], [1.0], 1.0),
    (make_grid(1, 256, 20.0, -10.0), [-0.3], [2.5], [0.6], 1.0),
], ids=["2d-64x32", "1d-well", "1d-moving"])
def test_gaussian_packet_keeps_the_bits_of_the_full_mesh_formula(grid, x0, p0, sigma, hbar):
    got = gaussian_packet(grid, x0, p0, sigma, hbar).amps
    assert np.array_equal(got, _full_mesh_packet(grid, x0, p0, sigma, hbar))


def test_gaussian_packet_normalizes_in_place_with_the_bits_of_normalize():
    # the two-slit packet; normalize divided into a second array, a peak of two grid arrays
    grid = make_grid(2, [512, 512], [0.42, 1.0], [-0.21, -0.5])
    x0s, p0s, sigmas, hbar = [-0.115, 0.0], [1072.0, 0.0], [0.018, 0.02], 1.0
    raw = sum(-(x - c) ** 2 / (4.0 * np.float64(s) ** 2) + 1j * (p * x / hbar)
              for x, c, s, p in zip(np.ix_(*map(grid.axis_points, range(2))), x0s, sigmas, p0s))
    np.exp(raw, out=raw)
    want = normalize(Wavefunction(grid, raw)).amps
    tracemalloc.start()
    try:
        got = gaussian_packet(grid, x0s, p0s, sigmas, hbar).amps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    # the packet and its real |amps|^2, plus 64 KiB for the per-axis exponents
    assert peak <= 1.5 * got.nbytes + 2**16
    with pytest.warns(UserWarning), pytest.raises(ValueError, match="zero wavefunction"):
        gaussian_packet(grid, [1e308, 0.0], p0s, sigmas, hbar)


def test_plane_wave_and_kinetic_samples_keep_the_bits_of_the_full_mesh_formula():
    grid = make_grid(2, [64, 32], [8.0, 4.0], [-4.0, -2.0])
    phase = np.zeros(grid.shape)
    for m, x, length in zip((5, -3), grid.meshes, grid.length):
        phase = phase + 2 * np.pi * m / length * x
    want = (np.exp(1j * phase) / np.sqrt(np.prod(grid.length))).astype(complex)
    assert np.array_equal(plane_wave(grid, (5, -3)).amps, want)
    hbar, mass = 0.7, 1.9
    want = np.float64(hbar) ** 2 * sum(k**2 for k in grid.k_meshes) / (2.0 * mass)
    assert np.array_equal(kinetic_op(grid, mass, hbar).samples, want)


@pytest.mark.parametrize("origin, x0", [(-2.0, [1e308, 0.0]), (-1e300, [0.0, 0.0])],
                         ids=["x0-1e308", "origin-minus-1e300"])
def test_an_overflowing_2d_packet_is_refused(origin, x0):
    # (x - x0)^2 overflows on every sample, so each amplitude is exp(-inf) = 0: normalize
    # refuses the zero state rather than dividing it into NaN
    grid = make_grid(2, [16, 8], 4.0, origin)
    with pytest.warns(UserWarning), pytest.raises(ValueError, match="zero wavefunction"):
        gaussian_packet(grid, x0, 0.0, 1.0)


def test_plane_wave_momentum():
    grid = make_grid(1, 16, 16.0, 0.0)
    assert expectation(momentum_op(grid), plane_wave(grid, 4)) == pytest.approx(np.pi / 2, abs=1e-12)
    assert expectation(momentum_op(grid), plane_wave(grid, 0)) == pytest.approx(0.0, abs=1e-12)
    assert expectation(momentum_op(grid), plane_wave(grid, -4)) == pytest.approx(-np.pi / 2, abs=1e-12)
    assert norm_squared(plane_wave(grid, 3)) == pytest.approx(1.0, abs=1e-12)


def test_plane_wave_rejects_out_of_range():
    grid = make_grid(1, 16, 16.0, 0.0)
    with pytest.raises(ValueError):
        plane_wave(grid, 8)
    with pytest.raises(ValueError):
        plane_wave(grid, -9)


def test_inner_product_properties(wide_grid):
    psi = gaussian_packet(wide_grid, 0.0, 1.0, 1.0)
    assert inner(psi, psi) == pytest.approx(1.0, abs=1e-12)
    scaled = psi.with_amps(1j * psi.amps)
    assert inner(psi, scaled) == pytest.approx(1j, abs=1e-12)
    phi = gaussian_packet(wide_grid, 1.0, -0.5, 1.5)
    assert inner(psi, phi) == pytest.approx(np.conj(inner(phi, psi)), abs=1e-14)


def test_inner_orthogonal_plane_waves():
    grid = make_grid(1, 16, 16.0, 0.0)
    val = inner(plane_wave(grid, 1), plane_wave(grid, 2))
    assert abs(val) < 1e-12


def test_inner_rejects_grid_mismatch(wide_grid):
    other = make_grid(1, 128, 40.0, -20.0)
    with pytest.raises(ValueError):
        inner(gaussian_packet(wide_grid, 0, 0, 1.0), gaussian_packet(other, 0, 0, 1.0))


def test_transform_round_trip_and_parseval(wide_grid):
    rng = np.random.default_rng(11)
    for _ in range(20):
        psi = random_state(wide_grid, rng)
        phi = to_momentum(psi)
        assert abs(momentum_density_norm(phi) - norm_squared(psi)) < 1e-12
        back = from_momentum(phi)
        assert np.max(np.abs(back.amps - psi.amps)) < 1e-12


def test_parseval_many_random_states():
    grid = make_grid(1, 64, 10.0, -5.0)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        psi = random_state(grid, rng)
        worst = max(worst, abs(momentum_density_norm(to_momentum(psi)) - 1.0))
    assert worst < 1e-12


def test_transform_round_trip_2d():
    grid = make_grid(2, 32, (3.0, 5.0), (-1.5, -2.5))
    rng = np.random.default_rng(2)
    psi = random_state(grid, rng)
    phi = to_momentum(psi)
    assert abs(momentum_density_norm(phi) - 1.0) < 1e-12
    assert np.max(np.abs(from_momentum(phi).amps - psi.amps)) < 1e-12


def test_transform_linearity(wide_grid):
    rng = np.random.default_rng(3)
    psi, phi = random_state(wide_grid, rng), random_state(wide_grid, rng)
    a, b = 0.3 - 0.7j, 1.2 + 0.1j
    combo = psi.with_amps(a * psi.amps + b * phi.amps)
    lhs = to_momentum(combo).amps
    rhs = a * to_momentum(psi).amps + b * to_momentum(phi).amps
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_plane_wave_transform_concentrated():
    grid = make_grid(1, 64, 16.0, 0.0)
    phi = to_momentum(plane_wave(grid, 4))
    density = np.abs(phi.amps) ** 2 * grid.k_cell_volume
    assert density[4] == pytest.approx(1.0, abs=1e-12)
    off = np.delete(density, 4)
    assert np.max(off) < 1e-24


def test_gaussian_transform_width(wide_grid):
    # |Phi(k)|^2 is Gaussian with k-standard deviation 1/(2 sigma)
    sigma = 1.0
    phi = to_momentum(gaussian_packet(wide_grid, 0.0, 0.0, sigma))
    k = wide_grid.axis_wavenumbers(0)
    w = np.abs(phi.amps) ** 2
    k_var = float(np.sum(k**2 * w) / np.sum(w))
    assert np.sqrt(k_var) == pytest.approx(1.0 / (2 * sigma), rel=0.02)


def test_normalize_idempotent(wide_grid):
    rng = np.random.default_rng(9)
    psi = Wavefunction(wide_grid, rng.standard_normal(wide_grid.shape) + 0.5j)
    once = normalize(psi)
    twice = normalize(once)
    assert np.max(np.abs(twice.amps - once.amps)) < 1e-14


def test_normalize_scaling_invariance(wide_grid):
    # alpha * psi renormalized gives back the same physical state
    psi = gaussian_packet(wide_grid, 1.0, 0.5, 1.0)
    rescaled = normalize(psi.with_amps(3.7 * psi.amps))
    assert np.max(np.abs(rescaled.amps - psi.amps)) < 1e-12


def test_wavefunction_shape_mismatch_rejected(wide_grid):
    with pytest.raises(ValueError):
        Wavefunction(wide_grid, np.zeros(7, dtype=complex))


def test_states_hold_only_grid_and_amps(wide_grid):
    # hbar reaches a packet only through its wavenumber p0 / hbar
    psi = gaussian_packet(wide_grid, 0.0, 2.0, 1.0, hbar=2.0)
    assert np.array_equal(psi.amps, gaussian_packet(wide_grid, 0.0, 1.0, 1.0).amps)
    phi = to_momentum(psi)
    assert isinstance(phi, MomentumAmplitudes)
    for state in (psi, phi, from_momentum(phi)):
        assert [f.name for f in dataclasses.fields(state)] == ["grid", "amps"]


@pytest.mark.parametrize("hbar", [0.0, -1.0])
def test_gaussian_packet_refuses_a_nonpositive_hbar(wide_grid, hbar):
    with pytest.raises(ValueError, match="hbar must be positive"):
        gaussian_packet(wide_grid, 0.0, 1.0, 1.0, hbar=hbar)


def _small_grid(dim):
    return make_grid(dim, [16, 8][:dim], [8.0, 4.0][:dim], [-4.0, -2.0][:dim])


@pytest.mark.parametrize("dim", [1, 2])
def test_a_grid_keeps_no_arrays(dim):
    # a grid is its four fields: reading its arrays or building operators on it stores nothing
    g = _small_grid(dim)
    for name in dir(g):
        if not name.startswith("_"):
            getattr(g, name)
    kinetic_op(g), momentum_op(g), position_op(g)
    assert set(vars(g)) == {"dim", "n", "length", "origin"}


@pytest.mark.parametrize("dim", [1, 2])
def test_an_operator_shares_no_array_with_its_grid(dim):
    g = _small_grid(dim)
    position_op(g).samples[:] += 5.0
    np.testing.assert_array_equal(g.meshes[0].T, np.broadcast_to(g.axis_points(0), g.shape[::-1]))


def test_wavenumber_meshes_are_open():
    g = _small_grid(2)
    for meshes in (g.k_meshes, g.k_derivative_meshes):
        assert [k.shape for k in meshes] == [(16, 1), (1, 8)]
    np.testing.assert_array_equal(momentum_op(g, 1).samples,
                                  np.broadcast_to(g.axis_derivative_wavenumbers(1), g.shape))


# ---------------------------------------------------------------------------
# the transform entry point: numpy.fft's gufuncs
# ---------------------------------------------------------------------------


@pytest.fixture
def scipy_fft(monkeypatch):
    """scipy.fft's fftn, ifftn, rfftn and irfftn as oracles, and the calls made to them."""
    oracle, calls = {}, []
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        oracle[name] = real = getattr(sfft, name)

        def spy(x, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, x.shape))
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(sfft, name, spy)
    return oracle, calls


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_one_axis_complex_transforms_take_numpy_and_keep_scipys_bits(scipy_fft):
    oracle, calls = scipy_fft
    rng = np.random.default_rng(0)
    cases = [(_complex(rng, n), 0) for n in range(4, 4097)]
    cases.append((_complex(rng, (256, 256)), 1))  # a record block of 256-point states
    cases += [(_complex(rng, shape), axis) for shape in ((64, 33), (512, 257)) for axis in (0, 1)]
    for a, axis in cases:
        for name in ("fftn", "ifftn"):
            want = oracle[name](a, axes=(axis,))
            if (name, a.shape) == ("ifftn", (2731,)):
                # scipy scales this inverse by a 1/n one bit off numpy's; numpy's is taken
                assert not np.array_equal(want, np.fft.ifft(a))
                want = np.fft.ifft(a)
            assert np.array_equal(_dft(name, a, (axis,))(a), want), (name, a.shape, axis)
            b = a.copy()
            assert np.array_equal(_dft(name, b, (axis,))(b, out=b), want)
    assert calls == []


def _one_dimensional_runs():
    grid = make_grid(1, 256, 20.0, -10.0)
    psi = gaussian_packet(grid, 1.0, 0.5, 1.0)
    traj = split_step(psi, 0.5 * grid.meshes[0] ** 2, 1.0, 1.0, 1e-3, 50, record_every=5)
    return [traj.states[-1].amps, traj.energy, traj.p_mean,
            to_momentum(psi).amps, from_momentum(to_momentum(psi)).amps]


def test_one_axis_complex_transforms_bypass_numpys_fft_wrappers(monkeypatch):
    want = _one_dimensional_runs()

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.fft's Python wrapper was called")

    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    for got, expected in zip(_one_dimensional_runs(), want):
        assert np.array_equal(got, expected)


def test_one_axis_gufunc_calls_keep_numpys_bits():
    rng = np.random.default_rng(2)
    a = _complex(rng, 256)
    plane = _complex(rng, (64, 66))
    view = plane[:, ::2]  # axis 0 of a non-contiguous 2-D view
    for name, transform in (("fftn", np.fft.fft), ("ifftn", np.fft.ifft)):
        assert np.array_equal(_dft(name, a, (0,))(a), transform(a))
        b = a.copy()
        assert np.array_equal(_dft(name, b, (0,))(b, out=b), transform(a))
        assert not view.flags.c_contiguous
        assert np.array_equal(_dft(name, view, (0,))(view), transform(view, axis=0))
        c = plane.copy()[:, ::2]
        assert np.array_equal(_dft(name, c, (0,))(c, out=c), transform(view, axis=0))


def test_real_input_and_two_axes_take_numpy(scipy_fft):
    oracle, calls = scipy_fft
    rng = np.random.default_rng(1)
    real, plane = rng.standard_normal((3, 64, 32)), _complex(rng, (64, 32))
    for name, a, axes in (("fftn", real, (-1,)), ("fftn", real, (-2, -1)), ("rfftn", real, (-2, -1)),
                          ("fftn", plane, (0, 1)), ("ifftn", plane, (0, 1))):
        _dft(name, a, axes)(a)
    _dft("irfftn", real, (-2, -1))(oracle["rfftn"](real, axes=(-2, -1)))
    assert calls == []


# the shapes the program transforms over several axes or as real input: a 2-D
# state, the matrix-free spectrum's 128x128 well, a 512x257 plane, a block of
# 64x32 states, a 3-D grid of odd and even lengths, and a block of 1-D states
SCIPY_SHAPES = [((64, 32), (0, 1)), ((128, 128), (-2, -1)), ((512, 257), (0, 1)),
                ((6, 64, 32), (-2, -1)), ((8, 15, 12), (0, 1, 2)), ((3, 256), (-1,))]


@pytest.mark.parametrize("shape, axes", SCIPY_SHAPES)
def test_several_axes_and_real_input_keep_scipys_bits(scipy_fft, shape, axes):
    oracle = scipy_fft[0]
    rng = np.random.default_rng(4)
    a, real = _complex(rng, shape), rng.standard_normal(shape)
    for name in ("fftn", "ifftn"):
        want = oracle[name](a, axes=axes)
        assert np.array_equal(_dft(name, a, axes)(a), want), name
        b = a.copy()
        assert _dft(name, b, axes)(b, out=b) is b and np.array_equal(b, want), name
    # fftn of real input is fftn of that input cast to complex, the sign of each zero included
    full = _dft("fftn", real, axes)(real)
    want = oracle["fftn"](real.astype(complex), axes=axes)
    assert np.array_equal(full, want)
    assert np.array_equal(np.signbit(full.view(float)), np.signbit(want.view(float)))
    # real input to rfftn: numpy's r2c gufunc along the last axis
    half = oracle["rfftn"](real, axes=axes)
    assert np.array_equal(_dft("rfftn", real, axes)(real), half)
    want = oracle["irfftn"](half, s=[shape[axis] for axis in axes], axes=axes)
    assert np.array_equal(_dft("irfftn", real, axes)(half), want)
    assert np.array_equal(_dft("irfftn", real, axes)(half, out=half), want)
