"""Observable operators: expectations, dense forms, Hermiticity, commutators."""

import numpy as np
import pytest

from spectralqm import (
    DiagonalReal,
    OperatorSum,
    ScaledIdentity,
    apply,
    commutator,
    expectation,
    force_op,
    gaussian_packet,
    hamiltonian,
    hermiticity_defect,
    kinetic_op,
    make_grid,
    momentum_op,
    plane_wave,
    position_op,
    potential_op,
    random_state,
    to_dense,
)
from spectralqm.operators import spectral_gradient


@pytest.fixture
def grid():
    return make_grid(1, 256, 40.0, -20.0)


def test_position_expectation(grid):
    psi = gaussian_packet(grid, 1.5, 0.0, 1.0)
    assert expectation(position_op(grid), psi) == pytest.approx(1.5, abs=1e-10)
    psi = gaussian_packet(grid, -3.0, 0.0, 1.0)
    assert expectation(position_op(grid), psi) == pytest.approx(-3.0, abs=1e-10)


def test_position_plane_wave_expectation_is_grid_mean(grid):
    # uniform |psi|^2: the expectation is the mean of the sample points
    psi = plane_wave(grid, 3)
    mean_x = float(np.mean(grid.axis_points(0)))
    assert expectation(position_op(grid), psi) == pytest.approx(mean_x, abs=1e-10)


def test_momentum_eigenstate():
    grid = make_grid(1, 16, 16.0, 0.0)
    psi = plane_wave(grid, 3)
    out = apply(momentum_op(grid), psi)
    k3 = 3 * 2 * np.pi / 16.0
    assert np.max(np.abs(out.amps - k3 * psi.amps)) < 1e-12


def test_momentum_on_constant_state(grid):
    psi = plane_wave(grid, 0)
    out = apply(momentum_op(grid), psi)
    assert np.max(np.abs(out.amps)) < 1e-14


def test_momentum_gaussian(grid):
    psi = gaussian_packet(grid, 0.0, 2.0, 1.0)
    assert expectation(momentum_op(grid), psi) == pytest.approx(2.0, abs=1e-10)


def test_force_analytic_override(grid):
    x = grid.axis_points(0)
    op = force_op(grid, 0.5 * x**2, force_samples=-x)
    j = int(np.argmin(np.abs(x - 2.0)))
    assert op.samples[j] == pytest.approx(-x[j], abs=1e-12)


def test_force_spectral_on_harmonic_has_boundary_kink_error(grid):
    # the periodic extension of x^2/2 has a slope jump at the box edge, so
    # the spectral derivative carries an O(1/n) interior error; the analytic
    # override exists precisely for this case
    x = grid.axis_points(0)
    op = force_op(grid, 0.5 * x**2)
    j = int(np.argmin(np.abs(x - 2.0)))
    assert op.samples[j] == pytest.approx(-2.0, abs=0.1)
    assert abs(op.samples[j] + 2.0) > 1e-8


def test_force_constant_potential(grid):
    op = force_op(grid, np.full(grid.shape, 4.2))
    assert np.max(np.abs(op.samples)) < 1e-12


def test_force_single_harmonic_exact(grid):
    x = grid.axis_points(0)
    length = grid.length[0]
    u = np.cos(2 * np.pi * x / length)
    op = force_op(grid, u)
    expected = (2 * np.pi / length) * np.sin(2 * np.pi * x / length)
    assert np.max(np.abs(op.samples - expected)) < 1e-12


def test_spectral_gradient_band_limited(grid):
    x = grid.axis_points(0)
    f = np.sin(4 * np.pi * x / grid.length[0])
    df = spectral_gradient(grid, f)
    expected = (4 * np.pi / grid.length[0]) * np.cos(4 * np.pi * x / grid.length[0])
    assert np.max(np.abs(df - expected)) < 1e-12


def test_kinetic_plane_wave_energy():
    grid = make_grid(1, 64, 16.0, 0.0)
    m = 3
    psi = plane_wave(grid, m)
    k = 2 * np.pi * m / 16.0
    assert expectation(kinetic_op(grid), psi) == pytest.approx(k**2 / 2, abs=1e-10)


def test_kinetic_rejects_nonpositive_mass(grid):
    with pytest.raises(ValueError):
        kinetic_op(grid, mass=0.0)


def test_hamiltonian_free_gaussian(grid):
    psi = gaussian_packet(grid, 0.0, 0.0, 1.0)
    h = hamiltonian(grid, np.zeros(grid.shape))
    assert expectation(h, psi) == pytest.approx(0.125, abs=1e-8)


def test_expectation_additivity(grid):
    rng = np.random.default_rng(4)
    psi = random_state(grid, rng)
    a = position_op(grid)
    b = kinetic_op(grid)
    s = OperatorSum((a, b), label="x+T")
    assert expectation(s, psi) == pytest.approx(
        expectation(a, psi) + expectation(b, psi), abs=1e-12
    )


def test_scaled_identity_expectation(grid):
    psi = gaussian_packet(grid, 0.0, 1.0, 1.0)
    assert expectation(ScaledIdentity(1.0), psi) == pytest.approx(1.0, abs=1e-12)


def test_expectation_flags_non_hermitian(grid):
    psi = gaussian_packet(grid, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        expectation(ScaledIdentity(1j), psi)


def test_diagonal_rejects_complex_samples(grid):
    with pytest.raises(ValueError):
        DiagonalReal(grid, np.full(grid.shape, 1j))


def test_apply_rejects_grid_mismatch(grid):
    other = make_grid(1, 128, 40.0, -20.0)
    psi = gaussian_packet(other, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        apply(position_op(grid), psi)


@pytest.mark.parametrize("dim,n,length,origin", [
    (1, 64, 16.0, -8.0),
    (2, [8, 4], [8.0, 6.0], [-4.0, -3.0]),
], ids=["1d-64", "2d-8x4"])
def test_dense_matches_apply(dim, n, length, origin):
    grid = make_grid(dim, n, length, origin)
    rng = np.random.default_rng(8)
    psi = random_state(grid, rng)
    last = grid.dim - 1
    for op in (position_op(grid), position_op(grid, last), momentum_op(grid),
               momentum_op(grid, last), kinetic_op(grid),
               hamiltonian(grid, np.cos(grid.meshes[0]))):
        dense = to_dense(op)
        direct = apply(op, psi).amps.ravel()
        via_matrix = dense.matrix @ psi.amps.ravel()
        assert np.max(np.abs(direct - via_matrix)) < 1e-12
    dense = to_dense(ScaledIdentity(2.5), grid).matrix
    assert np.array_equal(dense, 2.5 * np.eye(grid.size))


def test_dense_diagonal_is_diagonal(grid):
    dense = to_dense(position_op(grid)).matrix
    off = dense - np.diag(np.diag(dense))
    assert np.max(np.abs(off)) == 0.0
    assert np.max(np.abs(np.diag(dense).imag)) == 0.0


def test_dense_momentum_hermitian():
    grid = make_grid(1, 128, 20.0, -10.0)
    m = to_dense(momentum_op(grid)).matrix
    assert np.linalg.norm(m - m.conj().T) < 1e-12


def test_dense_sum_is_sum_of_parts():
    grid = make_grid(1, 32, 8.0, -4.0)
    x = grid.axis_points(0)
    h = hamiltonian(grid, 0.5 * x**2)
    total = to_dense(h).matrix
    parts = sum(to_dense(p, grid).matrix for p in h.parts)
    assert np.max(np.abs(total - parts)) < 1e-14


def test_dense_size_guard():
    grid = make_grid(2, 128, 10.0, 0.0)  # 16384 points > 4096
    with pytest.raises(ValueError, match="dense limit"):
        to_dense(position_op(grid))


def test_all_observables_hermitian_up_to_n256(grid):
    x = grid.axis_points(0)
    ops = [
        position_op(grid),
        momentum_op(grid),
        potential_op(grid, np.cos(x)),
        force_op(grid, np.cos(x)),
        kinetic_op(grid),
        hamiltonian(grid, 0.5 * x**2),
    ]
    for op in ops:
        assert hermiticity_defect(to_dense(op)) < 1e-12


def test_commutator_with_itself_vanishes(grid):
    m = to_dense(kinetic_op(grid))
    c = commutator(m, m)
    assert np.max(np.abs(c.matrix)) == 0.0


def test_commutator_dimension_mismatch():
    g1 = make_grid(1, 16, 4.0, 0.0)
    g2 = make_grid(1, 32, 4.0, 0.0)
    with pytest.raises(ValueError):
        commutator(to_dense(position_op(g1)), to_dense(position_op(g2)))


def test_canonical_commutator_on_interior_state(grid):
    # [x, p] psi = i hbar psi for band-limited interior states
    x_d = to_dense(position_op(grid))
    p_d = to_dense(momentum_op(grid))
    psi = gaussian_packet(grid, 0.5, 1.0, 1.0)
    v = psi.amps
    resid = commutator(x_d, p_d).matrix @ v - 1j * v
    l2 = np.linalg.norm(resid) * np.sqrt(grid.cell_volume)
    assert l2 < 1e-6


@pytest.mark.parametrize("center,p0", [(-2.0, 0.0), (0.0, 1.0), (2.0, -1.0)])
def test_generator_equations_on_interior_states(grid, center, p0):
    # (i/hbar)[H,X] psi = (P/m) psi and (i/hbar)[H,P] psi = -U' psi with a
    # periodic-smooth potential, measured state-wise in L2
    x = grid.axis_points(0)
    length = grid.length[0]
    u = np.cos(2 * np.pi * x / length)
    du = -(2 * np.pi / length) * np.sin(2 * np.pi * x / length)
    h_d = to_dense(hamiltonian(grid, u)).matrix
    x_d = to_dense(position_op(grid)).matrix
    p_d = to_dense(momentum_op(grid)).matrix
    psi = gaussian_packet(grid, center, p0, 1.0)
    v = psi.amps
    sqrt_dv = np.sqrt(grid.cell_volume)
    r_x = np.linalg.norm(1j * (h_d @ (x_d @ v) - x_d @ (h_d @ v)) - p_d @ v) * sqrt_dv
    r_p = np.linalg.norm(1j * (h_d @ (p_d @ v) - p_d @ (h_d @ v)) + du * v) * sqrt_dv
    assert r_x < 1e-6
    assert r_p < 1e-6


def test_hermiticity_defect_detects_asymmetry():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert hermiticity_defect(m) > 0.5
    assert hermiticity_defect(np.eye(2, dtype=complex)) == 0.0
