"""Split-step propagation, dense propagators, evolution operators, spectra."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from spectralqm import (
    DiagonalReal,
    ScaledIdentity,
    Trajectory,
    dense_propagator,
    evolution_operator,
    expectation,
    extract_generator,
    gaussian_packet,
    hamiltonian,
    make_grid,
    position_op,
    spectrum,
    split_step,
    to_dense,
    unitarity_defect,
)
from spectralqm.grids import norm_squared


@pytest.fixture(scope="module")
def free_grid():
    # wide box so the spreading packet never feels the periodic boundary
    return make_grid(1, 256, 64.0, -32.0)


def test_free_packet_drift(free_grid):
    psi0 = gaussian_packet(free_grid, -5.0, 2.0, 1.0)
    zeros = np.zeros(free_grid.shape)
    traj = split_step(psi0, zeros, 1.0, 1.0, 1e-3, 5000, 100,
                      force_samples=[zeros], store_states=False)
    expected = -5.0 + 2.0 * traj.times
    assert np.max(np.abs(traj.x_mean[:, 0] - expected)) < 1e-8


def test_free_packet_width_growth(free_grid):
    sigma0 = 1.0
    psi0 = gaussian_packet(free_grid, -5.0, 2.0, sigma0)
    zeros = np.zeros(free_grid.shape)
    traj = split_step(psi0, zeros, 1.0, 1.0, 1e-3, 5000, 5000, force_samples=[zeros])
    final = traj.states[-1]
    x = free_grid.meshes[0]
    x2 = expectation(DiagonalReal(free_grid, x**2, "x2"), final)
    xm = expectation(position_op(free_grid), final)
    t = traj.times[-1]
    expected_var = sigma0**2 + (t / (2 * sigma0)) ** 2
    assert abs((x2 - xm**2) - expected_var) < 1e-6


def test_free_packet_momentum_constant(free_grid):
    psi0 = gaussian_packet(free_grid, -5.0, 2.0, 1.0)
    zeros = np.zeros(free_grid.shape)
    traj = split_step(psi0, zeros, 1.0, 1.0, 1e-3, 2000, 100, force_samples=[zeros],
                      store_states=False)
    assert np.max(np.abs(traj.p_mean[:, 0] - 2.0)) < 1e-10


@pytest.fixture(scope="module")
def harmonic_setup():
    grid = make_grid(1, 256, 20.0, -10.0)
    x = grid.axis_points(0)
    return grid, 0.5 * x**2, -x


def test_harmonic_coherent_oscillation(harmonic_setup):
    grid, u, force = harmonic_setup
    psi0 = gaussian_packet(grid, 1.0, 0.0, np.sqrt(0.5))
    traj = split_step(psi0, u, 1.0, 1.0, 1e-3, 6290, 10, force_samples=[force],
                      store_states=False)
    assert np.max(np.abs(traj.x_mean[:, 0] - np.cos(traj.times))) < 1e-4


def test_norm_conserved_over_1e4_steps(harmonic_setup):
    grid, u, force = harmonic_setup
    psi0 = gaussian_packet(grid, 1.0, 0.0, np.sqrt(0.5))
    traj = split_step(psi0, u, 1.0, 1.0, 1e-3, 10000, 500, force_samples=[force],
                      store_states=False)
    assert np.max(np.abs(traj.norm - 1.0)) < 1e-12


def test_energy_conserved(harmonic_setup):
    # the mean energy wobbles at O(dt^2) around its exact constant value
    grid, u, force = harmonic_setup
    psi0 = gaussian_packet(grid, 1.0, 0.0, 1.0)
    traj = split_step(psi0, u, 1.0, 1.0, 1e-3, 2000, 100, force_samples=[force],
                      store_states=False)
    e0 = traj.energy[0]
    assert np.max(np.abs(traj.energy - e0)) / abs(e0) < 1e-6
    fine = split_step(psi0, u, 1.0, 1.0, 1e-4, 2000, 100, force_samples=[force],
                      store_states=False)
    assert np.max(np.abs(fine.energy - fine.energy[0])) / abs(fine.energy[0]) < 1e-8


def test_split_step_rejects_bad_arguments(harmonic_setup):
    grid, u, force = harmonic_setup
    psi0 = gaussian_packet(grid, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        split_step(psi0, u, 1.0, 1.0, -1e-3, 10)
    with pytest.raises(ValueError):
        split_step(psi0, u, 1.0, 1.0, 1e-3, 0)


def test_split_step_convergence_order(harmonic_setup):
    # halving dt cuts the terminal error ~4x (second-order Strang splitting)
    grid, u, _ = harmonic_setup
    psi0 = gaussian_packet(grid, 1.0, 0.5, 0.8)

    def terminal(steps):
        return split_step(psi0, u, 1.0, 1.0, 1.0 / steps, steps, steps).states[-1].amps

    ref = terminal(1600)
    scale = np.sqrt(grid.cell_volume)
    e1 = np.linalg.norm(terminal(100) - ref) * scale
    e2 = np.linalg.norm(terminal(200) - ref) * scale
    assert 3.5 < e1 / e2 < 4.5


def plain_strang(psi0, u, mass, hbar, dt, steps):
    """Unfused Strang loop (half-kick, drift, half-kick); yields every state from t=0."""
    k2 = sum(k**2 for k in psi0.grid.k_meshes)
    half_kick = np.exp(-1j * u * dt / (2.0 * hbar))
    drift = np.exp(-1j * hbar * k2 * dt / (2.0 * mass))
    amps = psi0.amps.astype(complex)
    yield amps
    for _ in range(steps):
        amps = half_kick * np.fft.ifftn(drift * np.fft.fftn(half_kick * amps))
        yield amps


@pytest.mark.parametrize("record_every", [1, 7, 60])
def test_split_step_matches_plain_strang_loop(harmonic_setup, record_every):
    # merged kicks are split again at record points and at the last step
    grid, u, force = harmonic_setup
    psi0 = gaussian_packet(grid, 1.0, 0.5, 0.8, mass=2.0)
    dt, steps = 1e-2, 60
    reference = list(plain_strang(psi0, u, 2.0, 1.0, dt, steps))
    traj = split_step(psi0, u, 2.0, 1.0, dt, steps, record_every, force_samples=[force])
    assert len(traj.states) == steps // record_every + 1
    for t, state in zip(traj.times, traj.states):
        assert np.max(np.abs(state.amps - reference[round(t / dt)])) <= 1e-12
    final = split_step(psi0, u, 2.0, 1.0, dt, steps, record_every, force_samples=[force],
                       store_states=False).states[-1]
    assert np.max(np.abs(final.amps - reference[-1])) <= 1e-12


def test_split_step_leaves_inputs_unchanged(harmonic_setup):
    grid, u, force = harmonic_setup
    psi0 = gaussian_packet(grid, 1.0, 0.5, 0.8)
    amps0, u0 = psi0.amps.copy(), u.copy()
    traj = split_step(psi0, u, 1.0, 1.0, 1e-3, 20, 5, force_samples=[force])
    stored = [state.amps.copy() for state in traj.states]
    split_step(psi0, u, 1.0, 1.0, 1e-3, 20, 5, force_samples=[force], store_states=False)
    assert np.array_equal(psi0.amps, amps0)
    assert np.array_equal(u, u0)
    assert np.array_equal(stored[0], amps0)
    assert all(np.array_equal(state.amps, kept) for state, kept in zip(traj.states, stored))


def test_trajectory_validates_times():
    grid = make_grid(1, 16, 4.0, 0.0)
    psi = gaussian_packet(grid, 2.0, 0.0, 0.3)
    with pytest.raises(ValueError):
        Trajectory(
            times=np.array([0.0, 0.0]),
            states=(psi, psi),
            norm=np.ones(2),
            x_mean=np.zeros((2, 1)),
            p_mean=np.zeros((2, 1)),
            u_mean=np.zeros(2),
            f_mean=np.zeros((2, 1)),
            energy=np.zeros(2),
        )


# ---------------------------------------------------------------------------
# dense propagators
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dense_h():
    grid = make_grid(1, 64, 16.0, -8.0)
    x = grid.axis_points(0)
    return grid, to_dense(hamiltonian(grid, 0.5 * x**2))


def test_dense_propagator_zero_time(dense_h):
    grid, h = dense_h
    u = dense_propagator(h, 0.0)
    assert np.max(np.abs(u.matrix - np.eye(grid.size))) < 1e-14


def test_dense_propagator_global_phase(dense_h):
    grid, _ = dense_h
    e0 = 1.7
    h = to_dense(ScaledIdentity(e0), grid)
    u = dense_propagator(h, 0.5)
    expected = np.exp(-1j * e0 * 0.5) * np.eye(grid.size)
    assert np.max(np.abs(u.matrix - expected)) < 1e-12


def test_dense_propagator_eigenvector_phase(dense_h):
    grid, h = dense_h
    evals, vecs = sla.eigh(h.matrix)
    u = dense_propagator(h, 0.37)
    v = vecs[:, 5]
    expected = np.exp(-1j * evals[5] * 0.37) * v
    assert np.linalg.norm(u.matrix @ v - expected) < 1e-10


def test_dense_propagator_unitary(dense_h):
    _, h = dense_h
    assert unitarity_defect(dense_propagator(h, 2.0).matrix) < 1e-9


def test_dense_propagator_rejects_non_hermitian(dense_h):
    grid, h = dense_h
    bad = h.matrix.copy()
    bad[0, 1] += 1.0
    from spectralqm import DenseOperator

    with pytest.raises(ValueError, match="Hermitian"):
        dense_propagator(DenseOperator(bad, grid), 1.0)


def test_dense_propagator_matches_split_step(dense_h):
    grid, h = dense_h
    x = grid.axis_points(0)
    u_samples = 0.5 * x**2
    psi0 = gaussian_packet(grid, 1.0, 0.0, 1.0)
    dt, steps = 1e-2, 100
    exact = dense_propagator(h, dt * steps).matrix @ psi0.amps
    stepped = split_step(psi0, u_samples, 1.0, 1.0, dt, steps, steps).states[-1].amps
    diff = np.linalg.norm(exact - stepped) * np.sqrt(grid.cell_volume)
    assert diff < 10 * dt**2


def test_antihermitian_generator_of_dynamics(dense_h):
    # A = H/(i hbar) is anti-Hermitian and exp(A t) is unitary
    _, h = dense_h
    a = h.matrix / 1j
    assert np.linalg.norm(a + a.conj().T) / np.linalg.norm(a) < 1e-12
    assert unitarity_defect(sla.expm(a * 0.3)) < 1e-9


# ---------------------------------------------------------------------------
# evolution operator and generator extraction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def driven_system():
    grid = make_grid(1, 16, 8.0, -4.0)
    x = grid.axis_points(0)
    h0 = to_dense(hamiltonian(grid, 0.5 * x**2)).matrix
    x_diag = np.diag(x).astype(complex)
    return grid, h0, (lambda t: h0 + 0.1 * np.sin(t) * x_diag)


def test_evolution_operator_zero_interval(driven_system):
    grid, h0, _ = driven_system
    u = evolution_operator(lambda t: h0, 1.0, 1.0, 4, grid=grid)
    assert np.max(np.abs(u.matrix - np.eye(grid.size))) == 0.0


def test_evolution_operator_composition(driven_system):
    grid, h0, _ = driven_system
    const = lambda t: h0
    u02 = evolution_operator(const, 0.0, 2.0, 32, grid=grid)
    u01 = evolution_operator(const, 0.0, 1.0, 16, grid=grid)
    u12 = evolution_operator(const, 1.0, 2.0, 16, grid=grid)
    assert np.linalg.norm(u02.matrix - (u12 @ u01).matrix) < 1e-10


def test_evolution_operator_inverse(driven_system):
    grid, _, h_of_t = driven_system
    forward = evolution_operator(h_of_t, 0.0, 1.5, 64, grid=grid)
    backward = evolution_operator(h_of_t, 1.5, 0.0, 64, grid=grid)
    assert np.linalg.norm(forward.matrix @ backward.matrix - np.eye(grid.size)) < 1e-9


def test_evolution_operator_composition_mismatch(driven_system):
    grid, h0, _ = driven_system
    const = lambda t: h0
    u01 = evolution_operator(const, 0.0, 1.0, 8, grid=grid)
    u23 = evolution_operator(const, 2.0, 3.0, 8, grid=grid)
    with pytest.raises(ValueError):
        _ = u23 @ u01


def test_extract_generator_constant(driven_system):
    grid, h0, _ = driven_system
    b = extract_generator(lambda t: h0, t=1.0, delta=1e-4, n_slices=16, grid=grid)
    assert np.linalg.norm(b.matrix - h0) / np.linalg.norm(h0) < 1e-6


def test_extract_generator_driven(driven_system):
    grid, _, h_of_t = driven_system
    t_probe = 1.0
    b = extract_generator(h_of_t, t=t_probe, delta=1e-4, n_slices=256, grid=grid)
    target = h_of_t(t_probe)
    assert np.linalg.norm(b.matrix - target) / np.linalg.norm(target) < 1e-4


def test_extract_generator_hermitian(driven_system):
    grid, _, h_of_t = driven_system
    b = extract_generator(h_of_t, t=1.0, delta=1e-4, n_slices=64, grid=grid)
    from spectralqm import hermiticity_defect

    assert hermiticity_defect(b.matrix) < 1e-6


def test_extract_generator_validates_delta(driven_system):
    grid, h0, _ = driven_system
    with pytest.raises(ValueError):
        extract_generator(lambda t: h0, t=1.0, delta=-1.0, grid=grid)
    with pytest.raises(ValueError):
        extract_generator(lambda t: h0, t=0.0, delta=1e-4, grid=grid)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_harmonic_spectrum():
    grid = make_grid(1, 256, 20.0, -10.0)
    x = grid.axis_points(0)
    pairs = spectrum(to_dense(hamiltonian(grid, 0.5 * x**2)), 5)
    for k, (energy, state) in enumerate(pairs):
        assert abs(energy - (k + 0.5)) < 1e-6
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-10)
    energies = [e for e, _ in pairs]
    assert energies == sorted(energies)


def test_free_spectrum_lowest_level_is_zero():
    grid = make_grid(1, 128, 20.0, -10.0)
    pairs = spectrum(to_dense(hamiltonian(grid, np.zeros(grid.shape))), 1)
    assert abs(pairs[0][0]) < 1e-10


def test_spectrum_states_orthogonal():
    grid = make_grid(1, 128, 20.0, -10.0)
    x = grid.axis_points(0)
    pairs = spectrum(to_dense(hamiltonian(grid, 0.5 * x**2)), 4)
    from spectralqm import inner

    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(inner(pairs[i][1], pairs[j][1])) < 1e-10


def test_spectrum_rejects_too_many_levels():
    grid = make_grid(1, 16, 8.0, -4.0)
    h = to_dense(hamiltonian(grid, np.zeros(grid.shape)))
    for n_levels in (17, 0, -1):
        with pytest.raises(ValueError, match="n_levels"):
            spectrum(h, n_levels)
    # the level count is checked before the costlier Hermiticity test
    skew = dataclasses.replace(h, matrix=h.matrix + np.triu(h.matrix, 1))
    with pytest.raises(ValueError, match="n_levels"):
        spectrum(skew, 0)
    with pytest.raises(ValueError, match="Hermitian"):
        spectrum(skew, 1)
