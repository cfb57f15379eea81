"""The named check suite: positive cases, negative controls, determinism."""

import dataclasses

import numpy as np
import pytest

from spectralqm import (
    FieldConfiguration,
    VerifyConfig,
    check_antihermitian_exponential,
    check_commutant_uniqueness,
    check_commutator_system,
    check_ehrenfest_force,
    check_ehrenfest_velocity,
    check_field_energy_parseval,
    check_normalization,
    check_parseval_momentum,
    gaussian_packet,
    make_grid,
    momentum_op,
    plane_wave,
    random_state,
    run_all,
    split_step,
    to_dense,
)
from spectralqm import checks
from spectralqm.checks import (
    check_evolution_operator,
    check_gauge_shift,
    check_superposition,
    field_energy_spectrum,
    random_smooth_fields,
)
from spectralqm.operators import commutator, kinetic_op, momentum_op as p_op


@pytest.fixture(scope="module")
def harmonic():
    grid = make_grid(1, 256, 20.0, -10.0)
    x = grid.axis_points(0)
    return grid, 0.5 * x**2, -x


@pytest.fixture(scope="module")
def harmonic_trajectory(harmonic):
    grid, u, force = harmonic
    psi0 = gaussian_packet(grid, 1.0, 0.0, np.sqrt(0.5))
    return split_step(psi0, u, 1.0, 1.0, 1e-3, 3000, 10, force_samples=[force],
                      store_states=False)


def test_normalization_check_passes(harmonic_trajectory):
    report = check_normalization(harmonic_trajectory)
    assert report.passed
    assert report.residual < 1e-12


def test_normalization_initial_state_only(harmonic):
    grid, u, force = harmonic
    psi0 = gaussian_packet(grid, 1.0, 0.0, 1.0)
    traj = split_step(psi0, u, 1.0, 1.0, 1e-3, 1, 1, force_samples=[force])
    assert check_normalization(traj).residual < 1e-14


def test_normalization_negative_control(harmonic):
    grid, u, force = harmonic
    psi0 = gaussian_packet(grid, 1.0, 0.0, 1.0)
    unnormalized = psi0.with_amps(1.3 * psi0.amps)
    traj = split_step(unnormalized, u, 1.0, 1.0, 1e-3, 10, 10, force_samples=[force])
    report = check_normalization(traj)
    assert not report.passed


def test_parseval_momentum_gaussian(harmonic):
    grid, _, _ = harmonic
    psi = gaussian_packet(grid, 0.0, 2.0, 1.0)
    report = check_parseval_momentum(psi)
    assert report.passed and report.residual < 1e-10


def test_parseval_momentum_plane_wave():
    grid = make_grid(1, 64, 16.0, 0.0)
    psi = plane_wave(grid, 3)
    report = check_parseval_momentum(psi, tolerance=1e-12)
    assert report.passed
    # both routes must give exactly hbar k_3
    from spectralqm import expectation

    assert expectation(momentum_op(grid), psi) == pytest.approx(3 * 2 * np.pi / 16, abs=1e-12)


def test_parseval_momentum_random_states(harmonic):
    grid, _, _ = harmonic
    rng = np.random.default_rng(17)
    for _ in range(100):
        assert check_parseval_momentum(random_state(grid, rng)).residual < 1e-10


def test_ehrenfest_checks_on_harmonic(harmonic_trajectory):
    v = check_ehrenfest_velocity(harmonic_trajectory, tolerance=1e-5)
    f = check_ehrenfest_force(harmonic_trajectory, tolerance=1e-5)
    assert v.passed and f.passed


def test_ehrenfest_second_order_stencil_matches_h2_error_model(harmonic_trajectory):
    # 3-point differencing of <x> = cos(t) carries the h^2/6 truncation term;
    # with h = 1e-2 that is 1.67e-5, which the 4th-order stencil removes
    v2 = check_ehrenfest_velocity(harmonic_trajectory, tolerance=1.0, stencil=2)
    assert 1.2e-5 < v2.residual < 2.2e-5
    v4 = check_ehrenfest_velocity(harmonic_trajectory, tolerance=1.0, stencil=4)
    assert v4.residual < 1e-6


def test_ehrenfest_free_particle(harmonic):
    grid, _, _ = harmonic
    zeros = np.zeros(grid.shape)
    psi0 = gaussian_packet(grid, -2.0, 1.0, 1.0)
    traj = split_step(psi0, zeros, 1.0, 1.0, 1e-3, 200, 10, force_samples=[zeros],
                      store_states=False)
    f = check_ehrenfest_force(traj, tolerance=1e-12)
    assert f.passed
    assert np.max(np.abs(traj.p_mean[:, 0] - 1.0)) < 1e-10


def test_ehrenfest_quartic(harmonic):
    grid, _, _ = harmonic
    x = grid.axis_points(0)
    u = 0.25 * x**4
    psi0 = gaussian_packet(grid, 1.0, 0.0, 0.5)
    traj = split_step(psi0, u, 1.0, 1.0, 1e-3, 3000, 10, force_samples=[-(x**3)],
                      store_states=False)
    assert check_ehrenfest_velocity(traj, tolerance=1e-4).passed
    assert check_ehrenfest_force(traj, tolerance=1e-4).passed


def test_ehrenfest_requires_enough_records(harmonic):
    grid, u, force = harmonic
    psi0 = gaussian_packet(grid, 1.0, 0.0, 1.0)
    traj = split_step(psi0, u, 1.0, 1.0, 1e-3, 30, 10, force_samples=[force])
    with pytest.raises(ValueError, match="records"):
        check_ehrenfest_velocity(traj)  # 4 records < 5 needed for the stencil


# ---------------------------------------------------------------------------
# commutator system
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def commutator_states():
    grid = make_grid(1, 256, 40.0, -20.0)
    states = [
        gaussian_packet(grid, c, p, 1.0)
        for c, p in zip(np.linspace(-2, 2, 5), np.linspace(-1, 1, 5))
    ]
    return grid, states


def test_commutator_system_harmonic(commutator_states):
    grid, states = commutator_states
    x = grid.axis_points(0)
    report = check_commutator_system(grid, 0.5 * x**2, 1.0, 1.0, states,
                                     force_samples=-x)
    assert report.passed and report.residual < 1e-6


def test_commutator_system_free_kinetic_momentum_commute(commutator_states):
    # with U = 0 the momentum relation reduces to [T, P] = 0, exact in the
    # shared transform eigenbasis; the dense route keeps a small matmul
    # roundoff floor of order n*eps*|T|*|P| ~ 1e-12
    grid, states = commutator_states
    t_d = to_dense(kinetic_op(grid))
    p_d = to_dense(p_op(grid))
    c = commutator(t_d, p_d).matrix
    worst = max(
        np.linalg.norm(c @ s.amps) * np.sqrt(grid.cell_volume) for s in states
    )
    assert worst < 5e-12


def test_commutator_system_gauge_shift_invariant(commutator_states):
    grid, states = commutator_states
    x = grid.axis_points(0)
    base = check_commutator_system(grid, 0.5 * x**2, 1.0, 1.0, states, force_samples=-x)
    shifted = check_commutator_system(grid, 0.5 * x**2 + 4.2, 1.0, 1.0, states,
                                      force_samples=-x)
    assert abs(base.residual - shifted.residual) < 1e-10


# ---------------------------------------------------------------------------
# commutant uniqueness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [8, 16])
def test_commutant_is_scalars(n):
    report = check_commutant_uniqueness(n)
    assert report.passed
    assert report.residual < 1e-8
    assert f"nullity=1" in report.details


def test_commutant_x_only_negative_control():
    report = check_commutant_uniqueness(8, x_only=True)
    assert not report.passed
    assert "nullity=8" in report.details


def test_commutant_rejects_bad_size():
    with pytest.raises(ValueError):
        check_commutant_uniqueness(32)


# ---------------------------------------------------------------------------
# anti-Hermitian exponentials
# ---------------------------------------------------------------------------


def test_antihermitian_exponential_unitary():
    report = check_antihermitian_exponential(16, 100, seed=7)
    assert report.passed and report.residual < 1e-10


def test_zero_generator_gives_identity():
    import scipy.linalg as sla

    e = sla.expm(np.zeros((8, 8), dtype=complex))
    assert np.array_equal(e, np.eye(8))


def test_hermitian_negative_control():
    report = check_antihermitian_exponential(16, 10, seed=7, hermitian_control=True)
    assert not report.passed
    assert report.residual > 1.0


# ---------------------------------------------------------------------------
# field energy
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def field_grid():
    return make_grid(1, 256, 2 * np.pi, 0.0)


def test_field_energy_sine_case(field_grid):
    x = field_grid.axis_points(0)
    e = np.zeros((3, 256))
    h = np.zeros((3, 256))
    e[1] = np.sin(x)
    h[2] = np.sin(x)
    fields = FieldConfiguration(field_grid, e, h)
    report = check_field_energy_parseval(fields)
    assert report.passed
    dx = field_grid.cell_volume
    w_real = float(np.sum(e**2) + np.sum(h**2)) * dx / (8 * np.pi)
    assert w_real == pytest.approx(0.25, abs=1e-10)


def test_field_energy_zero_fields(field_grid):
    fields = FieldConfiguration(field_grid, np.zeros((3, 256)), np.zeros((3, 256)))
    report = check_field_energy_parseval(fields)
    assert report.passed and report.residual == 0.0


def test_field_energy_random_smooth(field_grid):
    rng = np.random.default_rng(23)
    for _ in range(50):
        report = check_field_energy_parseval(random_smooth_fields(field_grid, rng))
        assert report.residual < 1e-12


def test_field_energy_spectrum_single_harmonic(field_grid):
    x = field_grid.axis_points(0)
    e = np.zeros((3, 256))
    h = np.zeros((3, 256))
    e[1] = np.sin(x)
    h[2] = np.sin(x)
    k, per_harmonic = field_energy_spectrum(FieldConfiguration(field_grid, e, h))
    # all the energy sits in the k = +-1 bins, 1/8 each
    for ki, wi in zip(k, per_harmonic):
        if abs(abs(ki) - 1.0) < 1e-9:
            assert wi == pytest.approx(0.125, abs=1e-12)
        else:
            assert wi < 1e-24


def test_field_configuration_validates_shapes(field_grid):
    with pytest.raises(ValueError):
        FieldConfiguration(field_grid, np.zeros((2, 256)), np.zeros((3, 256)))
    grid2 = make_grid(2, 16, 4.0, 0.0)
    with pytest.raises(ValueError):
        FieldConfiguration(grid2, np.zeros((3, 16)), np.zeros((3, 16)))


# ---------------------------------------------------------------------------
# linearity, gauge, evolution laws
# ---------------------------------------------------------------------------


def test_superposition_check(harmonic):
    grid, u, _ = harmonic
    psi1 = gaussian_packet(grid, -1.5, 0.5, 1.0)
    psi2 = gaussian_packet(grid, 1.5, -0.5, 1.0)
    report = check_superposition(grid, u, psi1, psi2, 1e-3, 500)
    assert report.passed and report.residual < 1e-10


def test_gauge_shift_check(harmonic):
    grid, u, force = harmonic
    psi0 = gaussian_packet(grid, 1.0, 0.0, 1.0)
    report = check_gauge_shift(grid, u, psi0, 1e-3, 500, 10, force_samples=[force])
    assert report.passed and report.residual < 1e-10


def test_gauge_shift_sees_a_sign_flip(harmonic, monkeypatch):
    grid, u, force = harmonic
    psi0 = gaussian_packet(grid, 1.0, 0.5, 1.0)
    real_split_step = checks.split_step
    calls = []

    def flip_second_run(*args, **kwargs):
        trajectory = real_split_step(*args, **kwargs)
        calls.append(trajectory)
        if len(calls) == 2:
            # a mirrored run: every vector observable changes sign, so the
            # Ehrenfest residuals match and only the signed means differ
            trajectory = dataclasses.replace(
                trajectory, x_mean=-trajectory.x_mean, p_mean=-trajectory.p_mean,
                f_mean=-trajectory.f_mean)
        return trajectory

    monkeypatch.setattr(checks, "split_step", flip_second_run)
    report = check_gauge_shift(grid, u, psi0, 1e-3, 500, 10, force_samples=[force])
    assert len(calls) == 2
    assert not report.passed and report.residual > 1.0


EVOLUTION_REPORTS = {
    "evolution-unitarity", "evolution-composition", "evolution-inverse",
    "generator-constant", "generator-driven", "generator-hermiticity",
}


def test_evolution_operator_reports():
    reports = check_evolution_operator(16, length=8.0, n_slices=32)
    assert {r.name for r in reports} == EVOLUTION_REPORTS
    for r in reports:
        assert r.passed, f"{r.name}: {r.residual} > {r.tolerance}"


def test_evolution_operator_zero_tolerance_scale_fails_every_report():
    reports = check_evolution_operator(16, length=8.0, n_slices=32, tolerance_scale=0.0)
    assert {r.name for r in reports} == EVOLUTION_REPORTS
    assert not any(r.passed for r in reports)
    assert all(r.tolerance == 0.0 for r in reports)


# ---------------------------------------------------------------------------
# run_all
# ---------------------------------------------------------------------------


def test_run_all_default_passes():
    reports = run_all()
    assert len(reports) >= 10
    failed = [r for r in reports if not r.passed]
    assert not failed, [f"{r.name}: {r.residual}" for r in failed]
    assert [r.name for r in reports] == sorted(r.name for r in reports)


def test_run_all_zero_tolerance_fails_everything():
    reports = run_all(VerifyConfig(tolerance_scale=0.0))
    assert all(not r.passed for r in reports)


def test_run_all_deterministic():
    a = run_all(VerifyConfig(seed=99))
    b = run_all(VerifyConfig(seed=99))
    assert [r.as_dict() for r in a] == [r.as_dict() for r in b]


def test_verify_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown verify config key"):
        VerifyConfig.from_dict({"seeed": 1})
