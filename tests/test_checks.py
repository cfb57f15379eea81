"""The named check suite: positive cases, negative controls, determinism."""

import dataclasses
import functools
import inspect
import math

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
from spectralqm import checks, evolution
from spectralqm.checks import (
    CheckReport,
    check_evolution_operator,
    check_gauge_shift,
    check_superposition,
    random_smooth_fields,
)
from spectralqm.operators import SpectralReal, kinetic_op, momentum_op as p_op


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


def test_parseval_momentum_sees_a_one_percent_error(harmonic, monkeypatch):
    grid, _, _ = harmonic
    psi = gaussian_packet(grid, 0.0, 2.0, 1.0)
    assert check_parseval_momentum(psi).passed
    original = checks.momentum_op

    def scaled(*args, **kwargs):
        op = original(*args, **kwargs)
        return dataclasses.replace(op, samples=1.01 * op.samples)

    monkeypatch.setattr(checks, "momentum_op", scaled)
    report = check_parseval_momentum(psi)
    assert report.tolerance == 1e-10
    assert not report.passed


def test_parseval_momentum_random_states(harmonic):
    grid, _, _ = harmonic
    rng = np.random.default_rng(17)
    for _ in range(100):
        assert check_parseval_momentum(random_state(grid, rng)).residual < 1e-10


def test_ehrenfest_checks_on_harmonic(harmonic_trajectory):
    v = check_ehrenfest_velocity(harmonic_trajectory, tolerance=1e-5)
    f = check_ehrenfest_force(harmonic_trajectory, tolerance=1e-5)
    assert v.passed and f.passed


@pytest.mark.parametrize("check, column", [
    (check_ehrenfest_velocity, "x_mean"),
    (check_ehrenfest_force, "f_mean"),
], ids=["velocity", "force"])
def test_ehrenfest_check_sees_a_one_percent_error(harmonic_trajectory, check, column):
    perturbed = dataclasses.replace(
        harmonic_trajectory, **{column: 1.01 * getattr(harmonic_trajectory, column)})
    assert check(harmonic_trajectory, tolerance=1e-5).passed
    report = check(perturbed, tolerance=1e-5)
    assert not report.passed and report.residual > 1e-3


def test_ehrenfest_second_order_stencil_matches_h2_error_model(harmonic_trajectory):
    # 3-point differencing of <x> = cos(t) carries the h^2/6 truncation term;
    # with h = 1e-2 that is 1.67e-5, which the 4th-order stencil removes
    traj = harmonic_trajectory
    h = traj.times[1] - traj.times[0]

    def velocity_residual(stencil):
        d, interior = checks._central_difference(traj.x_mean[:, 0], h, stencil)
        return np.max(np.abs(d - traj.p_mean[interior, 0]))

    assert 1.2e-5 < velocity_residual(2) < 2.2e-5
    assert velocity_residual(4) < 1e-6
    assert check_ehrenfest_velocity(traj, tolerance=1.0).residual == velocity_residual(4)


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


def test_ehrenfest_velocity_reads_the_runs_mass(harmonic):
    # the state carries no mass: d<x>/dt = <p>/m takes m from the run
    grid, u, force = harmonic
    psi0 = gaussian_packet(grid, 1.0, 0.0, 0.6)
    traj = split_step(psi0, u, 2.0, 1.0, 1e-3, 3000, 10, force_samples=[force],
                      store_states=False)
    assert traj.mass == 2.0
    assert check_ehrenfest_velocity(traj, tolerance=1e-5).passed
    report = check_ehrenfest_velocity(dataclasses.replace(traj, mass=1.0), tolerance=1e-5)
    assert not report.passed and report.residual > 1e-2


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


def test_commutator_system_sees_a_wrong_sign_force(commutator_states):
    grid, states = commutator_states
    x = grid.axis_points(0)
    report = check_commutator_system(grid, 0.5 * x**2, 1.0, 1.0, states, force_samples=x)
    assert not report.passed and report.residual > 0.1


def test_commutator_system_free_kinetic_momentum_commute(commutator_states):
    # with U = 0 the momentum relation reduces to [T, P] = 0, exact in the
    # shared transform eigenbasis; the dense route keeps a small matmul
    # roundoff floor of order n*eps*|T|*|P| ~ 1e-12
    grid, states = commutator_states
    t_d = to_dense(kinetic_op(grid))
    p_d = to_dense(p_op(grid))
    c = t_d.matrix @ p_d.matrix - p_d.matrix @ t_d.matrix
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


def test_commutant_x_only_negative_control(monkeypatch):
    # with P = 0 only the X equations remain; their solutions are all diagonal
    # matrices (nullity n), so P is load-bearing
    monkeypatch.setattr(checks, "momentum_op",
                        lambda grid: SpectralReal(grid, np.zeros(grid.shape), label="p[0]"))
    report = check_commutant_uniqueness(8)
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


# Each _expm case names the mutant of `checks._expm` that it catches.


def test_zero_generator_gives_identity():
    # caught: s from ceil(log2(norm / THETA_13)), which raises on a zero norm, and
    # the identity dropped from I + 2 (V - U)^-1 U
    assert np.array_equal(checks._expm(np.zeros((8, 8), dtype=complex)), np.eye(8))


def test_expm_of_a_diagonal_matrix():
    # caught: the squaring loop dropped (the 1-norm 7.5 takes one squaring), the
    # odd part U negated, which gives exp(-a), and a scaling that stops below
    # twice THETA_13 instead of THETA_13
    d = np.array([-3.0, 0.5, 2.0, 7.5])
    np.testing.assert_allclose(checks._expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14, atol=0)


@pytest.mark.parametrize("scale", [0.5, 8.0])
def test_expm_of_a_nilpotent_jordan_block(scale):
    # exp(c N) for the 14 x 14 shift N is the finite series sum_k (c N)^k / k!,
    # which the degree-13 Pade approximant matches exactly; caught: any one Pade
    # coefficient b_1..b_13 off by a part in 1e3, and at c = 8 the dropped squaring
    n = 14
    got = checks._expm(scale * np.eye(n, k=1))
    want = sum(scale**k / math.factorial(k) * np.eye(n, k=k) for k in range(n))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("norm", np.geomspace(0.1, 50.0, 7))
def test_expm_of_antihermitian_matrices_matches_the_eigendecomposition(norm):
    # caught: the squaring loop dropped (1-norms above THETA_13), U negated, and
    # any one of b_1..b_10 off by a part in 1e3
    rng = np.random.default_rng(11)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    a = g - g.conj().T
    a *= norm / np.linalg.norm(a, 1)
    evals, vecs = np.linalg.eigh(1j * a)
    oracle = (vecs * np.exp(-1j * evals)) @ vecs.conj().T
    assert np.linalg.norm(checks._expm(a) - oracle) <= 1e-12


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


def test_random_smooth_fields_match_a_per_mode_sum(field_grid):
    # the fields are the harmonic sums drawn (cos, sin) per mode, component by component
    x, length = field_grid.axis_points(0), field_grid.length[0]
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    fields = random_smooth_fields(field_grid, rng)  # modes 1..n/8
    expected = np.zeros((6, 256))
    for c in range(6):
        for m in range(1, 256 // 8 + 1):
            a, b = ref_rng.standard_normal(2)
            expected[c] += a * np.cos(2 * np.pi * m * x / length) + b * np.sin(2 * np.pi * m * x / length)
    assert np.max(np.abs(np.concatenate([fields.e, fields.h]) - expected)) <= 1e-12
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_field_configuration_validates_shapes(field_grid):
    with pytest.raises(ValueError):
        FieldConfiguration(field_grid, np.zeros((2, 256)), np.zeros((3, 256)))
    grid2 = make_grid(2, 16, 4.0, 0.0)
    with pytest.raises(ValueError):
        FieldConfiguration(grid2, np.zeros((3, 16)), np.zeros((3, 16)))


def _field_reports():
    """The field-energy reports of run_all by name; the group must not raise."""
    return {r.name: r for r in checks._field_group(VerifyConfig())}


def test_field_energy_parseval_sees_a_one_percent_transform_error(monkeypatch):
    assert all(r.passed for r in _field_reports().values())
    original = checks.to_momentum

    def scaled(psi):
        phi = original(psi)
        return dataclasses.replace(phi, amps=1.01 * phi.amps)

    monkeypatch.setattr(checks, "to_momentum", scaled)
    reports = _field_reports()
    assert reports["field-energy-parseval"].tolerance == 1e-12
    assert not reports["field-energy-parseval"].passed
    assert reports["field-energy-sine"].passed


def test_field_energy_sine_sees_a_one_percent_stretched_grid(monkeypatch):
    original = checks.make_grid

    def stretched(dim, n, length, origin):
        return original(dim, n, 1.01 * length, origin)

    monkeypatch.setattr(checks, "make_grid", stretched)
    reports = _field_reports()
    assert reports["field-energy-sine"].tolerance == 1e-10
    assert not reports["field-energy-sine"].passed
    # the Parseval identity holds on any grid
    assert reports["field-energy-parseval"].passed


# ---------------------------------------------------------------------------
# linearity, gauge, evolution laws
# ---------------------------------------------------------------------------


def test_superposition_check(harmonic):
    grid, u, _ = harmonic
    psi1 = gaussian_packet(grid, -1.5, 0.5, 1.0)
    psi2 = gaussian_packet(grid, 1.5, -0.5, 1.0)
    report = check_superposition(u, psi1, psi2, 1e-3, 500)
    assert report.passed and report.residual < 1e-10


def test_superposition_sees_a_nonlinear_propagator(harmonic, monkeypatch):
    grid, u, _ = harmonic
    real_split_step = checks.split_step

    def nonlinear(*args, **kwargs):
        trajectory = real_split_step(*args, **kwargs)
        last = trajectory.states[-1]
        bent = last.with_amps(last.amps * np.exp(1j * np.abs(last.amps) ** 2))
        return dataclasses.replace(trajectory, states=(*trajectory.states[:-1], bent))

    monkeypatch.setattr(checks, "split_step", nonlinear)
    psi1 = gaussian_packet(grid, -1.5, 0.5, 1.0)
    psi2 = gaussian_packet(grid, 1.5, -0.5, 1.0)
    report = check_superposition(u, psi1, psi2, 1e-3, 500)
    assert not report.passed and report.residual > 1e-3


def test_gauge_shift_check(harmonic):
    grid, u, force = harmonic
    psi0 = gaussian_packet(grid, 1.0, 0.0, 1.0)
    report = check_gauge_shift(u, psi0, 1e-3, 500, 10, force_samples=[force])
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
    report = check_gauge_shift(u, psi0, 1e-3, 500, 10, force_samples=[force])
    assert len(calls) == 2
    assert not report.passed and report.residual > 1.0


def test_gauge_shift_sees_a_kernel_that_breaks_the_gauge(monkeypatch):
    # the kernel propagates under U + 1e-3 U^2: its kicks stay phases and it stays
    # linear, but U + GAUGE_SHIFT no longer differs from U by a constant
    real_propagate = evolution._strang_propagate

    def skewed(psi0, u_samples, *args, **kwargs):
        return real_propagate(psi0, u_samples + 1e-3 * u_samples**2, *args, **kwargs)

    [clean] = checks._gauge_group(VerifyConfig())
    assert clean.passed and clean.residual < 1e-12
    monkeypatch.setattr(evolution, "_strang_propagate", skewed)
    [report] = checks._gauge_group(VerifyConfig())
    assert not report.passed and report.residual > 1e-3


EVOLUTION_REPORTS = {
    "evolution-unitarity", "evolution-composition", "evolution-inverse",
    "generator-constant", "generator-driven", "generator-hermiticity",
}


def test_evolution_operator_reports():
    reports = check_evolution_operator()
    assert {r.name for r in reports} == EVOLUTION_REPORTS
    for r in reports:
        assert r.passed, f"{r.name}: {r.residual} > {r.tolerance}"


def _with_phase(phase):
    """evolution_operator with a global phase exp(i phase(t1, t2)): still unitary."""
    original = checks.evolution_operator

    def shifted(h_of_t, t1, t2, *args, **kwargs):
        u = original(h_of_t, t1, t2, *args, **kwargs)
        return np.exp(1j * phase(t1, t2)) * u

    return "evolution_operator", shifted


def _non_unitary_0_2():
    """The U(0, 2) of the unitarity report scaled by 1 + 1e-8."""
    original = checks.evolution_operator

    def leaky(h_of_t, t1, t2, *args, **kwargs):
        u = original(h_of_t, t1, t2, *args, **kwargs)
        return (1.0 + 1e-8) * u if (t1, t2) == (0.0, 2.0) else u

    return "evolution_operator", leaky


def _generator_fault(fault):
    original = checks.extract_generator

    def faulty(h_of_t, *args, **kwargs):
        return fault(original, h_of_t, *args, **kwargs)

    return "extract_generator", faulty


def _scaled_generator(original, h_of_t, *args, **kwargs):
    return 1.01 * original(h_of_t, *args, **kwargs)


def _undriven_generator(original, h_of_t, *args, **kwargs):
    # the drive is dropped: H is frozen at t = 0
    return original(lambda _t: h_of_t(0.0), *args, **kwargs)


def _non_hermitian_generator(original, h_of_t, *args, **kwargs):
    b = original(h_of_t, *args, **kwargs)
    return b + 1e-4j * np.eye(len(b))


# one fault per report, as (module global of checks, its replacement)
EVOLUTION_FAULTS = {
    "evolution-unitarity": _non_unitary_0_2,
    # the phase of U(0,2) is not the sum of the phases of U(0,1) and U(1,2)
    "evolution-composition": lambda: _with_phase(lambda t1, t2: 1e-6 * (t2 - t1) ** 2),
    # forward and backward runs gain the same phase, so U(2,0) does not undo U(0,2)
    "evolution-inverse": lambda: _with_phase(lambda t1, t2: 1e-6 * abs(t2 - t1)),
    "generator-constant": lambda: _generator_fault(_scaled_generator),
    "generator-driven": lambda: _generator_fault(_undriven_generator),
    "generator-hermiticity": lambda: _generator_fault(_non_hermitian_generator),
}


@pytest.mark.parametrize("name", sorted(EVOLUTION_FAULTS))
def test_evolution_operator_report_sees_its_fault(monkeypatch, name):
    monkeypatch.setattr(checks, *EVOLUTION_FAULTS[name]())
    reports = {r.name: r for r in check_evolution_operator()}
    assert set(reports) == EVOLUTION_REPORTS
    assert not reports[name].passed, f"{name}: {reports[name].residual}"
    assert reports[name].tolerance > 0.0
    if name == "evolution-unitarity":
        # the report is the one unitarity gate: the group does not raise, and
        # the generator extractions, which never build U(0, 2), still pass
        assert np.isfinite(reports[name].residual)
        assert "error:" not in reports[name].details
        for generator in ("generator-constant", "generator-driven", "generator-hermiticity"):
            assert reports[generator].passed, f"{generator}: {reports[generator].residual}"


def test_evolution_operator_zero_tolerance_scale_fails_every_report(monkeypatch):
    # run_all is the one place a tolerance is scaled: run it on the evolution group alone
    suite = [entry for entry in checks._SUITE if entry[0] is checks._evolution_group]
    monkeypatch.setattr(checks, "_SUITE", tuple(suite))
    reports = run_all(VerifyConfig(tolerance_scale=0.0))
    assert {r.name for r in reports} == EVOLUTION_REPORTS
    assert not any(r.passed for r in reports)
    assert all(r.tolerance == 0.0 for r in reports)


# ---------------------------------------------------------------------------
# run_all
# ---------------------------------------------------------------------------


# (name, tag, tolerance) of every report of the default run, sorted by name
DEFAULT_REPORTS = [
    ("antihermitian-exponential", "unitary-generator", 1e-10),
    ("commutant-uniqueness-n16", "commutant-scalars", 1e-8),
    ("commutant-uniqueness-n8", "commutant-scalars", 1e-8),
    ("commutator-system", "generator-equations", 1e-6),
    ("ehrenfest-force-harmonic", "force-law", 1e-5),
    ("ehrenfest-force-quartic", "force-law", 1e-4),
    ("ehrenfest-velocity-harmonic", "velocity-law", 1e-5),
    ("ehrenfest-velocity-quartic", "velocity-law", 1e-4),
    ("evolution-composition", "evolution-laws", 1e-10),
    ("evolution-inverse", "evolution-laws", 1e-9),
    ("evolution-unitarity", "evolution-laws", 1e-9),
    ("field-energy-parseval", "field-energy", 1e-12),
    ("field-energy-sine", "field-energy", 1e-10),
    ("gauge-shift", "constant-in-potential", 1e-10),
    ("generator-constant", "generator-extraction", 1e-6),
    ("generator-driven", "generator-extraction", 1e-4),
    ("generator-hermiticity", "generator-extraction", 1e-6),
    ("momentum-parseval", "momentum-spectral", 1e-10),
    ("normalization", "probability-norm", 1e-10),
    ("superposition", "linearity", 1e-10),
]


@pytest.fixture(scope="module")
def default_reports():
    return run_all()


def test_run_all_default_names_tags_and_tolerances(default_reports):
    assert [(r.name, r.tag, r.tolerance) for r in default_reports] == DEFAULT_REPORTS


def test_run_all_default_passes(default_reports):
    reports = default_reports
    failed = [r for r in reports if not r.passed]
    assert not failed, [f"{r.name}: {r.residual}" for r in failed]
    assert [r.name for r in reports] == sorted(r.name for r in reports)


def test_run_all_zero_tolerance_fails_everything():
    reports = run_all(VerifyConfig(tolerance_scale=0.0))
    assert [(r.name, r.tag) for r in reports] == [(name, tag) for name, tag, _ in DEFAULT_REPORTS]
    assert all(not r.passed for r in reports)
    assert all(r.tolerance == 0.0 for r in reports)


def test_run_all_failed_groups_keep_their_report_names(monkeypatch):
    # every group raises: all but the anti-Hermitian one build a grid, and
    # that one measures through unitarity_defect
    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(checks, "make_grid", broken)
    monkeypatch.setattr(checks, "unitarity_defect", broken)
    reports = run_all()
    assert [(r.name, r.tag) for r in reports] == [(name, tag) for name, tag, _ in DEFAULT_REPORTS]
    for r in reports:
        assert not r.passed and r.residual == float("inf") and r.tolerance == 0.0
        assert r.details.startswith("error: ")


def test_run_all_runs_seven_split_steps(monkeypatch):
    # one harmonic run serves the norm and both harmonic Ehrenfest laws
    real_split_step = checks.split_step
    steps = []

    def counted(*args, **kwargs):
        steps.append(inspect.signature(real_split_step).bind(*args, **kwargs).arguments["steps"])
        return real_split_step(*args, **kwargs)

    monkeypatch.setattr(checks, "split_step", counted)
    reports = {r.name: r for r in run_all()}
    assert len(steps) == 7 and sum(steps) == 23290
    assert all(r.passed for r in reports.values())
    for name in ("normalization", "ehrenfest-velocity-harmonic", "ehrenfest-force-harmonic"):
        assert "records=1001" in reports[name].details


def test_run_all_runs_its_groups_on_one_blas_thread(monkeypatch, blas_threads):
    before, seen = blas_threads(), []

    def spy_group(config):
        seen.append(blas_threads())
        return [CheckReport("spy", "spy-tag", 0.0, 1.0, True)]

    monkeypatch.setattr(checks, "_SUITE", ((spy_group, [("spy", "spy-tag")]),) * 2)
    assert [r.name for r in run_all()] == ["spy", "spy"]
    assert seen == [[1] * len(before)] * 2
    assert blas_threads() == before


def test_run_all_restores_the_blas_threads_after_a_group_raises(monkeypatch, blas_threads):
    def raising_group(config):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(checks, "_SUITE", ((raising_group, [("spy", "spy-tag")]),))
    before = blas_threads()
    (report,) = run_all()
    assert not report.passed and report.details == "error: injected fault"
    assert blas_threads() == before


def test_run_all_fails_a_group_whose_reports_come_out_of_order(monkeypatch):
    # swapped, each quartic report would pass under the other's name and tag
    def _swapped_group(config):
        return checks._quartic_group(config)[::-1]

    (names,) = [names for group, names in checks._SUITE if group is checks._quartic_group]
    monkeypatch.setattr(checks, "_SUITE", ((_swapped_group, names),))
    reports = run_all()
    assert [(r.name, r.tag) for r in reports] == sorted(names)
    for r in reports:
        assert not r.passed and r.residual == float("inf") and r.tolerance == 0.0
        assert r.details == ("error: ehrenfest-force (force-law) came where "
                             "ehrenfest-velocity-quartic (velocity-law) belongs")


def test_run_all_deterministic():
    a = run_all(VerifyConfig(seed=99))
    b = run_all(VerifyConfig(seed=99))
    assert [r.as_dict() for r in a] == [r.as_dict() for r in b]


def test_verify_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown key 'seeed' in verify config"):
        VerifyConfig.from_dict({"seeed": 1})


# ---------------------------------------------------------------------------
# a negative control for every suite report, and NaN residuals
# ---------------------------------------------------------------------------


def _group_reports(name):
    """The reports of the _SUITE group that emits `name`, by the names run_all gives them."""
    group, names = next(entry for entry in checks._SUITE if name in dict(entry[1]))
    return {n: r for (n, _), r in zip(names, group(VerifyConfig()), strict=True)}


def _wrapped(global_name, fault):
    """A fault factory: checks.<global_name> replaced by fault(original, ...)."""
    return lambda: (global_name, functools.partial(fault, getattr(checks, global_name)))


def _lossy_propagator(split_step, *args, **kwargs):
    # the norm decays at the rate 1e-9
    trajectory = split_step(*args, **kwargs)
    return dataclasses.replace(trajectory, norm=trajectory.norm * np.exp(-1e-9 * trajectory.times))


def _fast_clock(split_step, psi0, u, mass, hbar, dt, *args, **kwargs):
    # each step runs 1 % longer than the recorded times say
    trajectory = split_step(psi0, u, mass, hbar, 1.01 * dt, *args, **kwargs)
    return dataclasses.replace(trajectory, times=trajectory.times / 1.01)


def _strong_force(split_step, *args, force_samples, **kwargs):
    # the recorded force is 1 % too strong
    return split_step(*args, force_samples=[1.01 * f for f in force_samples], **kwargs)


def _nonlinear_propagator(split_step, *args, **kwargs):
    trajectory = split_step(*args, **kwargs)
    last = trajectory.states[-1]
    bent = last.with_amps(last.amps * np.exp(1j * np.abs(last.amps) ** 2))
    return dataclasses.replace(trajectory, states=(*trajectory.states[:-1], bent))


def _mirrored_second_run():
    # the shifted run comes back mirrored: its signed means flip, its laws hold
    calls = []

    def fault(split_step, *args, **kwargs):
        trajectory = split_step(*args, **kwargs)
        calls.append(trajectory)
        if len(calls) == 2:
            trajectory = dataclasses.replace(
                trajectory, x_mean=-trajectory.x_mean, p_mean=-trajectory.p_mean,
                f_mean=-trajectory.f_mean)
        return trajectory

    return _wrapped("split_step", fault)()


def _one_percent_samples(op_factory, *args, **kwargs):
    op = op_factory(*args, **kwargs)
    return dataclasses.replace(op, samples=1.01 * op.samples)


def _one_percent_transform(to_momentum, psi):
    phi = to_momentum(psi)
    return dataclasses.replace(phi, amps=1.01 * phi.amps)


def _stretched_grid(make_grid, dim, n, length, origin):
    return make_grid(dim, n, 1.01 * length, origin)


def _unconjugated_defect(u):
    # ||U^T U - I|| in place of ||U^+ U - I||
    return float(np.linalg.norm(u.T @ u - np.eye(len(u))))


def _zero_momentum():
    # P = 0 leaves only the X equations, which every diagonal matrix solves
    return "momentum_op", lambda grid: SpectralReal(grid, np.zeros(grid.shape), label="p[0]")


# one fault per report of the suite, as a factory of (module global of checks, replacement)
SUITE_FAULTS = {
    "normalization": _wrapped("split_step", _lossy_propagator),
    "ehrenfest-velocity-harmonic": _wrapped("split_step", _fast_clock),
    "ehrenfest-velocity-quartic": _wrapped("split_step", _fast_clock),
    "ehrenfest-force-harmonic": _wrapped("split_step", _strong_force),
    "ehrenfest-force-quartic": _wrapped("split_step", _strong_force),
    "momentum-parseval": _wrapped("momentum_op", _one_percent_samples),
    "commutator-system": _wrapped("force_op", _one_percent_samples),
    "commutant-uniqueness-n8": _zero_momentum,
    "commutant-uniqueness-n16": _zero_momentum,
    "antihermitian-exponential": lambda: ("unitarity_defect", _unconjugated_defect),
    "field-energy-parseval": _wrapped("to_momentum", _one_percent_transform),
    "field-energy-sine": _wrapped("make_grid", _stretched_grid),
    "superposition": _wrapped("split_step", _nonlinear_propagator),
    "gauge-shift": _mirrored_second_run,
    **EVOLUTION_FAULTS,
}


def test_suite_faults_cover_every_report():
    assert set(SUITE_FAULTS) == {name for _, names in checks._SUITE for name, _ in names}


@pytest.mark.parametrize("name", sorted(SUITE_FAULTS))
def test_suite_report_sees_its_fault(monkeypatch, name):
    assert _group_reports(name)[name].passed
    monkeypatch.setattr(checks, *SUITE_FAULTS[name]())
    report = _group_reports(name)[name]
    assert not report.passed, f"{name}: {report.residual} <= {report.tolerance}"


def _nan_amplitude(monkeypatch):
    psi = random_state(checks._well_grid(), np.random.default_rng(0))
    amps = psi.amps.copy()
    amps[128] = np.nan
    return [check_parseval_momentum(psi.with_amps(amps))]


def _nan_mean_records(monkeypatch):
    def fault(split_step, *args, **kwargs):
        trajectory = split_step(*args, **kwargs)
        x_mean, p_mean = trajectory.x_mean.copy(), trajectory.p_mean.copy()
        x_mean[len(x_mean) // 2] = p_mean[len(p_mean) // 2] = np.nan
        return dataclasses.replace(trajectory, x_mean=x_mean, p_mean=p_mean)

    monkeypatch.setattr(checks, *_wrapped("split_step", fault)())
    reports = {**_group_reports("ehrenfest-force-harmonic"),
               **_group_reports("ehrenfest-force-quartic")}
    return [reports[f"ehrenfest-{law}-{well}"]
            for law in ("velocity", "force") for well in ("harmonic", "quartic")]


def _nan_field_configuration(monkeypatch):
    calls = []

    def fault(random_smooth_fields, grid, rng):
        fields = random_smooth_fields(grid, rng)
        calls.append(fields)
        if len(calls) == 7:
            fields.e[0, 0] = np.nan
        return fields

    monkeypatch.setattr(checks, *_wrapped("random_smooth_fields", fault)())
    return [_group_reports("field-energy-parseval")["field-energy-parseval"]]


@pytest.mark.parametrize("case", [_nan_amplitude, _nan_mean_records, _nan_field_configuration],
                         ids=["amplitude", "mean-records", "field-configuration"])
def test_a_nan_residual_fails(monkeypatch, case):
    # max(0.0, nan) is 0.0: a residual taken by Python's max would drop the NaN and pass
    for report in case(monkeypatch):
        assert np.isnan(report.residual) and not report.passed, report.name
