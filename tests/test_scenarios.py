"""Scenario configs, potential construction, runs, and diffraction analysis."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from spectralqm import (
    ScenarioConfig,
    build,
    gaussian_packet,
    make_grid,
    potential_samples,
    reference_two_slit_config,
    run,
    run_diffraction,
)
from spectralqm import scenarios
from spectralqm.checks import _central_difference
from spectralqm.evolution import _strang_propagate
from spectralqm.operators import kinetic_op
from spectralqm.scenarios import (_POTENTIALS, _analytic_force, _prominent_peaks,
                                  extract_fringe_spacing)
from test_evolution import plain_strang


def harmonic_config(**overrides):
    base = dict(
        name="harmonic-test",
        grid={"dim": 1, "n": 256, "length": 20.0, "origin": -10.0},
        potential={"kind": "harmonic", "omega": 1.0},
        initial={"kind": "gaussian", "x0": 1.0, "p0": 0.0, "sigma": 1.0},
        dt=1e-3,
        steps=500,
        record_every=10,
    )
    base.update(overrides)
    return ScenarioConfig.from_dict(base)


def fast_two_slit_config(momentum_scale=1.0, **potential_overrides):
    """Small 256x256 twin of the reference setup for quick structural tests."""
    k0 = 536.0 * momentum_scale
    potential = {
        "kind": "slit_wall",
        "positions": {"wall": -0.02, "detector": 0.08},
        "slit_width": 0.0293,
        "slit_separation": 0.0586,
        "barrier_height": 50.0 * 0.5 * 536.0**2,
        "barrier_thickness": 0.0066,
    }
    potential.update(potential_overrides)
    return ScenarioConfig(
        name="two-slit-fast",
        grid={"dim": 2, "n": [256, 256], "length": [0.42, 1.0], "origin": [-0.21, -0.5]},
        potential=potential,
        initial={"kind": "gaussian", "x0": [-0.115, 0.0], "p0": [k0, 0.0],
                 "sigma": [0.018, 0.03]},
        dt=3.2e-7 / momentum_scale,
        steps=1750,
        record_every=1750,
        seed=0,
    )


# ---------------------------------------------------------------------------
# config validation and building
# ---------------------------------------------------------------------------


def test_build_harmonic_potential_shape():
    grid, u, psi0 = build(harmonic_config())
    x = grid.axis_points(0)
    center = int(np.argmin(np.abs(x)))
    assert u[center] == pytest.approx(0.0, abs=1e-12)
    assert u[0] == pytest.approx(0.5 * 10.0**2, abs=1e-9)
    from spectralqm import norm_squared

    assert norm_squared(psi0) == pytest.approx(1.0, abs=1e-12)


def test_build_free_potential_is_zero():
    cfg = harmonic_config(potential={"kind": "free"})
    _, u, _ = build(cfg)
    assert np.max(np.abs(u)) == 0.0


# each well's U along one axis as the README states it, from its coefficient
WELL_FORMS = {
    "free": lambda c, x: 0.0 * x,
    "harmonic": lambda c, x: 0.5 * c**2 * x**2,
    "quartic": lambda c, x: 0.25 * c * x**4,
}
WELL_GRIDS = {1: (64, 8.0, -4.0), 2: ([32, 16], [8.0, 6.0], [-4.0, -3.0])}


def test_well_forms_cover_every_well_of_the_table():
    assert set(WELL_FORMS) == {kind for kind, (_, power, _) in _POTENTIALS.items() if power}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind, c", [
    ("free", None),
    *[(kind, c) for kind in ("harmonic", "quartic") for c in (0.3, 1.0, 2.5, -1.5)],
])
def test_each_well_force_is_minus_the_derivative_of_its_potential(kind, c, dim):
    grid = make_grid(dim, *WELL_GRIDS[dim])
    keys, _, _ = _POTENTIALS[kind]
    spec = {"kind": kind, **{key: c for key in keys}}
    u = potential_samples(grid, spec)
    force = _analytic_force(grid, spec)
    np.testing.assert_allclose(u, sum(WELL_FORMS[kind](c, x) for x in grid.meshes),
                               rtol=1e-15, atol=0.0)
    assert len(force) == dim
    for axis in range(dim):
        # the 5-point stencil is exact up to degree 4, so only rounding remains
        derivative, interior = _central_difference(np.moveaxis(u, axis, 0),
                                                   grid.spacing[axis], 4)
        along = np.moveaxis(force[axis], axis, 0)[interior]
        scale = max(np.max(np.abs(along)), 1.0)
        assert np.max(np.abs(along + derivative)) <= 1e-9 * scale


def test_build_slit_wall_geometry():
    cfg = fast_two_slit_config()
    grid, u, _ = build(cfg)
    x = grid.axis_points(0)
    y = grid.axis_points(1)
    height = cfg.potential["barrier_height"]
    wall_col = int(np.argmin(np.abs(x - (-0.02))))
    blocked_row = int(np.argmin(np.abs(y - 0.3)))  # far from any slit
    slit_row = int(np.argmin(np.abs(y - 0.0293)))  # center of the +y slit
    away_col = int(np.argmin(np.abs(x - 0.1)))  # well past the wall
    # a thin wall with 2-cell smoothed edges plateaus just below the nominal height
    assert 0.9 * height < u[wall_col, blocked_row] <= height
    assert u[wall_col, slit_row] < 0.05 * height
    assert abs(u[away_col, blocked_row]) < 1e-6 * height


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown key"):
        harmonic_config(potential={"kind": "harmonic", "omegaa": 1.0})
    with pytest.raises(ValueError, match="unknown key"):
        harmonic_config(grid={"dim": 1, "n": 256, "length": 20.0, "origin": -10.0,
                              "extra": 1})
    with pytest.raises(ValueError, match="unknown key"):
        ScenarioConfig.from_dict(dict(harmonic_config().as_dict(), bogus=3))


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="dim = 2"):
        harmonic_config(
            grid={"dim": 1, "n": 256, "length": 20.0, "origin": -10.0},
            potential={
                "kind": "slit_wall",
                "positions": {"wall": 0.0, "detector": 1.0},
                "slit_width": 0.1, "slit_separation": 0.2,
                "barrier_height": 1.0, "barrier_thickness": 0.1,
            },
        )
    with pytest.raises(ValueError, match="dt"):
        harmonic_config(dt=-1.0)
    with pytest.raises(ValueError, match="record_every"):
        harmonic_config(steps=500, record_every=7)
    with pytest.raises(ValueError, match="missing"):
        ScenarioConfig.from_dict({"name": "incomplete"})


def test_config_round_trips_losslessly():
    cfg = harmonic_config()
    assert ScenarioConfig.from_dict(cfg.as_dict()) == cfg
    slit = fast_two_slit_config()
    assert ScenarioConfig.from_dict(slit.as_dict()) == slit


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def test_run_is_deterministic():
    a = run(harmonic_config())
    b = run(harmonic_config())
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.x_mean, b.x_mean)
    assert np.array_equal(a.energy, b.energy)
    assert np.array_equal(a.states[-1].amps, b.states[-1].amps)


def test_run_free_packet_momentum_constant():
    cfg = harmonic_config(
        potential={"kind": "free"},
        initial={"kind": "gaussian", "x0": -2.0, "p0": 1.5, "sigma": 1.0},
    )
    traj = run(cfg)
    assert np.max(np.abs(traj.p_mean[:, 0] - 1.5)) < 1e-10


def test_run_harmonic_energy_constant():
    traj = run(harmonic_config(dt=1e-4, steps=2000))
    assert np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0]) < 1e-8


def test_run_quartic_scenario():
    cfg = harmonic_config(
        potential={"kind": "quartic", "a": 1.0},
        initial={"kind": "gaussian", "x0": 1.0, "p0": 0.0, "sigma": 0.5},
    )
    traj = run(cfg)
    assert np.max(np.abs(traj.norm - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# fringe extraction on synthetic data
# ---------------------------------------------------------------------------


def test_extract_fringe_spacing_recovers_synthetic_period():
    y = np.linspace(-0.5, 0.5, 513)[:-1]
    period = 0.08
    intensity = (1 + np.cos(2 * np.pi * y / period)) * np.exp(-((y / 0.3) ** 2))
    spacing, peaks = extract_fringe_spacing(y, intensity)
    assert spacing == pytest.approx(period, rel=0.01)
    assert len(peaks) >= 5


def test_extract_fringe_spacing_flat_input():
    y = np.linspace(-0.5, 0.5, 128)
    spacing, peaks = extract_fringe_spacing(y, np.zeros_like(y))
    assert spacing is None


def test_prominent_peaks_match_scipy_find_peaks(fast_two_slit_result):
    from scipy.signal import find_peaks

    res = fast_two_slit_result
    window = np.abs(res.positions) <= 0.3 * 0.1  # the paraxial window: |y| <= 0.3 D
    smooth, smooth_window = (np.convolve(i, np.full(3, 1.0 / 3.0), mode="same")
                             for i in (res.intensity, res.intensity[window]))
    rng = np.random.default_rng(3)
    noise = rng.standard_normal((40, 71))
    rows = [smooth, smooth_window, *(np.convolve(r, np.ones(7) / 7, mode="valid") for r in noise),
            *np.round(noise, 0)]  # rounding makes flat tops, some at the ends
    for row in rows:
        for fraction in (0.0, 0.08, 0.3):
            threshold = fraction * np.max(np.abs(row))
            want = find_peaks(row, prominence=threshold)[0]
            assert _prominent_peaks(row, threshold) == list(want)
    assert len(_prominent_peaks(smooth_window, 0.08 * np.max(smooth_window))) >= 3


# ---------------------------------------------------------------------------
# diffraction runs (fast 256^2 twin of the reference geometry)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fast_two_slit_result():
    return run_diffraction(fast_two_slit_config())


def test_two_slit_produces_fringes(fast_two_slit_result):
    res = fast_two_slit_result
    assert res.fringe_spacing is not None and res.fringe_spacing > 0
    expected = (2 * np.pi / 536.0) * 0.1 / 0.0586  # wavelength * D / separation
    assert res.fraunhofer_spacing == pytest.approx(expected, rel=1e-12)
    assert np.all(res.intensity >= 0)


def test_two_slit_norm_conserved(fast_two_slit_result):
    assert abs(fast_two_slit_result.final_norm - 1.0) < 1e-8


def test_two_slit_pattern_symmetric(fast_two_slit_result):
    i = fast_two_slit_result.intensity
    mirrored = np.roll(i[::-1], 1)  # partner of y_j is -y_j on the periodic axis
    assert np.max(np.abs(i - mirrored)) / np.max(i) < 0.02


def test_two_slit_pattern_is_bitwise_mirror_symmetric(fast_two_slit_result):
    # the run is mirror-even in y, so the kernel holds half the columns and
    # every detector row it hands out is an exact mirror image
    i = fast_two_slit_result.intensity
    assert np.array_equal(i[1:], i[:0:-1])


def test_run_diffraction_is_byte_identical(fast_two_slit_result):
    again = run_diffraction(fast_two_slit_config())
    assert again.intensity.tobytes() == fast_two_slit_result.intensity.tobytes()


def test_kernel_detector_intensity_matches_plain_strang_loop():
    # the detector row is read after the drift, before the merged kick
    cfg = fast_two_slit_config()
    cfg = dataclasses.replace(cfg, grid=dict(cfg.grid, n=[128, 128]))
    grid, u, psi0 = build(cfg)
    amps0, u0 = psi0.amps.copy(), u.copy()
    det_col = int(np.argmin(np.abs(grid.axis_points(0) - 0.08)))
    intensity = np.zeros(grid.n[1])

    def accumulate(row):
        intensity[:] += np.abs(row(det_col)) ** 2 * cfg.dt

    final = _strang_propagate(psi0, u, kinetic_op(grid, cfg.mass, cfg.hbar).samples, cfg.hbar,
                              cfg.dt, cfg.steps, on_drift=accumulate)
    expected = np.zeros(grid.n[1])
    for step, amps in enumerate(plain_strang(psi0, u, cfg.mass, cfg.hbar, cfg.dt, cfg.steps)):
        if step:
            expected += np.abs(amps[det_col, :]) ** 2 * cfg.dt
    assert np.max(expected) > 0
    assert np.max(np.abs(intensity - expected)) <= 1e-12 * np.max(expected)
    assert np.max(np.abs(final - amps)) <= 1e-12 * np.max(np.abs(amps))
    assert np.array_equal(psi0.amps, amps0)
    assert np.array_equal(u, u0)


def test_diffraction_is_unchanged_by_a_change_of_units():
    # hbar x lam, mass x lam^2, dt x lam and p0 x lam leave the wavenumber p0 / hbar and the
    # phases U dt / hbar and hbar |k|^2 dt / 2m, so the run; the intensity, a sum of
    # |row|^2 dt, scales by lam.  hbar != mass, so T's units are told apart
    cfg = fast_two_slit_config()
    cfg = dataclasses.replace(cfg, grid=dict(cfg.grid, n=[128, 128]))
    lam = 3.0
    scaled = dataclasses.replace(cfg, hbar=lam * cfg.hbar, mass=lam**2 * cfg.mass, dt=lam * cfg.dt,
                                 initial=dict(cfg.initial, p0=[lam * p for p in cfg.initial["p0"]]))
    base, got = run_diffraction(cfg), run_diffraction(scaled)
    want = lam * base.intensity
    assert np.max(np.abs(got.intensity - want)) <= 1e-12 * np.max(want)
    assert got.fringe_spacing == pytest.approx(base.fringe_spacing, rel=1e-12)
    assert got.transmitted_fraction == pytest.approx(base.transmitted_fraction, rel=1e-12)


def test_single_slit_pattern():
    cfg = fast_two_slit_config(slit_separation=0.0)
    res = run_diffraction(cfg)
    assert res.fringe_spacing is None
    assert res.fraunhofer_spacing is None
    assert "single slit" in res.details
    i = res.intensity
    mirrored = np.roll(i[::-1], 1)
    assert np.max(np.abs(i - mirrored)) / np.max(i) < 0.02


def test_zero_barrier_warns_and_skips_analysis():
    cfg = fast_two_slit_config(barrier_height=0.0)
    cfg = dataclasses.replace(cfg, steps=20, record_every=20)
    with pytest.warns(UserWarning, match="barrier height is zero"):
        res = run_diffraction(cfg)
    assert res.fringe_spacing is None and res.relative_error is None


def test_blocked_wall_reports_no_transmission():
    cfg = fast_two_slit_config(slit_width=1e-9)
    cfg = dataclasses.replace(cfg, steps=400, record_every=400)
    with pytest.raises(ValueError, match="no transmitted amplitude"):
        run_diffraction(cfg)


def test_run_diffraction_validates_config():
    with pytest.raises(ValueError, match="slit_wall"):
        run_diffraction(harmonic_config())
    bad = fast_two_slit_config(positions={"wall": 0.08, "detector": -0.02})
    with pytest.raises(ValueError, match="beyond the wall"):
        run_diffraction(bad)


def test_run_diffraction_checks_its_config_before_forming_any_field(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a field was formed before the config was checked")

    for name in ("gaussian_packet", "potential_samples", "kinetic_op", "_strang_propagate"):
        monkeypatch.setattr(scenarios, name, unreachable)
    cfg = fast_two_slit_config(positions={"wall": 0.08, "detector": -0.02})
    with pytest.raises(ValueError, match="beyond the wall"):
        run_diffraction(cfg)
    cfg = dataclasses.replace(cfg, potential=fast_two_slit_config().potential,
                              initial=dict(cfg.initial, p0=[-536.0, 0.0]))
    with pytest.raises(ValueError, match="aim at the wall"):
        run_diffraction(cfg)


def _full_mesh_potential(grid, spec):
    """U formed on the full coordinate meshes, as before its per-axis form."""
    x, y = grid.meshes
    if spec["kind"] == "harmonic":
        c, p = np.float64(spec["omega"]) ** 2, 2
    elif spec["kind"] == "quartic":
        c, p = float(spec["a"]), 4
    else:
        def smooth_step(u):
            return 0.5 * (1.0 + np.tanh(u))
        wall_x, thickness = spec["positions"]["wall"], spec["barrier_thickness"]
        width, separation = spec["slit_width"], spec["slit_separation"]
        dx, dy = grid.spacing
        along = smooth_step((x - (wall_x - thickness / 2)) / dx) * smooth_step(
            ((wall_x + thickness / 2) - x) / dx)
        centers = [0.0] if separation == 0.0 else [-separation / 2, separation / 2]
        opening = sum(smooth_step((y - (c - width / 2)) / dy)
                      * smooth_step(((c + width / 2) - y) / dy) for c in centers)
        return spec["barrier_height"] * along * (1.0 - np.clip(opening, 0.0, 1.0))
    return np.zeros(grid.shape) + (c / p) * x**p + (c / p) * y**p


@pytest.mark.parametrize("spec", [
    fast_two_slit_config().potential,
    fast_two_slit_config(slit_separation=0.0).potential,
    {"kind": "harmonic", "omega": 1.3},
    {"kind": "quartic", "a": 0.7},
], ids=["two-slit", "one-slit", "harmonic", "quartic"])
def test_potential_samples_keep_the_bits_of_the_full_mesh_formula(spec):
    grid = make_grid(2, [128, 64], [0.42, 1.0], [-0.21, -0.5])
    got = potential_samples(grid, spec)
    assert got.shape == grid.shape and np.array_equal(got, _full_mesh_potential(grid, spec))


def test_two_slit_setup_holds_few_grid_arrays_at_once():
    # the packet, the wall and a few kernel steps with their inputs handed over inline, as
    # run_diffraction does, on the fast 256^2 config.  In complex grid arrays of 16 N
    # bytes the peak reads 2.5, so the bound of 3 leaves 0.5 of margin; it read 4.5 when
    # the packet and wall were formed on full meshes and the kernel kept its inputs
    cfg = fast_two_slit_config()
    g, init = cfg.grid, cfg.initial
    grid = make_grid(g["dim"], g["n"], g["length"], g["origin"])
    array_bytes = 16 * grid.size
    tracemalloc.start()
    try:
        amps = _strang_propagate(
            gaussian_packet(grid, init["x0"], init["p0"], init["sigma"], cfg.hbar),
            potential_samples(grid, cfg.potential), kinetic_op(grid, cfg.mass, cfg.hbar).samples,
            cfg.hbar, cfg.dt, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert amps.shape == grid.shape
    assert peak <= 3.0 * array_bytes, peak / array_bytes


def test_reference_config_is_valid():
    cfg = reference_two_slit_config()
    assert cfg.grid["n"] == [512, 512]
    grid, u, psi0 = build(cfg)
    assert grid.size == 512 * 512
    doubled = reference_two_slit_config(2.0)
    assert doubled.initial["p0"][0] == pytest.approx(2 * cfg.initial["p0"][0])
    assert doubled.potential["barrier_height"] == cfg.potential["barrier_height"]
