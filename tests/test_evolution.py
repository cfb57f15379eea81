"""Split-step propagation, evolution operators and their constant-H slices, spectra."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from spectralqm import (
    DenseOperator,
    DiagonalReal,
    LinearOperator,
    OperatorSum,
    Trajectory,
    evolution_operator,
    expectation,
    extract_generator,
    gaussian_packet,
    hamiltonian,
    inner,
    kinetic_op,
    make_grid,
    momentum_op,
    position_op,
    potential_op,
    spectral_gradient,
    spectrum,
    split_step,
    to_dense,
    unitarity_defect,
)
from spectralqm import evolution
from spectralqm.evolution import RECORD_BLOCK_BYTES
from spectralqm.grids import Grid, Wavefunction, norm_squared


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
    for dt in (np.nan, np.inf):
        with pytest.raises(ValueError, match="dt"):
            split_step(psi0, u, 1.0, 1.0, dt, 10)
    # a negative unit would run a finite, wrong evolution, stored or streamed
    for mass, hbar in ((-1.0, 1.0), (1.0, -1.0), (0.0, 1.0), (1.0, 0.0), (np.nan, 1.0)):
        for store_states in (True, False):
            with pytest.raises(ValueError, match="hbar and mass must be positive"):
                split_step(psi0, u, mass, hbar, 1e-3, 10, store_states=store_states)
    # forces come one array per axis, a 1-D grid's too
    with pytest.raises(ValueError, match="one array per axis, 1, got 256"):
        split_step(psi0, u, 1.0, 1.0, 1e-3, 10, force_samples=force)


SHAPE_REFUSAL = r"F\[0\]: samples shape must match grid shape"


@pytest.mark.parametrize("case, refusal", [("transposed", SHAPE_REFUSAL),
                                           ("complex", r"F\[0\]: samples must be real"),
                                           ("one-axis", "one array per axis, 2, got 1"),
                                           ("short", SHAPE_REFUSAL)])
def test_split_step_refuses_forces_that_are_not_one_real_array_per_axis(case, refusal):
    # each ran before: a transposed force weighed the wrong points, a complex one
    # lost its imaginary part, and one force on a 2-D grid gave f_mean one column
    grid = make_grid(2, [16, 8], [8.0, 8.0], [-4.0, -4.0])
    x, y = grid.meshes
    force = {"transposed": [-x.T, -y.T], "complex": [-x * (1.0 + 1e-3j), -y],
             "one-axis": [-x], "short": [-x[:-1], -y]}[case]
    psi0 = gaussian_packet(grid, [1.0, 0.0], 0.0, 0.6)
    with pytest.raises(ValueError, match=refusal):
        split_step(psi0, 0.5 * (x**2 + y**2), 1.0, 1.0, 1e-3, 4, force_samples=force)


# a mass of 1e-320 overflows T = hbar^2 |k|^2 / (2 mass) itself, before any phase is formed
@pytest.mark.parametrize("mass, hbar, refusal", [(1.0, 1e-320, "the kick phase .* overflows"),
                                                 (1e-320, 1.0, "kinetic samples .* overflow")],
                         ids=["hbar", "mass"])
def test_split_step_refuses_an_overflowing_phase(harmonic_setup, mass, hbar, refusal):
    # exp of an infinite phase is NaN, which every later step and record would carry
    grid, u, force = harmonic_setup
    psi0 = gaussian_packet(grid, 1.0, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=refusal):
            split_step(psi0, u, mass, hbar, 1e-3, 10, force_samples=[force])


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


def plain_wavenumbers(grid):
    """Open meshes of k = 2 pi fftfreq(n, L/n) per axis, then of k with the Nyquist bin zeroed.

    Formed here rather than read from `grids`, so that a wavenumber fault
    there reaches the kernel but not its oracles.
    """
    ks = [2.0 * np.pi * np.fft.fftfreq(n, d=length / n) for n, length in zip(grid.n, grid.length)]
    derivative = [np.where(np.arange(n) == n // 2, 0.0, k) for n, k in zip(grid.n, ks)]
    return (np.meshgrid(*ks, indexing="ij", sparse=True),
            np.meshgrid(*derivative, indexing="ij", sparse=True))


def plain_strang(psi0, u, mass, hbar, dt, steps):
    """Unfused Strang loop (half-kick, drift, half-kick); yields every state from t=0."""
    k2 = sum(k**2 for k in plain_wavenumbers(psi0.grid)[0])
    half_kick = np.exp(-1j * u * dt / (2.0 * hbar))
    drift = np.exp(-1j * hbar * k2 * dt / (2.0 * mass))
    amps = psi0.amps.astype(complex)
    yield amps
    for _ in range(steps):
        amps = half_kick * np.fft.ifftn(drift * np.fft.fftn(half_kick * amps))
        yield amps


def plain_records(grid, amps, u, force, mass, hbar):
    """One record by separate sums: norm, <x_a>, <p_a>, <U>, <F_a>, <H>."""
    dv = grid.cell_volume
    density = np.abs(amps) ** 2
    # |fft|^2 dx^dim / n_total is |Phi|^2 dk^dim for the library transform
    spec_density = np.abs(np.fft.fftn(amps)) ** 2 * dv / grid.size
    u_mean = np.sum(u * density) * dv
    ks, derivative_ks = plain_wavenumbers(grid)
    kinetic = np.sum(hbar**2 * sum(k**2 for k in ks) / (2.0 * mass) * spec_density)
    return [np.sum(density) * dv,
            *(np.sum(x * density) * dv for x in grid.meshes),
            *(hbar * np.sum(k * spec_density) for k in derivative_ks),
            u_mean,
            *(np.sum(f * density) * dv for f in force),
            kinetic + u_mean]


def assert_records_match(traj, states, u, force, mass, hbar, atol=0.0):
    """traj's records equal plain_records of the given states to 1e-12 of each column's size.

    atol is added to that bound, for columns that vanish by symmetry and so
    hold roundoff alone.
    """
    grid = traj.grid
    got = np.column_stack([traj.norm, traj.x_mean, traj.p_mean, traj.u_mean, traj.f_mean,
                           traj.energy])
    want = np.array([plain_records(grid, amps, u, force, mass, hbar) for amps in states])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want), axis=0) + atol)


def assert_same_records(a, b):
    for field in ("times", "norm", "x_mean", "p_mean", "u_mean", "f_mean", "energy"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@pytest.mark.parametrize("record_every, hbar", [
    pytest.param(n, hbar, id=str(n) if hbar == 1.0 else f"{n}-hbar{hbar}")
    for hbar in (1.0, 0.5) for n in (1, 7, 60)])
def test_split_step_matches_plain_strang_loop(harmonic_setup, record_every, hbar):
    # merged kicks are split again at record points and at the last step; off hbar = 1 the
    # records' weights p = hbar k and T = hbar^2 |k|^2 / (2 m) differ from k and |k|^2 / (2 m)
    grid, u, force = harmonic_setup
    psi0 = gaussian_packet(grid, 1.0, 0.5, 0.8)
    dt, steps = 1e-2, 60
    reference = list(plain_strang(psi0, u, 2.0, hbar, dt, steps))
    traj = split_step(psi0, u, 2.0, hbar, dt, steps, record_every, force_samples=[force])
    assert len(traj.states) == steps // record_every + 1
    for t, state in zip(traj.times, traj.states):
        assert np.max(np.abs(state.amps - reference[round(t / dt)])) <= 1e-12
    assert_records_match(traj, reference[::record_every], u, [force], 2.0, hbar)
    streamed = split_step(psi0, u, 2.0, hbar, dt, steps, record_every, force_samples=[force],
                          store_states=False)
    assert np.max(np.abs(streamed.states[-1].amps - reference[-1])) <= 1e-12
    assert_same_records(streamed, traj)


# a 1-D n = 256 state is 4 KiB, so a block holds this many records
BLOCK_256 = RECORD_BLOCK_BYTES // (16 * 256)


@pytest.mark.parametrize("records", [BLOCK_256 - 1, BLOCK_256, 2 * BLOCK_256 + 3])
def test_split_step_records_across_record_blocks(harmonic_setup, records):
    # fewer records than a block, exactly one block, and two blocks plus a partial one
    grid, u, force = harmonic_setup
    psi0 = gaussian_packet(grid, 1.0, 0.5, 0.8)
    traj = split_step(psi0, u, 1.0, 1.0, 1e-3, records - 1, force_samples=[force])
    assert len(traj.times) == records
    assert_records_match(traj, [state.amps for state in traj.states], u, [force], 1.0, 1.0)
    streamed = split_step(psi0, u, 1.0, 1.0, 1e-3, records - 1, force_samples=[force],
                          store_states=False)
    assert_same_records(streamed, traj)


def test_split_step_records_2d_one_state_per_block():
    grid = make_grid(2, [512, 256], [20.0, 16.0], [-10.0, -8.0])
    assert 16 * grid.size > RECORD_BLOCK_BYTES  # a block holds a single state
    x, y = grid.meshes
    u, force = 0.5 * (x**2 + 2.0 * y**2), [-x, -2.0 * y]
    psi0 = gaussian_packet(grid, [1.0, -0.5], [0.5, 1.0], [0.8, 0.7])
    reference = list(plain_strang(psi0, u, 1.0, 1.0, 1e-2, 3))
    traj = split_step(psi0, u, 1.0, 1.0, 1e-2, 3, force_samples=force, store_states=False)
    assert_records_match(traj, reference, u, force, 1.0, 1.0)


def _rows_potential(grid, rows):
    """A smooth, positive potential on the given axis-0 rows, exactly 0 on the others."""
    x, y = grid.meshes
    u = np.zeros(grid.shape)
    u[rows] = (3.0 + np.cos(x) * np.sin(0.5 * y))[rows]
    return u


@pytest.mark.parametrize("rows, roll", [
    ([], 0),  # free: the kick's slab is empty
    ([0, 1, 2, 61, 62, 63], 32),  # nonzero across the periodic edge: the slab is every row
    (list(range(28, 35)), 0),  # a wall in the middle: a slab of 7 rows
], ids=["free", "wrapped", "wall"])
def test_split_step_2d_slab_kick_matches_plain_strang_loop(rows, roll):
    grid = make_grid(2, [64, 32], [12.0, 10.0], [-6.0, -5.0])
    u = _rows_potential(grid, rows)
    force = [-spectral_gradient(grid, u, a) for a in range(2)]
    # the packet sits on the potential's rows (rolled across the periodic edge if need be)
    packet = gaussian_packet(grid, [-0.3, 0.5], [2.0, -1.0], [0.9, 0.8])
    psi0 = packet.with_amps(np.roll(packet.amps, roll, axis=0))
    steps, record_every = 12, 3
    reference = list(plain_strang(psi0, u, 1.0, 1.0, 2e-2, steps))
    traj = split_step(psi0, u, 1.0, 1.0, 2e-2, steps, record_every, force_samples=force)
    assert len(traj.states) == steps // record_every + 1
    for state, want in zip(traj.states, reference[::record_every]):
        assert np.max(np.abs(state.amps - want)) <= 1e-12
    assert_records_match(traj, reference[::record_every], u, force, 1.0, 1.0)
    final = evolution._strang_propagate(psi0, u, kinetic_op(grid).samples, 1.0, 2e-2, steps)
    assert np.max(np.abs(final - reference[-1])) <= 1e-12


def _mirrored(a):
    """a under the index map j -> -j mod n along axis 1."""
    return a[:, -np.arange(a.shape[1]) % a.shape[1]]


@pytest.mark.parametrize("n_y, perturbed, even_sector", [
    (32, False, True),  # y-even potential and packet: held as columns 0..16
    (32, True, False),  # one cell of psi0 breaks the symmetry: the full path
    (33, False, False),  # exactly y-even, but an odd axis: the full path
], ids=["even", "one-cell-off", "odd-n"])
def test_split_step_2d_even_sector_matches_plain_strang_loop(monkeypatch, n_y, perturbed,
                                                              even_sector):
    # make_grid takes only powers of two; a Grid built directly may have an odd axis
    grid = Grid(2, (64, n_y), (12.0, 10.0), (-6.0, -5.0))
    x, y = grid.meshes
    u = np.zeros(grid.shape)
    u[28:35] = (3.0 + np.cos(x) * np.cos(0.5 * y))[28:35]
    u = 0.5 * (u + _mirrored(u))  # a + b == b + a, so both are exactly mirror-even
    packet = gaussian_packet(grid, [-0.3, 0.0], [2.0, 0.0], [0.9, 0.8])
    amps = 0.5 * (packet.amps + _mirrored(packet.amps))
    assert np.array_equal(u, _mirrored(u)) and np.array_equal(amps, _mirrored(amps))
    if perturbed:
        amps[30, 5] *= 1.001
    psi0 = packet.with_amps(amps)
    force = [-spectral_gradient(grid, u, a) for a in range(2)]
    # the kernel holds the even sector when _mirror_even holds for both u and psi0
    mirror_even, verdicts = evolution._mirror_even, []
    monkeypatch.setattr(evolution, "_mirror_even",
                        lambda a: verdicts.append(mirror_even(a)) or verdicts[-1])

    steps, record_every, det_row = 12, 3, 40
    reference = list(plain_strang(psi0, u, 1.0, 1.0, 2e-2, steps))
    traj = split_step(psi0, u, 1.0, 1.0, 2e-2, steps, record_every, force_samples=force)
    assert len(traj.states) == steps // record_every + 1
    for state, want in zip(traj.states, reference[::record_every]):
        assert state.amps.shape == grid.shape
        assert np.max(np.abs(state.amps - want)) <= 1e-12
    # <y>, <p_y> and <F_y> vanish on a y-even state, so they are held to 1e-12 absolute
    assert_records_match(traj, reference[::record_every], u, force, 1.0, 1.0, atol=1e-12)
    detector = []
    final = evolution._strang_propagate(psi0, u, kinetic_op(grid).samples, 1.0, 2e-2, steps,
                                        on_drift=lambda row: detector.append(row(det_row)))
    assert np.max(np.abs(final - reference[-1])) <= 1e-12
    # the row is read after the drift, before the kick, which only changes its phase
    for got, want in zip(detector, reference[1:]):
        assert np.max(np.abs(np.abs(got) - np.abs(want[det_row]))) <= 1e-12
    assert verdicts and all(verdicts) == even_sector


# in 1-D the kick's pair is the identity, lambda a, out=None: a, which _dft does not bind;
# the even sector binds the axis-1 pair of a full 2-D grid, and holds 16 // 2 + 1 = 9 columns
@pytest.mark.parametrize("shape, kick_pair, held", [((64,), [], (64,)),
                                                    ((32, 16), ["fftn", "ifftn"], (32, 16)),
                                                    ((32, 16), ["fftn", "ifftn"], (32, 9))],
                         ids=["1d", "full-2d", "even-sector"])
def test_kernel_transforms_write_into_out(monkeypatch, shape, kick_pair, held):
    """Every transform the kernel binds returns `out` when given out=x, holding f(x)."""
    bound, dft = [], evolution._dft

    def spy(name, a, axes):
        bound.append((name, a.shape, axes, dft(name, a, axes)))
        return bound[-1][-1]

    monkeypatch.setattr(evolution, "_dft", spy)
    grid = Grid(len(shape), shape, (8.0,) * len(shape), (-4.0,) * len(shape))
    u = np.zeros(shape)
    u[10:14] = 1.0  # mirror-even along axis 1 in 2-D
    amps = np.ones(shape, dtype=complex)
    if kick_pair and held == shape:
        amps[:, 1] = 2.0  # breaks the mirror symmetry
    evolution._strang_propagate(Wavefunction(grid, amps), u, kinetic_op(grid).samples, 1.0,
                                1e-2, 3)
    # the kick's pair over axis 1 of the full rows, then the drift's over axis 0 of those held
    assert [b[:3] for b in bound] == ([(name, shape, (1,)) for name in kick_pair]
                                      + [(name, held, (0,)) for name in ("fftn", "ifftn")])
    rng = np.random.default_rng(4)
    for name, full, axes, f in bound:
        # the kick transforms the whole state, a slab, one row and an empty slab in place
        for rows in (full[0], 4, 1, 0) if axes == (1,) else (full[0],):
            size = (rows, *full[1:])
            x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            want = f(x)
            assert f(x, out=x) is x and np.array_equal(x, want), (name, rows)


@pytest.mark.parametrize("units", ["action", "time"])
def test_split_step_is_unchanged_by_a_change_of_units(harmonic_setup, units):
    # (hbar, m, U, F) x lam, or (m, dt) x lam with (U, F) / lam, leaves U dt / hbar and
    # hbar dt / m, so every phase and the final state; each record scales with its unit
    grid, u, force = harmonic_setup
    psi0 = gaussian_packet(grid, 1.0, 0.5, 0.8)
    lam, mass, hbar, dt = 3.0, 2.0, 0.7, 1e-2
    base = split_step(psi0, u, mass, hbar, dt, 40, 10, force_samples=[force])
    # the factors of hbar, of dt and of every energy: U, F, T = hbar^2 |k|^2 / 2m and <H>
    h, t, e = (lam, 1.0, lam) if units == "action" else (1.0, lam, 1.0 / lam)
    scaled = split_step(psi0, e * u, lam * mass, h * hbar, t * dt, 40, 10,
                        force_samples=[e * force])
    final, want = scaled.states[-1].amps, base.states[-1].amps
    assert np.max(np.abs(final - want)) <= 1e-13 * np.max(np.abs(want))
    for field, factor in (("times", t), ("norm", 1.0), ("x_mean", 1.0), ("p_mean", h),
                          ("u_mean", e), ("f_mean", e), ("energy", e)):
        got, ref = getattr(scaled, field), factor * getattr(base, field)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), field


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
    for times in ([0.0, 0.0], [0.0, np.nan], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(
                times=np.array(times),
                states=(psi, psi),
                norm=np.ones(2),
                x_mean=np.zeros((2, 1)),
                p_mean=np.zeros((2, 1)),
                u_mean=np.zeros(2),
                f_mean=np.zeros((2, 1)),
                energy=np.zeros(2),
                mass=1.0,
            )


# ---------------------------------------------------------------------------
# the evolution operator of a constant H: one exact slice exp(-i H t)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dense_h():
    grid = make_grid(1, 64, 16.0, -8.0)
    x = grid.axis_points(0)
    return grid, to_dense(hamiltonian(grid, 0.5 * x**2))


def _constant_slice(h, t):
    return evolution_operator(lambda _t: h, 0.0, t, 1)


def test_dense_propagator_zero_time(dense_h):
    grid, h = dense_h
    u = _constant_slice(h, 0.0)
    assert np.max(np.abs(u - np.eye(grid.size))) < 1e-14


def test_dense_propagator_global_phase(dense_h):
    grid, _ = dense_h
    e0 = 1.7
    h = DenseOperator(e0 * np.eye(grid.size), grid)
    u = _constant_slice(h, 0.5)
    expected = np.exp(-1j * e0 * 0.5) * np.eye(grid.size)
    assert np.max(np.abs(u - expected)) < 1e-12


def test_dense_propagator_eigenvector_phase(dense_h):
    grid, h = dense_h
    evals, vecs = sla.eigh(h.matrix)
    u = _constant_slice(h, 0.37)
    v = vecs[:, 5]
    expected = np.exp(-1j * evals[5] * 0.37) * v
    assert np.linalg.norm(u @ v - expected) < 1e-10


def test_dense_propagator_unitary(dense_h):
    _, h = dense_h
    assert unitarity_defect(_constant_slice(h, 2.0)) < 1e-9


def test_dense_propagator_rejects_non_hermitian(dense_h):
    grid, h = dense_h
    bad = h.matrix.copy()
    bad[0, 1] += 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        _constant_slice(DenseOperator(bad, grid), 1.0)


def test_dense_propagator_matches_split_step(dense_h):
    grid, h = dense_h
    x = grid.axis_points(0)
    u_samples = 0.5 * x**2
    psi0 = gaussian_packet(grid, 1.0, 0.0, 1.0)
    dt, steps = 1e-2, 100
    exact = _constant_slice(h, dt * steps) @ psi0.amps
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
    u = evolution_operator(lambda t: h0, 1.0, 1.0, 4)
    assert np.max(np.abs(u - np.eye(grid.size))) == 0.0


def test_evolution_operator_composition(driven_system):
    grid, h0, _ = driven_system
    const = lambda t: h0
    u02 = evolution_operator(const, 0.0, 2.0, 32)
    u01 = evolution_operator(const, 0.0, 1.0, 16)
    u12 = evolution_operator(const, 1.0, 2.0, 16)
    assert np.linalg.norm(u02 - u12 @ u01) < 1e-10


def test_evolution_operator_inverse(driven_system):
    grid, _, h_of_t = driven_system
    forward = evolution_operator(h_of_t, 0.0, 1.5, 64)
    backward = evolution_operator(h_of_t, 1.5, 0.0, 64)
    assert np.linalg.norm(forward @ backward - np.eye(grid.size)) < 1e-9


@pytest.fixture(scope="module")
def driven_32():
    # the evolution-operator check's system: 64 slices of its 32x32 H fill a block
    grid = make_grid(1, 32, 12.0, -6.0)
    x = grid.axis_points(0)
    h0 = to_dense(hamiltonian(grid, 0.5 * x**2)).matrix
    x_diag = np.diag(x).astype(complex)
    assert RECORD_BLOCK_BYTES // h0.nbytes == 64
    return h0, (lambda t: h0 + 0.1 * np.sin(t) * x_diag)


def _slice_by_slice(h_of_t, t1, t2, n_slices):
    """The time-ordered product with one scipy eigh per slice."""
    u = np.eye(h_of_t(t1).shape[0], dtype=complex)
    dt = (t2 - t1) / n_slices
    for s in range(n_slices):
        evals, vecs = sla.eigh(h_of_t(t1 + (s + 0.5) * dt))
        u = (vecs * np.exp(-1j * dt * evals)) @ vecs.conj().T @ u
    return u


@pytest.mark.parametrize("n_slices", [1, 64, 65, 130])
@pytest.mark.parametrize("driven", [False, True], ids=["constant", "driven"])
@pytest.mark.parametrize("t1, t2", [(0.0, 1.5), (1.5, 0.0)], ids=["forward", "backward"])
def test_evolution_operator_matches_a_slice_by_slice_loop(driven_32, driven, n_slices, t1, t2):
    h0, h_driven = driven_32
    h_of_t = h_driven if driven else (lambda _t: h0)
    u = evolution_operator(h_of_t, t1, t2, n_slices)
    assert np.linalg.norm(u - _slice_by_slice(h_of_t, t1, t2, n_slices)) < 1e-12


def test_evolution_operator_copies_a_refilled_buffer(driven_32):
    # an h_of_t that refills and returns one array each call
    _, h_driven = driven_32
    buffer = np.empty_like(h_driven(0.0))

    def refilled(t):
        buffer[...] = h_driven(t)
        return buffer

    u = evolution_operator(refilled, 0.0, 1.5, 65)
    assert np.linalg.norm(u - _slice_by_slice(h_driven, 0.0, 1.5, 65)) < 1e-12


def test_evolution_operator_decomposes_a_constant_h_once_per_block(monkeypatch, driven_32):
    h0, h_driven = driven_32
    decomposed = []
    eigh = np.linalg.eigh

    def counting(a):
        decomposed.append(1 if a.ndim == 2 else a.shape[0])
        return eigh(a)

    monkeypatch.setattr(evolution.np.linalg, "eigh", counting)
    evolution_operator(lambda _t: h0, 0.0, 2.0, 128)
    assert sum(decomposed) <= 2 and len(decomposed) == 2
    decomposed.clear()
    evolution_operator(h_driven, 0.0, 2.0, 128)
    assert sum(decomposed) == 128 and len(decomposed) == 2


@pytest.mark.parametrize("entry, change", [((0, 1), 1.0), ((0, 0), np.nan)],
                         ids=["asymmetric", "nan"])
def test_evolution_operator_checks_every_slice_for_hermiticity(driven_32, entry, change):
    # numpy's eigh returns NaN levels for a NaN matrix instead of raising
    h0, _ = driven_32
    bad = h0.copy()
    bad[entry] += change
    dt = (1.0 - 0.0) / 64
    t_bad = 0.0 + (29 + 0.5) * dt  # a slice in the middle of the first block
    with pytest.raises(ValueError, match=rf"H\(t={t_bad}\) is not Hermitian"):
        evolution_operator(lambda t: bad if t == t_bad else h0, 0.0, 1.0, 64)


def test_extract_generator_constant(driven_system):
    grid, h0, _ = driven_system
    b = extract_generator(lambda t: h0, t=1.0, delta=1e-4, n_slices=16)
    assert np.linalg.norm(b - h0) / np.linalg.norm(h0) < 1e-6


def test_extract_generator_driven(driven_system):
    grid, _, h_of_t = driven_system
    t_probe = 1.0
    b = extract_generator(h_of_t, t=t_probe, delta=1e-4, n_slices=256)
    target = h_of_t(t_probe)
    assert np.linalg.norm(b - target) / np.linalg.norm(target) < 1e-4


def test_extract_generator_hermitian(driven_system):
    grid, _, h_of_t = driven_system
    b = extract_generator(h_of_t, t=1.0, delta=1e-4, n_slices=64)
    from spectralqm import hermiticity_defect

    assert hermiticity_defect(b) < 1e-6


def test_extract_generator_validates_delta(driven_system):
    grid, h0, _ = driven_system
    with pytest.raises(ValueError):
        extract_generator(lambda t: h0, t=1.0, delta=-1.0)
    with pytest.raises(ValueError):
        extract_generator(lambda t: h0, t=0.0, delta=1e-4)


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

    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(inner(pairs[i][1], pairs[j][1])) < 1e-10


@pytest.mark.parametrize("dim, matrix_free, omega", [
    (1, False, 1.0), (2, False, 1.0), (1, True, 1.0), (2, True, 1.0),
    *[(dim, True, omega) for dim in (1, 2) for omega in (0.1, 10.0)],
], ids=["1", "2", "1-matrix-free", "2-matrix-free", "1-matrix-free-omega0.1",
        "1-matrix-free-omega10", "2-matrix-free-omega0.1", "2-matrix-free-omega10"])
def test_spectrum_subset_matches_full_eigh(dim, matrix_free, omega):
    # 1-D: a harmonic well on 256 points; 2-D: a 16x16 isotropic well, levels omega
    # times 1, 2, 2, 3, 3, 3.  omega = 0.1 and 10 span the block solver's
    # preconditioner scale.
    grid = make_grid(1, 256, 20.0, -10.0) if dim == 1 else make_grid(2, 16, 12.0, -6.0)
    op = hamiltonian(grid, sum(0.5 * omega**2 * x**2 for x in grid.meshes))
    h = to_dense(op)
    # the reference levels are the Rayleigh quotients of eigh's states: eigh's own
    # eigenvalues carry a rounding of about eps |H|, up to 6e-12 at omega = 10
    _, vecs = sla.eigh(h.matrix)
    full = np.einsum("ij,ij->j", vecs.conj(), h.matrix @ vecs).real
    pairs = spectrum(op if matrix_free else h, 6)
    assert np.max(np.abs(np.array([e for e, _ in pairs]) - full[:6])) <= 1e-12
    for energy, state in pairs:
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-12)
        v = state.amps.ravel()
        assert np.linalg.norm(h.matrix @ v - energy * v) <= 1e-9 * np.linalg.norm(v)


def _isotropic_well(n):
    # levels 1, 2, 2, 3, 3, 3: the 3-fold level splits by about 6e-5 on 16x16
    grid = make_grid(2, n, 12.0, -6.0)
    return hamiltonian(grid, sum(0.5 * x**2 for x in grid.meshes))


def test_spectrum_matrix_free_states_are_orthonormal():
    pairs = spectrum(_isotropic_well(16), 6)
    gram = np.array([[inner(a, b) for _, b in pairs] for _, a in pairs])
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-12


def _well_plus_momentum(grid):
    # H + 0.3 p: complex Hermitian, so a real state maps to a complex one
    return OperatorSum((hamiltonian(grid, sum(0.5 * x**2 for x in grid.meshes)),
                        momentum_op(grid, 0, hbar=0.3)))


def test_spectrum_of_a_complex_operator_takes_the_dense_route():
    # 4 of 256 levels would run matrix-free, yet the probe sends the operator to to_dense
    op = _well_plus_momentum(make_grid(1, 256, 20.0, -10.0))
    full = sla.eigh(to_dense(op).matrix, eigvals_only=True)
    pairs = spectrum(op, 4)
    assert np.max(np.abs(np.array([e for e, _ in pairs]) - full[:4])) <= 1e-12


def test_spectrum_refuses_a_complex_operator_above_the_dense_limit():
    op = _well_plus_momentum(make_grid(2, 128, 12.0, -6.0))
    with pytest.raises(ValueError, match="maps real states to complex ones") as caught:
        spectrum(op, 6)
    assert "\n" not in str(caught.value)


def test_spectrum_real_route_takes_any_order_of_parts():
    # the solver sums the samples of each kind of part, so the order of the parts
    # moves neither the route nor a bit of the levels
    op = _isotropic_well(16)
    reversed_op = OperatorSum(op.parts[::-1])
    assert [e for e, _ in spectrum(reversed_op, 6)] == [e for e, _ in spectrum(op, 6)]


def test_spectrum_solver_follows_the_share_of_levels(monkeypatch):
    # 256 points: up to 17 levels the block solver's basis of 3 (17 + 4) = 63
    # states fits in N/4 = 64; from 18 levels (66 states) the dense eigh runs
    grid = make_grid(1, 256, 20.0, -10.0)
    op = hamiltonian(grid, 0.5 * grid.meshes[0] ** 2)
    built = []

    def counting_to_dense(h):
        built.append(h)
        return to_dense(h)

    monkeypatch.setattr(evolution, "to_dense", counting_to_dense)
    spectrum(op, 17)
    assert built == []
    spectrum(op, 18)
    assert built == [op]


def test_spectrum_refuses_a_krylov_basis_above_the_dense_limit():
    # 300 of 32768 levels: the block solver's basis of 3 (300 + 4) = 912 states is
    # below N/4, but would hold more entries than the largest dense matrix
    grid = make_grid(2, [256, 128], 12.0, -6.0)
    op = hamiltonian(grid, sum(0.5 * x**2 for x in grid.meshes))
    with pytest.raises(ValueError, match="dense limit"):
        spectrum(op, 300)


def _count_solver_transforms(monkeypatch):
    """The states that go through the rfftn `_lowest_block` binds, one entry per call:
    its H products and its preconditioned residuals."""
    real_dft, counted = evolution._dft, []

    def counting_dft(name, a, axes):
        transform = real_dft(name, a, axes)
        if name != "rfftn":
            return transform

        def counting(x, out=None):
            counted.append(len(x))
            return transform(x, out=out)
        return counting

    monkeypatch.setattr(evolution, "_dft", counting_dft)
    return counted


def test_spectrum_steps_do_not_grow_with_the_kinetic_range(monkeypatch):
    # 1024 points over 20 length units: the kinetic term reaches 1.3e4 against a
    # level spacing of 1; single-vector Lanczos took about 6800 products here.
    # The solver transforms 628 states: 320 H products and 308 residuals.
    grid = make_grid(1, 1024, 20.0, -10.0)
    op = hamiltonian(grid, 0.5 * grid.meshes[0] ** 2)
    transformed = _count_solver_transforms(monkeypatch)
    real_apply, applied = OperatorSum._apply_amps, []

    def counting_apply(self, amps):
        applied.append(amps.shape)
        return real_apply(self, amps)

    monkeypatch.setattr(OperatorSum, "_apply_amps", counting_apply)
    pairs = spectrum(op, 4)
    assert sum(transformed) < 1000
    assert applied == [grid.shape]  # the probe alone: the solver applies H from its samples
    full = sla.eigh(to_dense(op).matrix, eigvals_only=True)
    assert np.max(np.abs(np.array([e for e, _ in pairs]) - full[:4])) <= 1e-11


def test_spectrum_preconditions_the_kinetic_term_of_a_nested_sum(monkeypatch):
    # the 256-point well as a sum whose first part is itself a sum: the solver's
    # preconditioner must see the kinetic term inside it (it transforms 604 states)
    grid = make_grid(1, 256, 20.0, -10.0)
    half = 0.25 * grid.meshes[0] ** 2
    op = OperatorSum((hamiltonian(grid, half), potential_op(grid, half)))
    transformed = _count_solver_transforms(monkeypatch)
    pairs = spectrum(op, 4)
    assert sum(transformed) < 1000
    full = sla.eigh(to_dense(op).matrix, eigvals_only=True)
    assert np.max(np.abs(np.array([e for e, _ in pairs]) - full[:4])) <= 1e-12


class Shift(LinearOperator):
    """2 I on one grid: a summand that is neither diagonal nor spectral."""

    label = "2I"

    def __init__(self, grid):
        self.grid = grid

    def _apply_amps(self, amps):
        return 2 * amps


def test_spectrum_applies_a_custom_summand_through_its_own_apply():
    grid = make_grid(1, 256, 20.0, -10.0)
    op = OperatorSum((hamiltonian(grid, 0.5 * grid.meshes[0] ** 2), Shift(grid)))
    levels = np.array([e for e, _ in spectrum(op, 4)])
    assert np.max(np.abs(levels - [2.5, 3.5, 4.5, 5.5])) <= 1e-12


def test_spectrum_sends_a_slightly_complex_operator_to_the_dense_route(monkeypatch):
    # H + 1e-5 p maps the probe to an imaginary share of 7.8e-7 of its largest
    # magnitude: above REALNESS_TOL, yet far below any loose tolerance.  Solved
    # matrix-free, its odd part would be lost, and its levels off by 1.7e-5.
    grid = make_grid(1, 256, 20.0, -10.0)
    op = OperatorSum((hamiltonian(grid, 0.5 * grid.meshes[0] ** 2), momentum_op(grid, 0, 1e-5)))
    built = []

    def counting_to_dense(h):
        built.append(h)
        return to_dense(h)

    monkeypatch.setattr(evolution, "to_dense", counting_to_dense)
    pairs = spectrum(op, 4)
    assert built == [op]
    full = sla.eigh(to_dense(op).matrix, eigvals_only=True)
    assert np.max(np.abs(np.array([e for e, _ in pairs]) - full[:4])) <= 1e-12


@pytest.mark.parametrize("n_levels", [15, 16])
def test_spectrum_dense_fallback_matches_full_eigh(n_levels):
    # a block basis of 3 (n_levels + 4) states above N/4 goes through to_dense and the subset eigh
    grid = make_grid(1, 16, 8.0, -4.0)
    op = hamiltonian(grid, 0.5 * grid.meshes[0] ** 2)
    full = sla.eigh(to_dense(op).matrix, eigvals_only=True)
    pairs = spectrum(op, n_levels)
    assert len(pairs) == n_levels
    assert np.max(np.abs(np.array([e for e, _ in pairs]) - full[:n_levels])) <= 1e-12


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


# ---------------------------------------------------------------------------
# the BLAS thread limit
# ---------------------------------------------------------------------------


def test_single_blas_thread_limits_and_restores_every_pool(blas_threads):
    before = blas_threads()
    with evolution._single_blas_thread():
        assert blas_threads() == [1] * len(before)
    assert blas_threads() == before
    with pytest.raises(RuntimeError, match="injected"):
        with evolution._single_blas_thread():
            raise RuntimeError("injected")
    assert blas_threads() == before


def test_matrix_free_spectrum_runs_on_one_blas_thread(monkeypatch, blas_threads):
    real_solver, seen = evolution._lowest_block, []

    def spying_solver(*args, **kwargs):
        seen.append(blas_threads())
        return real_solver(*args, **kwargs)

    monkeypatch.setattr(evolution, "_lowest_block", spying_solver)
    before = blas_threads()
    spectrum(_isotropic_well(16), 6)
    assert seen and all(counts == [1] * len(before) for counts in seen)
    assert blas_threads() == before


def test_spectrum_restores_the_blas_threads_when_it_does_not_converge(monkeypatch, blas_threads):
    monkeypatch.setattr(evolution, "BLOCK_MAX_STEPS", 1)
    before = blas_threads()
    with pytest.raises(ValueError, match="spectrum did not converge"):
        spectrum(_isotropic_well(16), 6)
    assert blas_threads() == before


def test_dense_spectrum_and_split_step_keep_the_default_blas_threads(monkeypatch, blas_threads,
                                                                    harmonic_setup):
    before, seen = blas_threads(), []

    def spying(real):
        def spy(*args, **kwargs):
            seen.append(blas_threads())
            return real(*args, **kwargs)
        return spy

    monkeypatch.setattr(sla, "eigh", spying(sla.eigh))
    monkeypatch.setattr(evolution, "_weighted_sums", spying(evolution._weighted_sums))
    grid = make_grid(1, 128, 20.0, -10.0)
    spectrum(to_dense(hamiltonian(grid, 0.5 * grid.meshes[0] ** 2)), 5)
    assert len(seen) == 1
    grid, u, force = harmonic_setup
    split_step(gaussian_packet(grid, 1.0, 0.0, 1.0), u, 1.0, 1.0, 0.01, 20, record_every=5,
               force_samples=[force])
    assert len(seen) > 1 and all(counts == before for counts in seen)
