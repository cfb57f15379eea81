"""End-to-end CLI tests: exit codes, file formats, determinism."""

import csv
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import spectralqm
from spectralqm import checks, cli, evolution, scenarios
from spectralqm.cli import main
from spectralqm.grids import gaussian_packet, make_grid


def write_config(tmp_path: Path, name: str, data: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


HARMONIC_CONFIG = {
    "name": "harmonic-cli",
    "grid": {"dim": 1, "n": 256, "length": 20.0, "origin": -10.0},
    "potential": {"kind": "harmonic", "omega": 1.0},
    "initial": {"kind": "gaussian", "x0": 1.0, "p0": 0.0, "sigma": 1.0},
    "dt": 1e-4,
    "steps": 400,
    "record_every": 10,
    "seed": 7,
}


@pytest.fixture
def harmonic_config_path(tmp_path):
    return write_config(tmp_path, "harmonic.json", HARMONIC_CONFIG)


@pytest.fixture
def free_config_path(tmp_path):
    return write_config(tmp_path, "free.json", {
        "name": "free-cli",
        "grid": {"dim": 1, "n": 128, "length": 40.0, "origin": -20.0},
        "potential": {"kind": "free"},
        "initial": {"kind": "gaussian", "x0": -2.0, "p0": 1.0, "sigma": 1.0},
        "dt": 1e-3,
        "steps": 100,
        "record_every": 10,
        "seed": 7,
    })


def read_csv(path: Path):
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_writes_expected_csv(tmp_path, harmonic_config_path):
    out = tmp_path / "out"
    assert main(["evolve", "--config", harmonic_config_path, "--out", str(out)]) == 0
    header, rows = read_csv(out / "harmonic-cli_trajectory.csv")
    assert header == ["t", "norm", "x_mean", "p_mean", "u_mean", "f_mean", "energy",
                      "ehrenfest_v_resid", "ehrenfest_f_resid"]
    assert len(rows) == 400 // 10 + 1
    # residual columns are empty exactly at the endpoint rows
    assert rows[0][7] == "" and rows[-1][7] == ""
    assert rows[1][7] != "" and rows[1][8] != ""
    energies = np.array([float(r[6]) for r in rows])
    assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-8


def test_evolve_residual_columns_match_three_point_formula(tmp_path):
    path = write_config(tmp_path, "heavy.json", {
        "name": "heavy-cli",
        "grid": {"dim": 1, "n": 128, "length": 20.0, "origin": -10.0},
        "potential": {"kind": "harmonic", "omega": 1.5},
        "initial": {"kind": "gaussian", "x0": 1.0, "p0": 0.5, "sigma": 1.0},
        "dt": 1e-3,
        "steps": 300,
        "record_every": 3,
        "mass": 2.0,
    })
    out = tmp_path / "out"
    assert main(["evolve", "--config", path, "--out", str(out)]) == 0
    _, rows = read_csv(out / "heavy-cli_trajectory.csv")
    t, x, p, f = (np.array([float(r[c]) for r in rows]) for c in (0, 2, 3, 5))
    h = t[1] - t[0]
    v_expected = np.abs((x[2:] - x[:-2]) / (2 * h) - p[1:-1] / 2.0)
    f_expected = np.abs((p[2:] - p[:-2]) / (2 * h) - f[1:-1])
    v_resid = np.array([float(r[7]) for r in rows[1:-1]])
    f_resid = np.array([float(r[8]) for r in rows[1:-1]])
    assert np.array_equal(v_resid, v_expected)
    assert np.array_equal(f_resid, f_expected)


def test_evolve_csv_is_strict_rfc4180(tmp_path, harmonic_config_path):
    out = tmp_path / "out"
    main(["evolve", "--config", harmonic_config_path, "--out", str(out)])
    raw = (out / "harmonic-cli_trajectory.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    text = raw.decode("utf-8")
    for line in text.strip().split("\n"):
        assert len(line.split(",")) == 9


def _old_csv_cell(cell) -> str:
    """The per-cell rule that write_csv's templates replace, kept as their oracle."""
    if cell is None:
        return ""
    return format(float(cell), ".17g") if isinstance(cell, float) else str(cell)


def test_write_csv_templates_give_the_per_cell_bytes(tmp_path):
    specials = [-0.0, 5e-324, 1e308, float("inf"), -float("inf"), float("nan"), 0.1,
                np.float64(-0.0), np.float64(5e-324), np.float64(1 / 3), np.float64("nan")]
    others = [0, -7, np.int64(12), np.int32(-3), True, False, None, "x"]
    rows = [specials, others, others[::-1] + specials, [None] * 3, [1.5, None, 2], [None, 1.5, 2],
            (np.float64(2.5), 3, None), specials]
    path = tmp_path / "t.csv"
    cli.write_csv(path, ["a", "b"], rows)
    want = "\n".join(["a,b", *(",".join(map(_old_csv_cell, row)) for row in rows)]) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


def _old_csv_bytes(header, rows) -> bytes:
    return ("\n".join([",".join(header), *(",".join(map(_old_csv_cell, row)) for row in rows)])
            + "\n").encode("utf-8")


@pytest.mark.parametrize("count", [0, 1, cli._CSV_BLOCK - 1, cli._CSV_BLOCK,
                                   2 * cli._CSV_BLOCK + 7])
def test_write_csv_streams_a_generator_to_the_bytes_of_a_list(tmp_path, count):
    # None cells, and the pattern of cell types changing in the middle of a block
    def row(i):
        if i % 997 == 5:
            return (i, None, "x")
        return (i * 0.1, None if i % 3 else np.float64(-i / 7), 1e300 * i)

    rows = [row(i) for i in range(count)]
    cli.write_csv(tmp_path / "list.csv", ["a", "b", "c"], rows)
    cli.write_csv(tmp_path / "gen.csv", ["a", "b", "c"], (row(i) for i in range(count)))
    want = _old_csv_bytes(["a", "b", "c"], rows)
    assert (tmp_path / "list.csv").read_bytes() == want
    assert (tmp_path / "gen.csv").read_bytes() == want


def _scenario():
    return cli.ScenarioConfig.from_dict(HARMONIC_CONFIG)


def _synthetic_trajectory(records: int) -> evolution.Trajectory:
    rng = np.random.default_rng(records)
    psi = gaussian_packet(make_grid(1, 16, 8.0, -4.0), 0.0, 0.0, 0.5)
    return evolution.Trajectory(
        times=np.arange(records) * 1e-3, states=(psi,), norm=1.0 + rng.normal(0.0, 1e-14, records),
        x_mean=rng.normal(size=(records, 1)), p_mean=rng.normal(size=(records, 1)),
        u_mean=rng.random(records), f_mean=rng.normal(size=(records, 1)),
        energy=rng.random(records), mass=2.0)


@pytest.mark.parametrize("records", [1, 2, 3, cli._CSV_BLOCK, cli._CSV_BLOCK + 1,
                                     cli._CSV_BLOCK + 2, 2 * cli._CSV_BLOCK + 3])
def test_trajectory_csv_blocks_give_the_old_rows(tmp_path, capsys, records):
    # the oracle: whole columns zipped, residuals None at the two endpoint rows
    traj = _synthetic_trajectory(records)
    columns = [traj.times, traj.norm, traj.x_mean[:, 0], traj.p_mean[:, 0], traj.u_mean,
               traj.f_mean[:, 0], traj.energy]
    residuals = [[None] * records for _ in range(2)]
    if records >= 3:
        v, f, interior = checks._ehrenfest_residuals(traj, float(traj.times[1] - traj.times[0]), 2)
        residuals[0][interior], residuals[1][interior] = v[:, 0].tolist(), f[:, 0].tolist()
    cli._write_evolve(tmp_path, dataclasses.replace(_scenario(), name="synthetic"), traj)
    header = ["t", "norm", "x_mean", "p_mean", "u_mean", "f_mean", "energy",
              "ehrenfest_v_resid", "ehrenfest_f_resid"]
    want = _old_csv_bytes(header, zip(*(c.tolist() for c in columns), *residuals))
    assert (tmp_path / "synthetic_trajectory.csv").read_bytes() == want
    assert f"({records} records)" in capsys.readouterr().out


def test_trajectory_csv_write_holds_one_block_not_every_record(tmp_path, capsys):
    # the whole-file writer held ~920 B per record: 17.6 MiB at 20 001 records, 69.9 at 80 001
    peaks = {}
    for records in (20_001, 80_001):
        traj = _synthetic_trajectory(records)
        tracemalloc.start()
        try:
            cli._write_evolve(tmp_path, _scenario(), traj)
            peaks[records] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[20_001] <= 6 * 2**20
    assert (peaks[80_001] - peaks[20_001]) / 60_000 <= 64


def test_evolve_with_two_records_writes_the_old_bytes(tmp_path):
    # steps = record_every: the first and last records only, so every residual cell is empty
    data = dict(HARMONIC_CONFIG, steps=10, record_every=10)
    out = tmp_path / "out"
    assert main(["evolve", "--config", write_config(tmp_path, "two.json", data),
                 "--out", str(out)]) == 0
    traj = cli.run(cli.ScenarioConfig.from_dict(data))
    rows = [[*map(float, cells), None, None] for cells in zip(
        traj.times, traj.norm, traj.x_mean[:, 0], traj.p_mean[:, 0], traj.u_mean,
        traj.f_mean[:, 0], traj.energy)]
    assert len(rows) == 2
    raw = (out / "harmonic-cli_trajectory.csv").read_bytes()
    assert raw == _old_csv_bytes(["t", "norm", "x_mean", "p_mean", "u_mean", "f_mean", "energy",
                                  "ehrenfest_v_resid", "ehrenfest_f_resid"], rows)
    assert raw.count(b",,") == 2 and raw.endswith(b",\n")


def test_evolve_free_momentum_column_constant(tmp_path, free_config_path):
    out = tmp_path / "out"
    assert main(["evolve", "--config", free_config_path, "--out", str(out)]) == 0
    _, rows = read_csv(out / "free-cli_trajectory.csv")
    p = np.array([float(r[3]) for r in rows])
    assert np.max(np.abs(p - p[0])) < 1e-10


def test_evolve_byte_identical_reruns(tmp_path, harmonic_config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["evolve", "--config", harmonic_config_path, "--out", str(out1)])
    main(["evolve", "--config", harmonic_config_path, "--out", str(out2)])
    csv1 = (out1 / "harmonic-cli_trajectory.csv").read_bytes()
    csv2 = (out2 / "harmonic-cli_trajectory.csv").read_bytes()
    assert csv1 == csv2


def test_evolve_manifest_lists_existing_outputs(tmp_path, harmonic_config_path):
    out = tmp_path / "out"
    main(["evolve", "--config", harmonic_config_path, "--out", str(out)])
    manifest = json.loads((out / "evolve_manifest.json").read_text())
    assert manifest["command"] == "evolve"
    assert manifest["seed"] == 7
    for produced in manifest["outputs"]:
        assert Path(produced).exists()
    # the config round-trips through the manifest
    assert manifest["config"]["steps"] == 400


def test_evolve_manifest_records_steps_per_second(tmp_path, harmonic_config_path):
    out = tmp_path / "out"
    main(["evolve", "--config", harmonic_config_path, "--out", str(out)])
    manifest = json.loads((out / "evolve_manifest.json").read_text())
    assert manifest["steps_per_second"] > 0


def test_evolve_missing_config_is_usage_error(tmp_path):
    assert main(["evolve", "--config", str(tmp_path / "nope.json")]) == 2


def test_evolve_unknown_config_key_names_it(tmp_path, capsys):
    path = write_config(tmp_path, "bad.json", {
        "name": "x",
        "grid": {"dim": 1, "n": 64, "length": 10.0, "origin": -5.0},
        "potential": {"kind": "free"},
        "initial": {"kind": "gaussian", "x0": 0.0, "p0": 0.0, "sigma": 1.0},
        "dt": 1e-3, "steps": 10, "record_every": 10,
        "typo_key": 1,
    })
    assert main(["evolve", "--config", path]) == 2
    assert "typo_key" in capsys.readouterr().err


def grid_without(key):
    return {k: v for k, v in HARMONIC_CONFIG["grid"].items() if k != key}


@pytest.mark.parametrize("overrides, named", [
    ({"dt": float("nan")}, "dt"),
    ({"dt": "1e-3"}, "dt"),
    ({"steps": 400.0}, "steps"),
    ({"record_every": 10.0}, "record_every"),
    ({"grid": grid_without("n")}, "'n'"),
    ({"grid": grid_without("length")}, "'length'"),
    ({"grid": grid_without("origin")}, "'origin'"),
    ({"initial": {"kind": "gaussian", "x0": 1.0, "p0": 0.0}}, "'sigma'"),
    ({"potential": {"kind": "harmonic", "omega": "1.0"}}, "omega"),
    # a 401-digit integer is beyond the largest double: refused, not an OverflowError
    ({"steps": 10**400}, "steps"),
    ({"seed": 10**400}, "seed"),
    ({"grid": dict(HARMONIC_CONFIG["grid"], n=10**400)}, "grid.n"),
    ({"dt": 10**400}, "dt"),
    ({"initial": dict(HARMONIC_CONFIG["initial"], x0=10**400)}, "initial.x0"),
], ids=["dt-nan", "dt-string", "steps-float", "record-every-float", "grid-without-n",
        "grid-without-length", "grid-without-origin", "initial-without-sigma",
        "omega-string", "steps-huge-int", "seed-huge-int", "n-huge-int", "dt-huge-int",
        "x0-huge-int"])
def test_evolve_bad_config_value_is_usage_error(tmp_path, capsys, overrides, named):
    path = write_config(tmp_path, "bad.json", dict(HARMONIC_CONFIG, **overrides))
    out = tmp_path / "out"
    assert main(["evolve", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert not out.exists()


@pytest.mark.parametrize("name", [
    "../../escape", "sub/escape", "..\\escape", "..", ".",
    # a file name holds no NUL and is UTF-8, and <name>_trajectory.csv fits in 255 bytes
    pytest.param("a\u0000b", id="nul"),
    pytest.param("\ud800", id="lone-surrogate"),
    pytest.param("\u00e9" * 120 + "x", id="241-bytes"),
])
def test_evolve_name_must_be_a_plain_file_stem(tmp_path, name):
    path = write_config(tmp_path, "bad.json", dict(HARMONIC_CONFIG, name=name))
    before = set(tmp_path.rglob("*"))
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "a" / "b" / "out")]) == 2
    assert set(tmp_path.rglob("*")) == before


def test_evolve_name_of_240_bytes_runs(tmp_path):
    # 120 two-byte letters: <name>_trajectory.csv is 255 bytes, the longest file name allowed
    name = "\u00e9" * 120
    path = write_config(tmp_path, "long.json", dict(HARMONIC_CONFIG, name=name))
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / f"{name}_trajectory.csv").exists()


def test_evolve_integer_dt_beyond_int64_runs_as_its_float(tmp_path):
    # numpy takes no int beyond int64, but the config rule admits any int up to the largest double
    written = []
    for dt in (10**20, 1e20):
        path = write_config(tmp_path, "dt.json", dict(HARMONIC_CONFIG, dt=dt))
        out = tmp_path / f"out{len(written)}"
        assert main(["evolve", "--config", path, "--out", str(out)]) == 0
        written.append((out / "harmonic-cli_trajectory.csv").read_bytes())
    assert written[0] == written[1]


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_harmonic_levels(tmp_path, harmonic_config_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", harmonic_config_path, "--out", str(out),
                 "--levels", "5"]) == 0
    header, rows = read_csv(out / "harmonic-cli_spectrum.csv")
    assert header == ["level", "energy", "analytic_energy", "abs_error"]
    assert len(rows) == 5
    for k, row in enumerate(rows):
        assert float(row[1]) == pytest.approx(k + 0.5, abs=1e-6)
        assert float(row[3]) < 1e-6


def test_spectrum_free_has_empty_analytic_column(tmp_path, free_config_path):
    out = tmp_path / "out"
    assert main(["spectrum", "--config", free_config_path, "--out", str(out),
                 "--levels", "1"]) == 0
    _, rows = read_csv(out / "free-cli_spectrum.csv")
    assert abs(float(rows[0][1])) < 1e-10
    assert rows[0][2] == "" and rows[0][3] == ""


def test_spectrum_analytic_levels_take_the_magnitude_of_omega(tmp_path):
    # omega and -omega give the same well; omega = 0 is the flat periodic box
    csv_bytes = {}
    for omega in (1.0, -1.0, 0.0):
        data = dict(HARMONIC_CONFIG, potential={"kind": "harmonic", "omega": omega})
        out = tmp_path / f"out{omega}"
        assert main(["spectrum", "--config", write_config(tmp_path, f"{omega}.json", data),
                     "--out", str(out), "--levels", "3"]) == 0
        csv_bytes[omega] = (out / "harmonic-cli_spectrum.csv").read_bytes()
    assert csv_bytes[-1.0] == csv_bytes[1.0]
    _, rows = read_csv(tmp_path / "out0.0" / "harmonic-cli_spectrum.csv")
    assert len(rows) == 3 and all(row[2] == "" and row[3] == "" for row in rows)


def test_spectrum_analytic_levels_follow_the_potential_table(tmp_path, monkeypatch):
    # the harmonic default omega lives in scenarios' table alone: at omega = 2 the levels
    # are 2 (n + 1/2)
    keys, power, _ = scenarios._POTENTIALS["harmonic"]
    monkeypatch.setitem(scenarios._POTENTIALS, "harmonic",
                        (keys, power, lambda spec: np.float64(spec.get("omega", 2.0)) ** 2))
    data = dict(HARMONIC_CONFIG, potential={"kind": "harmonic"})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", write_config(tmp_path, "default.json", data),
                 "--out", str(out), "--levels", "3"]) == 0
    _, rows = read_csv(out / "harmonic-cli_spectrum.csv")
    assert [float(r[2]) for r in rows] == [1.0, 3.0, 5.0]
    assert all(float(r[1]) == pytest.approx(float(r[2]), abs=1e-6) for r in rows)
    assert all(float(r[3]) < 1e-6 for r in rows)


def test_spectrum_too_many_levels_is_usage_error(tmp_path, free_config_path):
    assert main(["spectrum", "--config", free_config_path, "--levels", "999",
                 "--out", str(tmp_path / "o")]) == 2


def test_spectrum_2d_harmonic_levels_are_degenerate(tmp_path):
    path = write_config(tmp_path, "well2d.json", {
        "name": "well-2d",
        "grid": {"dim": 2, "n": [16, 16], "length": [10.0, 10.0], "origin": [-5.0, -5.0]},
        "potential": {"kind": "harmonic", "omega": 1.0},
        "initial": {"kind": "gaussian", "x0": [0.0, 0.0], "p0": [0.0, 0.0],
                    "sigma": [1.0, 1.0]},
        "dt": 1e-3,
        "steps": 1,
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", path, "--out", str(out), "--levels", "6"]) == 0
    _, rows = read_csv(out / "well-2d_spectrum.csv")
    assert [float(r[2]) for r in rows] == [1.0, 2.0, 2.0, 3.0, 3.0, 3.0]
    assert all(float(r[3]) < 1e-6 for r in rows)


def test_spectrum_analytic_levels_use_the_mass(tmp_path):
    # U = omega^2 x^2 / 2 with m = 4, omega = 2 oscillates at omega / sqrt(m) = 1
    path = write_config(tmp_path, "massive.json", {
        "name": "massive",
        "grid": {"dim": 1, "n": 128, "length": 24.0, "origin": -12.0},
        "potential": {"kind": "harmonic", "omega": 2.0},
        "initial": {"kind": "gaussian", "x0": 0.0, "p0": 0.0, "sigma": 1.0},
        "dt": 1e-3,
        "steps": 1,
        "mass": 4.0,
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", path, "--out", str(out), "--levels", "3"]) == 0
    _, rows = read_csv(out / "massive_spectrum.csv")
    assert [float(r[2]) for r in rows] == [0.5, 1.5, 2.5]
    assert all(float(r[3]) < 1e-6 for r in rows)


def test_spectrum_level_check_precedes_dense_build(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, "big.json", {
        "name": "big",
        "grid": {"dim": 2, "n": [64, 64], "length": [10.0, 10.0], "origin": [-5.0, -5.0]},
        "potential": {"kind": "harmonic", "omega": 1.0},
        "initial": {"kind": "gaussian", "x0": [0.0, 0.0], "p0": [0.0, 0.0],
                    "sigma": [1.0, 1.0]},
        "dt": 1e-3,
        "steps": 1,
    })

    def no_solve(*args, **kwargs):
        raise AssertionError("spectrum solver called before the level check")

    monkeypatch.setattr(cli, "compute_spectrum", no_solve)
    for levels in ("4097", "0", "-1"):
        out = tmp_path / f"o{levels}"
        assert main(["spectrum", "--config", path, "--levels", levels,
                     "--out", str(out)]) == 2
        assert f"requested {levels} levels" in capsys.readouterr().err
        assert not out.exists()


def test_spectrum_reruns_are_byte_identical(tmp_path, harmonic_config_path):
    texts = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["spectrum", "--config", harmonic_config_path, "--out", str(out),
                     "--levels", "6"]) == 0
        texts.append((out / "harmonic-cli_spectrum.csv").read_bytes())
    assert texts[0] == texts[1]


def test_spectrum_without_convergence_is_usage_error(tmp_path, monkeypatch, capsys,
                                                     harmonic_config_path):
    monkeypatch.setattr(evolution, "BLOCK_MAX_STEPS", 1)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", harmonic_config_path, "--out", str(out),
                 "--levels", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: spectrum did not converge") and err.count("\n") == 1
    assert not out.exists()


def _big_well(tmp_path, n):
    return write_config(tmp_path, "well-big.json", {
        "name": "well-big",
        "grid": {"dim": 2, "n": n, "length": [16.0, 16.0], "origin": [-8.0, -8.0]},
        "potential": {"kind": "harmonic", "omega": 1.0},
        "initial": {"kind": "gaussian", "x0": [0.0, 0.0], "p0": [0.0, 0.0],
                    "sigma": [1.0, 1.0]},
        "dt": 1e-3,
        "steps": 1,
    })


def test_spectrum_runs_above_the_dense_cap(tmp_path):
    # 128x128 = 16384 points, more than the 4096 a dense matrix may have; on a
    # square grid levels 2 and 3 are exactly degenerate, which single-vector
    # Lanczos alone can miss
    out = tmp_path / "out"
    assert main(["spectrum", "--config", _big_well(tmp_path, [128, 128]), "--out", str(out),
                 "--levels", "6"]) == 0
    _, rows = read_csv(out / "well-big_spectrum.csv")
    assert [float(r[2]) for r in rows] == [1.0, 2.0, 2.0, 3.0, 3.0, 3.0]
    assert all(float(r[3]) < 1e-6 for r in rows)


def test_spectrum_many_levels_above_the_dense_cap_is_usage_error(tmp_path, capsys):
    # 8000 of 8192 levels would need a dense matrix above the cap (or an ARPACK
    # basis of nearly all 8192 states); the run stops before allocating either
    out = tmp_path / "out"
    assert main(["spectrum", "--config", _big_well(tmp_path, [128, 64]), "--out", str(out),
                 "--levels", "8000"]) == 2
    err = capsys.readouterr().err
    assert "dense limit" in err and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_default_passes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "FAIL" not in stdout
    reports = json.loads((out / "verify_reports.json").read_text())
    assert len(reports) >= 10
    assert all(r["passed"] for r in reports)
    for r in reports:
        assert set(r) == {"name", "tag", "residual", "tolerance", "passed", "details"}


def test_verify_report_of_a_raising_group_reads_back_as_json(tmp_path, monkeypatch):
    def _raising_group(config):
        raise RuntimeError("the group broke")

    (_, names), *rest = checks._SUITE
    monkeypatch.setattr(checks, "_SUITE", ((_raising_group, names), *rest))
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == 1
    reports = {r["name"]: r for r in json.loads((out / "verify_reports.json").read_text())}
    assert len(reports) == 20
    for name, _ in names:
        assert reports[name]["residual"] == math.inf and not reports[name]["passed"]
    json.loads((out / "verify_manifest.json").read_text())
    # a non-finite float is written as json.dumps writes it; a finite one at 17 digits
    values = [math.inf, -math.inf, math.nan, np.float64(-math.inf), 0.1]
    assert cli._json_value(values) == "[Infinity, -Infinity, NaN, -Infinity, 0.10000000000000001]"
    np.testing.assert_array_equal(json.loads(cli._json_value(values)), values)


def test_verify_zero_tolerance_scale_fails(tmp_path):
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out), "--tolerance-scale", "0"]) == 1


def test_verify_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["verify", "--out", str(out1), "--seed", "42"])
    main(["verify", "--out", str(out2), "--seed", "42"])
    r1 = (out1 / "verify_reports.json").read_bytes()
    r2 = (out2 / "verify_reports.json").read_bytes()
    assert r1 == r2


def test_verify_rejects_unknown_config_key(tmp_path, capsys):
    path = write_config(tmp_path, "v.json", {"tolerance_scales": 2.0})
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "tolerance_scales" in capsys.readouterr().err


@pytest.mark.parametrize("config, flags, named", [
    ({"seed": "abc"}, [], "seed"),
    ({"norm_n": 3.5}, [], "norm_n"),
    ({"norm_steps": 2.5}, [], "norm_steps"),
    ({"norm_record_every": 0}, [], "norm_record_every"),
    ({"tolerance_scale": "x"}, [], "tolerance_scale"),
    ({}, ["--tolerance-scale", "nan"], "tolerance_scale"),
    ({}, ["--tolerance-scale", "-1"], "tolerance_scale"),
    ({"commutant_sizes": 5}, [], "commutant_sizes"),
    ({"commutant_sizes": []}, [], "commutant_sizes"),
    ([1], [], "JSON object"),
    # the suite's sizes are fixed, so a config cannot thin out the certificate
    ({"parseval_states": 1}, [], "parseval_states"),
    ({"norm_steps": 100}, [], "norm_steps"),
    # a 401-digit integer is beyond the doubles, in the file or from --seed
    ({"seed": 10**400}, [], "seed"),
    ({}, ["--seed", str(10**400)], "seed"),
], ids=["seed-string", "norm-n-float", "norm-steps-float", "record-every-zero",
        "tolerance-scale-string", "tolerance-scale-nan", "tolerance-scale-negative",
        "commutant-sizes-int", "commutant-sizes-empty", "top-level-list",
        "parseval-states-one", "norm-steps-fewer", "seed-huge-int", "seed-flag-huge-int"])
def test_verify_bad_config_value_is_usage_error(tmp_path, capsys, config, flags, named):
    path = write_config(tmp_path, "v.json", config)
    out = tmp_path / "o"
    assert main(["verify", "--config", path, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert not (out / "verify_reports.json").exists()


def test_verify_missing_config_file(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# diffract
# ---------------------------------------------------------------------------


@pytest.fixture
def fast_slit_config_path(tmp_path):
    from test_scenarios import fast_two_slit_config

    return write_config(tmp_path, "slit.json", fast_two_slit_config().as_dict())


def test_diffract_writes_csv_and_summary(tmp_path, fast_slit_config_path):
    out = tmp_path / "out"
    assert main(["diffract", "--config", fast_slit_config_path, "--out", str(out)]) == 0
    header, rows = read_csv(out / "two-slit-fast_intensity.csv")
    assert header == ["detector_position", "intensity"]
    assert len(rows) == 256
    summary = json.loads((out / "two-slit-fast_summary.json").read_text())
    assert summary["measured_fringe_spacing"] > 0
    expected = (2 * np.pi / 536.0) * 0.1 / 0.0586
    assert summary["fraunhofer_prediction"] == pytest.approx(expected, rel=1e-12)
    assert summary["relative_error"] < 0.15
    assert abs(summary["final_norm"] - 1.0) < 1e-8
    manifest = json.loads((out / "diffract_manifest.json").read_text())
    assert manifest["steps_per_second"] > 0


def test_diffract_single_slit_nulls_fringe_fields(tmp_path):
    from test_scenarios import fast_two_slit_config

    cfg = fast_two_slit_config(slit_separation=0.0)
    path = write_config(tmp_path, "single.json", cfg.as_dict())
    out = tmp_path / "out"
    assert main(["diffract", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "two-slit-fast_summary.json").read_text())
    assert summary["measured_fringe_spacing"] is None
    assert summary["fraunhofer_prediction"] is None
    # intensity CSV is still emitted
    assert (out / "two-slit-fast_intensity.csv").exists()


def test_diffract_blocked_wall_is_usage_error(tmp_path, capsys):
    from test_scenarios import fast_two_slit_config

    cfg = dataclasses.replace(fast_two_slit_config(slit_width=1e-9), steps=400, record_every=400)
    path = write_config(tmp_path, "blocked.json", cfg.as_dict())
    out = tmp_path / "out"
    assert main(["diffract", "--config", path, "--out", str(out)]) == 2
    assert "no transmitted amplitude" in capsys.readouterr().err
    assert not out.exists()


def test_diffract_without_peaks_is_usage_error(tmp_path, capsys):
    from test_scenarios import fast_two_slit_config

    # a detector just behind the wall leaves too narrow a paraxial window for two peaks
    cfg = fast_two_slit_config(positions={"wall": -0.02, "detector": -0.012})
    path = write_config(tmp_path, "close.json",
                        dataclasses.replace(cfg, steps=400, record_every=400).as_dict())
    out = tmp_path / "out"
    assert main(["diffract", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: could not locate interference peaks") and err.count("\n") == 1
    assert not out.exists()


def test_diffract_detector_outside_the_box_is_usage_error(tmp_path, capsys):
    from test_scenarios import fast_two_slit_config

    # x spans [-0.21, 0.21): a detector at 0.5 would read the edge column
    cfg = fast_two_slit_config(positions={"wall": -0.02, "detector": 0.5})
    path = write_config(tmp_path, "outside.json", cfg.as_dict())
    out = tmp_path / "out"
    assert main(["diffract", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "inside the box" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "evolve"])
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, harmonic_config_path, command):
    not_a_dir = tmp_path / "afile"
    not_a_dir.write_text("", encoding="utf-8")
    config = ["--config", harmonic_config_path] if command == "evolve" else []
    assert main([command, *config, "--out", str(not_a_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not_a_dir.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", ["verify", "evolve", "spectrum", "diffract"])
def test_out_that_cannot_be_written_stops_before_any_work(tmp_path, capsys, monkeypatch,
                                                          harmonic_config_path, command, out):
    calls = []
    for name in ("run_all", "run", "compute_spectrum", "run_diffraction"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    (tmp_path / "afile").write_text("", encoding="utf-8")
    config = [] if command == "verify" else ["--config", harmonic_config_path]
    assert main([command, *config, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "not a writable directory" in err
    assert calls == []
    assert (tmp_path / "afile").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("command", ["verify", "evolve", "spectrum", "diffract"])
def test_manifest_records_the_run(tmp_path, harmonic_config_path, fast_slit_config_path,
                                  command):
    config_path = {"verify": None, "evolve": harmonic_config_path,
                   "spectrum": harmonic_config_path, "diffract": fast_slit_config_path}[command]
    out = tmp_path / "out"
    config = ["--seed", "3"] if config_path is None else ["--config", config_path]
    assert main([command, *config, "--out", str(out)]) == 0
    manifest = json.loads((out / f"{command}_manifest.json").read_text())
    assert manifest["command"] == command
    # the resolved config round-trips through the manifest, verify's --seed included;
    # a scenario's seed comes from its config file, and --seed is verify's alone
    if config_path is None:
        expected = {"seed": 3, "tolerance_scale": 1.0}
    else:
        loaded = json.loads(Path(config_path).read_text())
        expected = spectralqm.ScenarioConfig.from_dict(loaded).as_dict()
        assert main([command, *config, "--seed", "3", "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
    assert manifest["config"] == expected
    assert manifest["seed"] == expected["seed"]
    assert manifest["outputs"]
    for produced in manifest["outputs"]:
        assert Path(produced).exists()
    phases = manifest["phase_seconds"]
    assert set(phases) == {"load", "compute", "write"}
    assert all(seconds >= 0 for seconds in phases.values())
    assert sum(phases.values()) <= manifest["duration_seconds"]
    if command in ("evolve", "diffract"):
        assert manifest["steps_per_second"] > 0
    else:
        assert "steps_per_second" not in manifest
    drift_fields = {"evolve": ("max_norm_drift", "relative_energy_drift"),
                    "diffract": ("norm_drift",)}.get(command, ())
    for field in ("max_norm_drift", "relative_energy_drift", "norm_drift"):
        assert (field in manifest) == (field in drift_fields)
    if command == "evolve":
        # the drifts of the written trajectory, whose 17-digit floats round-trip
        header, rows = read_csv(Path(manifest["outputs"][0]))
        norm, energy = (np.array([float(r[header.index(name)]) for r in rows])
                        for name in ("norm", "energy"))
        assert manifest["max_norm_drift"] == np.max(np.abs(norm - 1.0))
        assert manifest["relative_energy_drift"] == (np.max(np.abs(energy - energy[0]))
                                                     / abs(energy[0]))
        assert manifest["max_norm_drift"] < 1e-12
        assert manifest["relative_energy_drift"] < 1e-6
    elif command == "diffract":
        summary = json.loads(Path(manifest["outputs"][1]).read_text())
        assert manifest["norm_drift"] == abs(summary["final_norm"] - 1.0)
        assert manifest["norm_drift"] < 1e-12
    assert manifest["python_version"] == platform.python_version()
    assert manifest["numpy_version"] == np.__version__
    assert manifest["scipy_version"] == scipy.__version__
    assert manifest["cpu_count"] == os.cpu_count()
    # read after the run, so verify's and spectrum's one-thread limit is lifted
    assert manifest["blas_threads"] == [get() for get, _ in evolution._blas_pools()]
    assert all(threads >= 1 for threads in manifest["blas_threads"])
    if command == "verify":
        # one wall time per check group, all inside the compute phase
        groups = manifest["group_seconds"]
        assert list(groups) == ["harmonic", "quartic", "parseval", "commutator", "commutant",
                                "antihermitian", "field", "superposition", "gauge", "evolution"]
        assert all(seconds >= 0 for seconds in groups.values())
        assert sum(groups.values()) <= phases["compute"]
    else:
        assert "group_seconds" not in manifest


def test_manifest_energy_drift_is_null_from_zero_energy(tmp_path):
    # a free packet much wider than the box is flat to roundoff, so E(0) is exactly 0
    config = write_config(tmp_path, "flat.json", {
        "name": "flat", "grid": {"dim": 1, "n": 64, "length": 10.0, "origin": -5.0},
        "potential": {"kind": "free"},
        "initial": {"kind": "gaussian", "x0": 0.0, "p0": 0.0, "sigma": 1e10},
        "dt": 1e-3, "steps": 10})
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="leaves the box"):
        assert main(["evolve", "--config", config, "--out", str(out)]) == 0
    manifest = json.loads((out / "evolve_manifest.json").read_text())
    assert manifest["relative_energy_drift"] is None
    assert manifest["max_norm_drift"] < 1e-12


# the config change of each case: a tiny unit, or a huge unit or potential coefficient
OVERFLOWING_INPUTS = {
    "hbar": {"hbar": 1e-320},
    "mass": {"mass": 1e-320},
    "huge-hbar": {"hbar": 1e200},
    "huge-omega": {"potential": {"kind": "harmonic", "omega": 1e200}},
    "huge-a": {"potential": {"kind": "quartic", "a": 1e308}},
    "huge-a-force": {"grid": {"dim": 1, "n": 64, "length": 3.0, "origin": -1.5},
                     "potential": {"kind": "quartic", "a": 1e308},
                     "initial": {"kind": "gaussian", "x0": 0.0, "p0": 0.0, "sigma": 0.2}},
    "huge-box-2d": {"grid": {"dim": 2, "n": [16, 16], "length": 1e308, "origin": [-10.0, -10.0]},
                    "potential": {"kind": "free"}},
}


@pytest.mark.parametrize("command, unit", [
    ("evolve", "hbar"), ("evolve", "mass"), ("spectrum", "mass"),
    ("diffract", "hbar"), ("diffract", "mass"),
    *[(command, unit) for unit in ("huge-hbar", "huge-omega", "huge-a")
      for command in ("evolve", "spectrum")],
    ("evolve", "huge-a-force"), ("evolve", "huge-box-2d"),
])
def test_overflowing_unit_is_usage_error(tmp_path, capsys, harmonic_config_path,
                                         fast_slit_config_path, command, unit):
    # 1e-320 overflows U dt / hbar, the kinetic samples hbar^2 |k|^2 / (2 mass) or
    # p0 x / hbar to inf, whose exp is NaN.
    # spectrum with hbar 1e-320 is absent: hbar^2 |k|^2 underflows to an exact 0,
    # the correctly rounded value, so nothing non-finite arises.  hbar 1e200
    # overflows hbar^2 in the kinetic samples; omega 1e200 and a 1e308
    # overflow the potential samples.  On a box of length 3, a 1e308 leaves the
    # potential a x^4 / 4 finite but overflows the force a x^3, which only evolve uses.
    # A 2-D box of length 1e308 has a cell volume dx^2 that overflows to inf
    path = fast_slit_config_path if command == "diffract" else harmonic_config_path
    data = dict(json.loads(Path(path).read_text()), **OVERFLOWING_INPUTS[unit])
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", write_config(tmp_path, "tiny.json", data),
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err
    assert not out.exists()


# a list in place of a potential coefficient, and a bool grid.dim (isinstance counts a
# bool as an int), are refused before any work
@pytest.mark.parametrize("command, key", [
    *[(command, key) for command in ("evolve", "spectrum") for key in ("a", "omega", "dim")],
    *[("diffract", key)
      for key in ("slit_width", "slit_separation", "barrier_height", "barrier_thickness")],
])
def test_list_coefficient_or_bool_dim_is_usage_error(tmp_path, capsys, harmonic_config_path,
                                                     fast_slit_config_path, command, key):
    path = fast_slit_config_path if command == "diffract" else harmonic_config_path
    data = json.loads(Path(path).read_text())
    if key == "a":
        data["potential"] = {"kind": "quartic", "a": 1.0}
    section = "grid" if key == "dim" else "potential"
    data[section][key] = True if key == "dim" else [data[section][key]]
    out = tmp_path / "out"
    code = main([command, "--config", write_config(tmp_path, "bad.json", data), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"{section}.{key}" in err
    assert not out.exists()


# a list for a scalar key, or an empty list, is refused before any work: each of these
# once ended in a TypeError traceback with exit 1
@pytest.mark.parametrize("command, overrides, named", [
    ("evolve", {"mass": [1.0]}, "mass"),
    ("evolve", {"dt": [1e-3]}, "dt"),
    ("evolve", {"steps": []}, "steps"),
    ("evolve", {"record_every": []}, "record_every"),
    ("verify", {"seed": [1]}, "seed"),
], ids=["mass-list", "dt-list", "steps-empty", "record-every-empty", "verify-seed-list"])
def test_list_for_a_scalar_key_or_empty_list_is_usage_error(tmp_path, capsys, command,
                                                            overrides, named):
    data = overrides if command == "verify" else dict(HARMONIC_CONFIG, **overrides)
    out = tmp_path / "out"
    code = main([command, "--config", write_config(tmp_path, "bad.json", data), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert not out.exists()


def test_huge_sigma_runs_like_a_flat_packet(tmp_path):
    # sigma^2 overflows to inf, so the envelope is flat, as it is for sigma 1e150: the box
    # warning and finite rows with exit 0 (a Python-float sigma**2 raised OverflowError)
    data = dict(HARMONIC_CONFIG, initial=dict(HARMONIC_CONFIG["initial"], sigma=1e300))
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="leaves the box"):
        code = main(["evolve", "--config", write_config(tmp_path, "wide.json", data),
                     "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "harmonic-cli_trajectory.csv")
    assert np.isfinite([float(cell) for row in rows for cell in row if cell]).all()


@pytest.mark.parametrize("command", ["evolve", "spectrum", "diffract"])
def test_initial_list_of_the_wrong_length_is_usage_error(tmp_path, capsys, harmonic_config_path,
                                                         fast_slit_config_path, command):
    # spectrum never builds the initial state, so the config itself must refuse it
    path = fast_slit_config_path if command == "diffract" else harmonic_config_path
    data = json.loads(Path(path).read_text())
    data["initial"]["x0"] = [0.0] * (data["grid"]["dim"] + 2)
    out = tmp_path / "out"
    code = main([command, "--config", write_config(tmp_path, "bad.json", data), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "initial.x0" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("slit_width", -0.1), ("slit_width", 0.0), ("barrier_thickness", -0.05),
    ("barrier_thickness", 0.0), ("slit_separation", -0.02),
])
def test_slit_geometry_that_cannot_exist_is_usage_error(tmp_path, capsys, fast_slit_config_path,
                                                        key, value):
    # a negative width closes the slits, and a negative thickness removes the wall
    data = json.loads(Path(fast_slit_config_path).read_text())
    data["potential"][key] = value
    out = tmp_path / "out"
    code = main(["evolve", "--config", write_config(tmp_path, "bad.json", data), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"potential.{key}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "spectrum"])
def test_grid_too_large_to_allocate_is_usage_error(tmp_path, capsys, harmonic_config_path,
                                                   command):
    # 2**48 float64 samples take 2 PiB, beyond any 64-bit user address space, so
    # the first allocation fails at once rather than being granted lazily
    data = dict(HARMONIC_CONFIG, grid=dict(HARMONIC_CONFIG["grid"], n=2**48))
    out = tmp_path / "out"
    code = main([command, "--config", write_config(tmp_path, "big.json", data), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "allocate" in err
    assert not out.exists()


def test_usage_error_without_subcommand():
    assert main([]) == 2


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal is slow to import and large in memory; nothing needs it
    env = dict(os.environ, PYTHONPATH=str(Path(spectralqm.__file__).parents[1]))
    code = "import sys, spectralqm.cli; print('scipy.signal' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_leaves_the_blas_pools_unsearched():
    # the OpenBLAS pools are found on first use, so the import pays nothing for them
    env = dict(os.environ, PYTHONPATH=str(Path(spectralqm.__file__).parents[1]))
    code = ("import spectralqm.cli; from spectralqm import evolution; "
            "print(evolution._blas_pools.cache_info().misses)")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "0"


def _run_fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(spectralqm.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=False)


# scipy.fft and scipy.linalg take about 0.2 s to import, and scipy.fft loads
# scipy.special; a 1-D evolve needs none of them
LAZY_SCIPY = ("print(sorted(m for m in ('scipy.fft', 'scipy.linalg', 'scipy.special') "
              "if m in sys.modules))")


def test_cli_import_leaves_scipy_fft_and_linalg_unloaded():
    assert _run_fresh("-c", f"import sys, spectralqm.cli; {LAZY_SCIPY}").stdout.strip() == "[]"


def _main_in_a_fresh_process(argv: list[str]) -> list[str]:
    """The exit code of cli.main(argv) and the lazy scipy modules loaded after it."""
    result = _run_fresh("-c", f"import sys, spectralqm.cli as cli; print(cli.main({argv!r})); "
                              f"{LAZY_SCIPY}")
    return result.stdout.splitlines()[-2:]


def test_1d_evolve_leaves_scipy_fft_and_linalg_unloaded(harmonic_config_path, tmp_path):
    argv = ["evolve", "--config", harmonic_config_path, "--out", str(tmp_path / "out")]
    assert _main_in_a_fresh_process(argv) == ["0", "[]"]


@pytest.mark.parametrize("command", ["verify", "spectrum", "evolve"])
def test_numpy_only_commands_leave_scipy_fft_linalg_and_special_unloaded(command, tmp_path):
    # verify's dense algebra, the matrix-free spectrum's real transforms and a
    # full-grid (not mirror-even: p0 moves along axis 1) 2-D run all take numpy
    path = write_config(tmp_path, "well.json", {
        "name": "well-2d",
        "grid": {"dim": 2, "n": [32, 32], "length": [12.0, 12.0], "origin": [-6.0, -6.0]},
        "potential": {"kind": "harmonic", "omega": 1.0},
        "initial": {"kind": "gaussian", "x0": [0.0, 0.5], "p0": [0.3, 0.7], "sigma": [1.0, 1.0]},
        "dt": 1e-3,
        "steps": 20,
    })
    argv = {"verify": ["verify"], "spectrum": ["spectrum", "--config", path, "--levels", "2"],
            "evolve": ["evolve", "--config", path]}[command]
    assert _main_in_a_fresh_process([*argv, "--out", str(tmp_path / "out")]) == ["0", "[]"]


def test_mirror_even_diffract_loads_scipy_fft(tmp_path):
    # the control of the test above: the even sector's DCT-I pair needs scipy.fft
    from test_scenarios import fast_two_slit_config

    path = write_config(tmp_path, "slit.json", fast_two_slit_config().as_dict())
    code, loaded = _main_in_a_fresh_process(["diffract", "--config", path,
                                             "--out", str(tmp_path / "out")])
    assert code == "0" and "'scipy.fft'" in loaded


def test_verify_and_diffract_run_correct_in_a_fresh_process(tmp_path):
    from test_scenarios import fast_two_slit_config

    result = _run_fresh("-m", "spectralqm.cli", "verify", "--out", str(tmp_path / "verify"))
    assert result.returncode == 0 and result.stdout.splitlines()[-1] == "20/20 checks passed"
    path = write_config(tmp_path, "slit.json", fast_two_slit_config().as_dict())
    result = _run_fresh("-m", "spectralqm.cli", "diffract", "--config", path,
                        "--out", str(tmp_path / "slit"))
    assert result.returncode == 0
    summary = json.loads((tmp_path / "slit" / "two-slit-fast_summary.json").read_text())
    assert summary["measured_fringe_spacing"] is not None
    assert abs(summary["final_norm"] - 1.0) < 1e-8


def test_run_diffraction_leaves_scipy_signal_unloaded(tmp_path):
    from test_scenarios import fast_two_slit_config

    path = write_config(tmp_path, "slit.json", fast_two_slit_config().as_dict())
    env = dict(os.environ, PYTHONPATH=str(Path(spectralqm.__file__).parents[1]))
    code = ("import json, sys; from spectralqm.scenarios import ScenarioConfig, run_diffraction; "
            f"result = run_diffraction(ScenarioConfig.from_dict(json.load(open({str(path)!r})))); "
            "print(result.fringe_spacing is not None, 'scipy.signal' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "True False"
