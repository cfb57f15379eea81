"""End-to-end CLI tests: exit codes, file formats, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectralqm
from spectralqm import cli
from spectralqm.cli import main


def write_config(tmp_path: Path, name: str, data: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def harmonic_config_path(tmp_path):
    return write_config(tmp_path, "harmonic.json", {
        "name": "harmonic-cli",
        "grid": {"dim": 1, "n": 256, "length": 20.0, "origin": -10.0},
        "potential": {"kind": "harmonic", "omega": 1.0},
        "initial": {"kind": "gaussian", "x0": 1.0, "p0": 0.0, "sigma": 1.0},
        "dt": 1e-4,
        "steps": 400,
        "record_every": 10,
        "seed": 7,
    })


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

    def no_dense(*args, **kwargs):
        raise AssertionError("to_dense called before the level check")

    monkeypatch.setattr(cli, "to_dense", no_dense)
    for levels in ("4097", "0", "-1"):
        out = tmp_path / f"o{levels}"
        assert main(["spectrum", "--config", path, "--levels", levels,
                     "--out", str(out)]) == 2
        assert f"requested {levels} levels" in capsys.readouterr().err
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


def test_usage_error_without_subcommand():
    assert main([]) == 2


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal is slow to import and only fringe analysis needs it
    env = dict(os.environ, PYTHONPATH=str(Path(spectralqm.__file__).parents[1]))
    code = "import sys, spectralqm.cli; print('scipy.signal' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
