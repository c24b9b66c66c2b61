"""Command-line front end: artifacts, determinism, exit-code contract."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import plap
from plap import geometric_grid, solve_profile, system_from_config
from plap.cli import main
from conftest import P3_CONFIG, POISSON_CONFIG


@pytest.fixture()
def write_config(tmp_path):
    def _write(name, base, **overrides):
        cfg = dict(base)
        cfg.update(overrides)
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    return _write


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def test_profile_json_document(write_config, tmp_path, capsys):
    cfg = write_config("p3.json", P3_CONFIG)
    assert main(["profile", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "lambda",
        "mu",
        "C_lambda",
        "C_mu",
        "B_lambda",
        "B_mu",
        "residual",
    }
    profile = solve_profile(system_from_config(P3_CONFIG))
    assert doc["lambda"] == profile.lam and doc["mu"] == profile.mu
    assert doc["C_lambda"] == pytest.approx(profile.c_lam, rel=1e-15)
    assert doc["residual"] < 1e-12


def test_profile_out_file(write_config, tmp_path):
    cfg = write_config("p3.json", P3_CONFIG)
    out = tmp_path / "profile.json"
    assert main(["profile", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mu"] == pytest.approx(7.0 / 3.0)


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_csv_matches_output_grid(write_config, tmp_path):
    cfg = write_config("poisson.json", POISSON_CONFIG, r_max=10.0)
    out = tmp_path / "traj.csv"
    assert main(["integrate", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "u", "v", "du", "dv", "P", "S"]
    r = np.array([float(row[0]) for row in rows[1:]])
    expected = geometric_grid(1e-6, 10.0)
    assert len(r) == len(expected)
    assert np.allclose(r, expected, rtol=1e-15)
    u = np.array([float(row[1]) for row in rows[1:]])
    assert np.max(np.abs(u - (1.0 + r**2 / 6.0))) < 1e-9


def test_integrate_flag_overrides(write_config, tmp_path):
    cfg = write_config("poisson.json", POISSON_CONFIG)
    out = tmp_path / "traj.csv"
    code = main(
        ["integrate", "--config", cfg, "--rmax", "1.0", "--a", "2.0", "--b", "2.0", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    last = rows[-1].split(",")
    assert float(last[0]) == pytest.approx(1.0)
    assert float(last[1]) == pytest.approx(2.0 + 1.0 / 6.0, abs=1e-8)


def test_integrate_is_byte_deterministic(write_config, tmp_path):
    cfg = write_config("p3.json", P3_CONFIG, r_max=100.0)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["integrate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["integrate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_poisson_passes(write_config, tmp_path):
    cfg = write_config("poisson.json", POISSON_CONFIG)
    out = tmp_path / "report.json"
    series = tmp_path / "series.csv"
    code = main(["verify", "--config", cfg, "--out", str(out), "--series-out", str(series)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["monotonicity"]["passed"] is True
    assert report["ordering"]["passed"] is True
    assert report["convexity_bounds"]["passed"] is True
    assert not report["limits_asserted"]  # r_max=100 is below the limit radius
    header = series.read_text().splitlines()[0]
    assert header == "r,U,V,W,Y"


def test_verify_far_data_fails_with_exit_3(write_config, tmp_path):
    cfg = write_config(
        "far.json", P3_CONFIG, r_max=1e4, a=1e6, b=1e6
    )
    out = tmp_path / "report.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["limits_asserted"] and not report["limits_passed"]
    assert report["monotonicity"]["passed"]  # the failure is localized


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_boundary_pattern_and_rejections(write_config, tmp_path):
    cfg = write_config(
        "sweep.json",
        P3_CONFIG,
        r_max=100.0,
        sweep={"k1": [0.5, 1.0, 2.0], "k3": [0.5, 1.0, 2.0]},
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    for row in rows:
        k1, k3 = float(row["k1"]), float(row["k3"])
        # p=3, alpha=0, k2=0: admissible iff k1*k3 < 4
        if k1 * k3 < 4.0:
            assert row["status"] == "ok", row
            assert row["monotone_pass"] == "true"
            assert float(row["lambda"]) > 1.0
        else:
            assert row["status"] == "rejected"
            assert row["reason"] == "ExistenceConditionViolated"
            assert row["lambda"] == ""


def test_sweep_deterministic(write_config, tmp_path):
    cfg = write_config(
        "sweep.json",
        P3_CONFIG,
        r_max=50.0,
        sweep={"a": [0.5, 1.0, 2.0]},
    )
    out1, out2 = (tmp_path / name for name in ("s1.csv", "s2.csv"))
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # every initial datum keeps the monotone property
    rows = list(csv.DictReader(out1.read_text().splitlines()))
    assert len(rows) == 3
    assert all(row["monotone_pass"] == "true" for row in rows)


@pytest.mark.parametrize(
    "overrides, reason",
    [
        # no closed-form profile for a two-term weight
        ({"f1": [[1.0, 0.0], [1.0, 1.0]]}, "NotPurePowerCoefficients"),
        ({"tol": 1e-20}, "ValueError"),
        # admissible by a margin of 2e-4: the profile amplitude overflows
        ({"f1": [[1e100, 0.0]], "sweep": {"k1": [2.0], "k3": [1.9999]}}, "OverflowError"),
    ],
)
def test_sweep_point_failures_are_errors(write_config, tmp_path, overrides, reason):
    """Only the two admissibility gates mark a point rejected."""
    cfg = write_config("sweep.json", P3_CONFIG, r_max=50.0, **{"sweep": {"k1": [0.5, 1.0]}, **overrides})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows and all((row["status"], row["reason"]) == ("error", reason) for row in rows)


@pytest.mark.parametrize(
    "overrides, sweep",
    [
        ({}, {"k1": [0.5], "bogus": [1.0]}),
        ({"f1": [[1.0, 0.0], [1.0, 1.0]]}, {"c1": [0.5, 1.0]}),
        ({"f1": [[1.0, 0.0], [1.0, 1.0]]}, {"m1": [0.5]}),
    ],
)
def test_sweep_override_errors_exit_1(write_config, tmp_path, capsys, overrides, sweep):
    cfg = write_config("sweep.json", P3_CONFIG, sweep=sweep, **overrides)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_requires_nonempty_grid(write_config, capsys):
    cfg = write_config("empty.json", P3_CONFIG, sweep={})
    assert main(["sweep", "--config", cfg]) == 1
    assert "sweep" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------


def test_exit_1_on_validation_failure(write_config, capsys):
    cfg = write_config("bad.json", POISSON_CONFIG, alpha=1.5)
    assert main(["profile", "--config", cfg]) == 1
    assert "GradientExponentTooLarge" in capsys.readouterr().err


def test_exit_1_on_missing_field(write_config, capsys):
    base = {k: v for k, v in POISSON_CONFIG.items() if k != "g2"}
    cfg = write_config("missing.json", base)
    assert main(["profile", "--config", cfg]) == 1
    assert "g2" in capsys.readouterr().err


def test_exit_1_on_unreadable_config(tmp_path, capsys):
    assert main(["profile", "--config", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()


def test_exit_1_on_unparseable_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["profile", "--config", str(path)]) == 1
    capsys.readouterr()


def test_exit_1_on_usage_error(capsys):
    assert main(["integrate", "--config", "x.json", "--bogus"]) == 1
    capsys.readouterr()


def test_exit_2_on_numerical_blowup(write_config, capsys):
    cfg = write_config(
        "blowup.json",
        POISSON_CONFIG,
        r_max=1e9,
        f1=[[1.0, 30.0]],
    )
    assert main(["integrate", "--config", cfg, "--tol", "1e-5"]) == 2
    assert "Overflow" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, failure",
    [("profile", "OverflowError"), ("verify", "OverflowError"), ("integrate", "StepSizeUnderflow")],
)
def test_exit_2_on_arithmetic_error(write_config, command, failure):
    """Admissible by a margin of 2e-4: the profile amplitudes overflow.

    Run as a fresh process, so an escaping exception would show as a
    traceback and exit code 1.
    """
    cfg = write_config("amplitude.json", P3_CONFIG, f1=[[1e100, 0.0]], g1=[[1.0, 2.0]], g3=[[1.0, 1.9999]])
    src = os.path.dirname(os.path.dirname(plap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "plap.cli", command, "--config", cfg],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"numerical failure: {failure}: ")
    assert "Traceback" not in proc.stderr
