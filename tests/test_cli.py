"""Command-line front end: artifacts, determinism, exit-code contract."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plap
from plap import geometric_grid, solve_profile, system_from_config
from plap.cli import main
from conftest import P3_CONFIG, POISSON_CONFIG

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


# lambda is about 450: C_lambda = e^-1470.5 underflows a float, its log does not
STEEP_450_CONFIG = {
    "p": 2.5,
    "n": 3,
    "alpha": 1.04,
    "r_max": 0.1,
    "f1": [[0.0086, 3]],
    "f2": [[0.02, 2]],
    "g1": [[1, 1.79]],
    "g2": [[1, 0]],
    "g3": [[1, 0.368]],
}


def test_profile_json_document(write_config, tmp_path, capsys):
    cfg = write_config("p3.json", P3_CONFIG)
    assert main(["profile", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "lambda",
        "mu",
        "C_lambda",
        "C_mu",
        "log_C_lambda",
        "log_C_mu",
        "B_lambda",
        "B_mu",
        "residual",
    }
    profile = solve_profile(system_from_config(P3_CONFIG))
    assert doc["lambda"] == profile.lam and doc["mu"] == profile.mu
    assert doc["C_lambda"] == pytest.approx(math.exp(profile.log_c_lam), rel=1e-15)
    assert doc["residual"] < 1e-12
    # the logs give back the amplitude that the exported value lost
    cfg = write_config("steep450.json", STEEP_450_CONFIG)
    assert main(["profile", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    profile = solve_profile(system_from_config(STEEP_450_CONFIG))
    assert doc["C_lambda"] is None
    assert (doc["log_C_lambda"], doc["log_C_mu"]) == (profile.log_c_lam, profile.log_c_mu)


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


@pytest.mark.parametrize("command", ["integrate", "verify"])
def test_rmax_flag_supplies_a_missing_r_max(write_config, tmp_path, command):
    """Flags are written into the config document before it is read, so
    ``--rmax`` stands in for the ``r_max`` a config lacks."""
    base = {k: v for k, v in P3_CONFIG.items() if k != "r_max"}
    flagged, full = tmp_path / "flagged.out", tmp_path / "full.out"
    cfg = write_config("no_rmax.json", base)
    assert main([command, "--config", cfg, "--rmax", "10", "--out", str(flagged)]) == 0
    cfg = write_config("rmax.json", base, r_max=10.0)
    assert main([command, "--config", cfg, "--out", str(full)]) == 0
    assert flagged.read_bytes() == full.read_bytes()


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
        # admissible by a margin of 2e-4: the amplitudes are held as logs, but
        # lambda is about 4e4 and the run underflows at r0
        ({"f1": [[1e100, 0.0]], "sweep": {"k1": [2.0], "k3": [1.9999]}}, "StepSizeUnderflow"),
        # a config field of the wrong JSON type
        ({"a": {}}, "ValueError"),
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


def test_sweep_value_of_wrong_type_exits_1(write_config, capsys):
    cfg = write_config("sweep.json", P3_CONFIG, sweep={"k1": [0.5, None]})
    assert main(["sweep", "--config", cfg]) == 1
    assert capsys.readouterr().err == "ValueError: config field 'sweep.k1' must be a number, got None\n"
    cfg = write_config("sweep.json", P3_CONFIG, sweep={"k1": [0.5, True]})
    assert main(["sweep", "--config", cfg]) == 1
    assert capsys.readouterr().err == "ValueError: config field 'sweep.k1' must be a number, got True\n"


def test_sweep_weight_overrides_match_hand_written_weights(write_config, tmp_path):
    """Each c1 x m2 point gives the cells a one-point run of its written-out weights gives."""
    base = json.loads((CONFIGS / "coupled_p3.json").read_text())
    cfg = write_config("sweep.json", base, sweep={"c1": [0.5, 2.0], "m2": [0.0, 0.5]})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][:2] == ["c1", "m2"] and len(rows) == 5
    for row in rows[1:]:
        c1, m2 = float(row[0]), float(row[1])
        point = write_config(
            "point.json", base, f1=[[c1, 0.0]], f2=[[1.0, m2]], sweep={"a": [1.0]}
        )
        single = tmp_path / "point.csv"
        assert main(["sweep", "--config", point, "--out", str(single)]) == 0
        _, expected = csv.reader(single.read_text().splitlines())
        assert row[2:] == expected[1:] and row[-2] == "ok"


@pytest.mark.parametrize("base_f1", [[5], [[1.0]], [[None, 0]]], ids=["scalar", "one-entry", "null"])
def test_sweep_weight_override_on_malformed_base_exits_1(write_config, capsys, base_f1):
    cfg = write_config("sweep.json", P3_CONFIG, f1=base_f1, sweep={"c1": [0.5]})
    assert main(["sweep", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'f1'" in err


@pytest.mark.parametrize("values", [[], 0.5], ids=["empty", "number"])
def test_sweep_parameter_needs_a_nonempty_list(write_config, capsys, values):
    cfg = write_config("sweep.json", P3_CONFIG, sweep={"k1": values})
    assert main(["sweep", "--config", cfg]) == 1
    assert "sweep parameter 'k1' must map to a non-empty list" in capsys.readouterr().err


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


def test_exit_1_on_a_config_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text(json.dumps([P3_CONFIG]))
    assert main(["profile", "--config", str(path)]) == 1
    assert "must contain a JSON object" in capsys.readouterr().err


def test_exit_1_on_usage_error(capsys):
    assert main(["integrate", "--config", "x.json", "--bogus"]) == 1
    capsys.readouterr()


def test_help_lists_the_four_commands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "{profile,integrate,verify,sweep}" in out
    listed = " ".join(out.split("positional arguments:")[1].split("options:")[0].split())
    assert listed == (
        "{profile,integrate,verify,sweep} "
        "profile solve the far-field power profile and print it as JSON "
        "integrate integrate one instance and emit the trajectory as CSV "
        "verify integrate and run the verification battery, report as JSON "
        "sweep run verification over a parameter grid, summary as CSV"
    )


def test_exit_2_on_numerical_blowup(write_config, capsys):
    cfg = write_config(
        "blowup.json",
        POISSON_CONFIG,
        r_max=1e9,
        f1=[[1.0, 30.0]],
    )
    assert main(["integrate", "--config", cfg, "--tol", "1e-5"]) == 2
    assert "Overflow" in capsys.readouterr().err


def _fresh_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m plap.cli *args`` in a new process, so an escaping exception
    would show as a traceback and exit code 1."""
    src = os.path.dirname(os.path.dirname(plap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "plap.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "command, failure",
    [("profile", "OverflowError"), ("verify", "StepSizeUnderflow"), ("integrate", "StepSizeUnderflow")],
)
def test_exit_2_on_arithmetic_error(write_config, command, failure):
    """Admissible by a margin of 2e-4: the exported profile amplitudes overflow.
    ``verify`` reads them as logs and fails where the run does, at r0."""
    cfg = write_config("amplitude.json", P3_CONFIG, f1=[[1e100, 0.0]], g1=[[1.0, 2.0]], g3=[[1.0, 1.9999]])
    proc = _fresh_cli(command, "--config", cfg)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"numerical failure: {failure}: ")
    assert "Traceback" not in proc.stderr


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "command, base, overrides",
    [
        pytest.param(command, path.name, {}, id=f"{command}-{path.stem}")
        for path in sorted(CONFIGS.glob("*.json"))
        for command in ("profile", "verify")
    ]
    + [
        pytest.param("profile", "coupled_p3.json", {key: [[weight, 0.0]]}, id=f"profile-{key}={weight:g}")
        for key, weight in (("f1", 1e-300), ("f2", 1e-300), ("f1", 1e300))
    ],
)
def test_fresh_process_writes_standard_json_and_nothing_on_stderr(
    write_config, tmp_path, command, base, overrides
):
    """Amplitudes of 4e-202 and 4e198 enter the profile residual in logs, so
    it is neither ``Infinity`` nor an ``OverflowError``.  On ``steep.json``
    (lambda about 50.7, C_lambda about 2e-87) the profile underflows near r0
    but the quotients are formed in logs: no warning, no ``NaN``."""
    cfg = write_config(base, json.loads((CONFIGS / base).read_text()), **overrides)
    flags = ["--series-out", str(tmp_path / "series.csv")] if command == "verify" else []
    proc = _fresh_cli(command, "--config", cfg, *flags)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    doc = json.loads(proc.stdout, parse_constant=_reject_constant)
    if command == "profile":
        assert doc["residual"] < 1e-12


@pytest.mark.parametrize("r_max", ["1e-3", "1e-5"])
def test_steep_limit_fit_reads_the_profile_exponent(tmp_path, r_max):
    """Close to r0 on ``steep.json`` u is still about a, so U - 1 decays as
    r^-lambda; at r_max = 1e-5 U passes the float range, which the fit and
    the excess read from the logs without a warning.  There the excess, the
    limit values and the identity residuals are not finite, and the report
    writes them as ``null``, so it parses with a strict parser."""
    out = tmp_path / "report.json"
    proc = _fresh_cli("verify", "--config", str(CONFIGS / "steep.json"), "--rmax", r_max, "--out", str(out))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lam = solve_profile(system_from_config(json.loads((CONFIGS / "steep.json").read_text()))).lam
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["limits"]["u"]["rate"] == pytest.approx(lam, rel=1e-6)


@pytest.mark.parametrize(
    "overrides, flags, radius",
    [({"n": 60}, [], "1e-06"), ({}, ["--rmax", "1e-200"], "9.999999999999999e-207")],
    ids=["n-60", "rmax-1e-200"],
)
def test_exit_2_when_the_startup_powers_of_r0_underflow(write_config, overrides, flags, radius):
    """r0^(n-1) and the flux integrals underflow to 0 at r0: a typed failure
    at r0, not a ZeroDivisionError."""
    cfg = write_config("underflow.json", P3_CONFIG, **overrides)
    proc = _fresh_cli("verify", "--config", cfg, *flags)
    assert proc.returncode == 2, proc.stderr
    state = tuple(plap.startup_state(system_from_config(dict(P3_CONFIG, **overrides)), 1.0, 1.0, float(radius)))
    assert proc.stderr == (
        f"numerical failure: StepSizeUnderflow: startup state {state} refused, "
        f"a component is outside (0, 1e250], at r={radius}\n"
    )


def test_exit_3_when_a_limit_identity_overflows(write_config, tmp_path):
    """A tiny second weight makes the limit of V about 7e191, whose square
    overflows: the identity fails with an infinite residual, not an
    OverflowError, and the report writes that residual as ``null``."""
    cfg = write_config("tiny_f2.json", P3_CONFIG, f2=[[1e-300, 0.0]])
    out = tmp_path / "report.json"
    proc = _fresh_cli("verify", "--config", cfg, "--rmax", "1e4", "--out", str(out))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ""
    report = json.loads(out.read_text())
    assert report["limits_asserted"] and report["identities_passed"] is False
    assert report["limit_identities"]["second"] is None
    assert math.isfinite(report["limit_identities"]["first"])


@pytest.mark.parametrize(
    "field, value",
    [
        ("p", None),
        ("alpha", [0]),
        ("tol", [1e-9]),
        ("a", {}),
        ("f1", [[None, 0]]),
        ("alpha", True),
        ("r_max", True),
        ("f1", [[True, 0]]),
        ("n", True),
        ("alpha", "0.5"),
        ("r_max", "inf"),
        ("f1", [[1.0, "nan"]]),
    ],
    ids=[
        "p-null",
        "alpha-list",
        "tol-list",
        "a-object",
        "f1-null-coefficient",
        "alpha-true",
        "r_max-true",
        "f1-true-coefficient",
        "n-true",
        "alpha-numeric-string",
        "r_max-inf-string",
        "f1-nan-string-exponent",
    ],
)
def test_exit_1_on_config_field_of_wrong_type(write_config, field, value):
    """A field of the wrong JSON type fails like a wrong string: one line, exit 1.

    Neither a boolean nor a string is a number, although Python's
    ``float(True)`` is 1.0 and ``float("inf")`` is infinite.
    """
    cfg = write_config("wrong_type.json", P3_CONFIG, **{"r_max": 10.0, field: value})
    proc = _fresh_cli("verify", "--config", cfg)
    assert proc.returncode == 1, proc.stderr
    expected = f"config field '{field}' must be a number"
    if field == "n":
        expected = "dimension n must be an integer"
    assert proc.stderr.startswith(f"ValueError: {expected}, got ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["integrate", "verify"])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
def test_exit_1_on_rmax_flag_out_of_range(command, value):
    """``--rmax`` sets the config's ``r_max``, so it fails by that field's rule, in one line."""
    proc = _fresh_cli(command, "--config", str(CONFIGS / "coupled_p3.json"), "--rmax", value)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"ValueError: r_max must be a finite number > 0, got {float(value)}\n"


@pytest.mark.parametrize("overrides, flags", [({"r_max": 1e308}, []), ({}, ["--rmax", "1e308"])], ids=["config", "flag"])
def test_exit_1_when_r_max_over_r0_overflows(write_config, overrides, flags):
    """r_max = 1e308 is finite, but r_max / r0 is not, so the output grid has
    no decade count: one line and exit 1, not an ``OverflowError`` (exit 2)."""
    cfg = write_config("huge_rmax.json", P3_CONFIG, **overrides)
    proc = _fresh_cli("verify", "--config", cfg, *flags)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "ValueError: r_max / r0 must be finite, got r0=1e-06, r_max=1e+308\n"


_HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize(
    "field, raw",
    [
        ("alpha", "NaN"),
        ("g1", "[[1.0, NaN]]"),
        ("f1", "[[1.0, NaN]]"),
        ("r_max", "Infinity"),
        ("p", "-Infinity"),
        ("a", "1e999"),
        ("b", "1e999"),
        ("f1", "[[1e999, 0]]"),
        ("r_max", _HUGE_INT),
        ("n", _HUGE_INT),
        ("f1", f"[[{_HUGE_INT}, 0]]"),
        ("sweep", '{"k1": [1e999]}'),
    ],
    ids=[
        "alpha-NaN",
        "g1-NaN-exponent",
        "f1-NaN-exponent",
        "r_max-Infinity",
        "p-minus-Infinity",
        "a-1e999",
        "b-1e999",
        "f1-1e999-coefficient",
        "r_max-400-digits",
        "n-400-digits",
        "f1-400-digit-coefficient",
        "sweep-1e999",
    ],
)
def test_exit_1_on_nonstandard_json_constant(tmp_path, capsys, field, raw):
    """Python's json reads NaN, Infinity and numbers that overflow a float;
    a config holding one is malformed."""
    cfg = dict(P3_CONFIG, **{field: "RAW"})
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(cfg).replace('"RAW"', raw))
    command = "sweep" if field == "sweep" else "verify"
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and "not a finite number" in err and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--a", "--b"])
def test_exit_1_on_infinite_initial_data(flag):
    proc = _fresh_cli("verify", "--config", str(CONFIGS / "coupled_p3.json"), flag, "inf")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("ValueError: initial data must be finite, got ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "command, flag",
    [("profile", "--out"), ("verify", "--out"), ("verify", "--series-out")],
)
def test_exit_1_on_unwritable_output(write_config, tmp_path, command, flag):
    cfg = write_config("p3.json", P3_CONFIG, r_max=10.0)
    target = str(tmp_path / "missing" / "artifact")
    proc = _fresh_cli(command, "--config", cfg, flag, target)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("cannot write output: FileNotFoundError: ")
    assert proc.stderr.count("\n") == 1 and target in proc.stderr


def test_no_artifact_carries_the_step_record(write_config, tmp_path, capsys):
    """``meta`` gained ``h_min``, ``h_max`` and ``r_at_h_min``; no output changes."""
    cfg = write_config("p3.json", P3_CONFIG, r_max=100.0, sweep={"k1": [0.5, 1.0]})
    report, series = tmp_path / "report.json", tmp_path / "series.csv"
    assert main(["verify", "--config", cfg, "--out", str(report), "--series-out", str(series)]) == 0
    assert main(["integrate", "--config", cfg]) == 0
    assert main(["sweep", "--config", cfg]) == 0
    artifacts = report.read_text() + series.read_text() + capsys.readouterr().out
    assert "h_min" not in artifacts and "h_max" not in artifacts
