"""Command line front end: profile, integrate, verify, sweep.

Systems are described by a JSON document with fields
``{p, n, alpha, r_max, f1, f2, g1, g2, g3}`` where the radial weights and
growth laws are lists of ``[coefficient, exponent]`` pairs.  The document may
also carry ``a``, ``b``, ``tol`` defaults and, for ``sweep``, a ``sweep``
object mapping parameter names to value lists.

Exit codes: 0 success, 1 validation/config failure, 2 numerical failure
(step underflow, state overflow, or an ``ArithmeticError`` such as an
``OverflowError`` of the profile amplitudes), 3 verification failure.
Artifacts are deterministic: the same config produces byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .integrator import Overflow, StepSizeUnderflow, integrate_radial
from .model import ExistenceConditionViolated, GradientExponentTooLarge, system_from_config
from .profile import profile_residual, solve_profile
from .verify import run_verification

__all__ = ["ConfigError", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3

_RESIDUAL_GRID = np.geomspace(1e-2, 1e4, 25)


class ConfigError(ValueError):
    """The configuration document is missing, unreadable or malformed."""


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return cfg


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _run_options(cfg: dict, args: argparse.Namespace) -> tuple[float, float, float, Optional[float]]:
    a = args.a if args.a is not None else float(cfg.get("a", 1.0))
    b = args.b if args.b is not None else float(cfg.get("b", 1.0))
    tol = args.tol if args.tol is not None else float(cfg.get("tol", 1e-9))
    r_max = args.rmax  # None means: use the system's own r_max
    return a, b, tol, r_max


def _profile_payload(cfg: dict) -> dict:
    system = system_from_config(cfg)
    prof = solve_profile(system)
    return {
        "lambda": prof.lam,
        "mu": prof.mu,
        "C_lambda": prof.c_lam,
        "C_mu": prof.c_mu,
        "B_lambda": prof.b_lam,
        "B_mu": prof.b_mu,
        "residual": profile_residual(prof, system, _RESIDUAL_GRID),
    }


def _cmd_profile(args: argparse.Namespace) -> int:
    payload = _profile_payload(_load_config(args.config))
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _trajectory_csv(traj) -> str:
    buf = io.StringIO()
    buf.write("r,u,v,du,dv,P,S\n")
    for i in range(len(traj.r)):
        buf.write(
            ",".join(
                _fmt(col[i]) for col in (traj.r, traj.u, traj.v, traj.du, traj.dv, traj.P, traj.S)
            )
            + "\n"
        )
    return buf.getvalue()


def _cmd_integrate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    system = system_from_config(cfg)
    a, b, tol, r_max = _run_options(cfg, args)
    traj = integrate_radial(system, a, b, tol, r_max=r_max)
    _emit(_trajectory_csv(traj), args.out)
    return EXIT_OK


def _series_csv(qs) -> str:
    buf = io.StringIO()
    buf.write("r,U,V,W,Y\n")
    for i in range(len(qs.r)):
        buf.write(
            ",".join(
                _fmt(col[i])
                for col in (qs.r, qs.u_ratio, qs.v_ratio, qs.du_ratio, qs.dv_ratio)
            )
            + "\n"
        )
    return buf.getvalue()


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    system = system_from_config(cfg)
    a, b, tol, r_max = _run_options(cfg, args)
    report, _, qs = run_verification(system, a, b, tol, r_max=r_max)
    _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", args.out)
    if args.series_out:
        with open(args.series_out, "w", encoding="utf-8", newline="") as fh:
            fh.write(_series_csv(qs))
    return EXIT_OK if report.passed else EXIT_VERIFICATION


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------

_SCALAR_OVERRIDES = {"p", "n", "alpha", "r_max", "a", "b"}
_POWER_OVERRIDES = {"k1": "g1", "k2": "g2", "k3": "g3"}
_WEIGHT_COEFF = {"c1": "f1", "c2": "f2"}
_WEIGHT_EXPO = {"m1": "f1", "m2": "f2"}


def _apply_overrides(cfg: dict, point: dict) -> dict:
    """One sweep point as a standalone config document.

    Scalar names override directly; ``k1/k2/k3`` replace the corresponding
    growth law by a pure power of that degree, and ``c1/c2``/``m1/m2`` rewrite
    the (necessarily single-term) radial weights.
    """
    out = {k: v for k, v in cfg.items() if k != "sweep"}
    for name, value in point.items():
        if name in _SCALAR_OVERRIDES:
            out[name] = value
        elif name in _POWER_OVERRIDES:
            out[_POWER_OVERRIDES[name]] = [[1.0, value]]
        elif name in _WEIGHT_COEFF or name in _WEIGHT_EXPO:
            coeff_mode = name in _WEIGHT_COEFF
            target = _WEIGHT_COEFF.get(name) or _WEIGHT_EXPO.get(name)
            base = out.get(target)
            if not isinstance(base, list) or len(base) != 1:
                raise ConfigError(
                    f"sweep override '{name}' needs a single-term '{target}' in the base config"
                )
            c, m = float(base[0][0]), float(base[0][1])
            out[target] = [[value, m]] if coeff_mode else [[c, value]]
        else:
            raise ConfigError(f"unknown sweep parameter '{name}'")
    return out


def _sweep_row(point_cfg: dict) -> list[str]:
    """Summary cells of one sweep point, after its parameter cells.

    A point that fails an admissibility gate is ``rejected``; any other
    validation or numerical failure of the point is an ``error``.  Either
    way the failure's class name is the reason and the sweep goes on.
    """
    try:
        system = system_from_config(point_cfg)
        prof = solve_profile(system)
        a = float(point_cfg.get("a", 1.0))
        b = float(point_cfg.get("b", 1.0))
        tol = float(point_cfg.get("tol", 1e-9))
        report, _, _ = run_verification(system, a, b, tol)
    except (GradientExponentTooLarge, ExistenceConditionViolated) as exc:
        return ["", "", "", "", "", "rejected", type(exc).__name__]
    except (ValueError, ArithmeticError, StepSizeUnderflow, Overflow) as exc:
        return ["", "", "", "", "", "error", type(exc).__name__]
    limits = report.limits or {}
    lim_u = limits.get("u")
    lim_v = limits.get("v")
    return [
        _fmt(prof.lam),
        _fmt(prof.mu),
        "true" if report.monotonicity.passed else "false",
        _fmt(lim_u.value) if lim_u else "",
        _fmt(lim_v.value) if lim_v else "",
        "ok" if report.passed else "verify_failed",
        "",
    ]


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict) or not sweep:
        raise ConfigError("sweep config needs a non-empty 'sweep' object of value lists")
    keys = sorted(sweep)
    value_lists = []
    for key in keys:
        vals = sweep[key]
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"sweep parameter '{key}' must map to a non-empty list")
        value_lists.append([float(v) for v in vals])
    points = [dict(zip(keys, combo)) for combo in product(*value_lists)]
    # every override is applied before any point runs, so a config error
    # aborts the sweep before it has done any work
    point_cfgs = [_apply_overrides(cfg, point) for point in points]

    rows = [
        [_fmt(point[k]) for k in keys] + _sweep_row(point_cfg)
        for point, point_cfg in zip(points, point_cfgs)
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys + ["lambda", "mu", "monotone_pass", "limit_U", "limit_V", "status", "reason"])
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plap",
        description="Radial p-Laplace systems: far-field profiles, integration, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "profile": "solve the far-field power profile and print it as JSON",
        "integrate": "integrate one instance and emit the trajectory as CSV",
        "verify": "integrate and run the verification battery, report as JSON",
        "sweep": "run verification over a parameter grid, summary as CSV",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON system description")
        p.add_argument("--out", default=None, help="write the artifact here instead of stdout")
        if name in ("integrate", "verify"):
            p.add_argument("--tol", type=float, default=None, help="integration tolerance")
            p.add_argument("--rmax", type=float, default=None, help="override the target radius")
            p.add_argument("--a", type=float, default=None, help="initial value u(0)")
            p.add_argument("--b", type=float, default=None, help="initial value v(0)")
        if name == "verify":
            p.add_argument(
                "--series-out", default=None, help="also write the quotient series as CSV"
            )
    return parser


_COMMANDS = {
    "profile": _cmd_profile,
    "integrate": _cmd_integrate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold those into the validation
        # class so exit code 2 stays reserved for numerical failures.
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_VALIDATION
    try:
        return _COMMANDS[args.command](args)
    except (StepSizeUnderflow, Overflow, ArithmeticError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # covers ConfigError and every validation error class
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
