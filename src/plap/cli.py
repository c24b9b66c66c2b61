"""Command line front end: profile, integrate, verify, sweep.

Systems are described by a JSON document with fields
``{p, n, alpha, r_max, f1, f2, g1, g2, g3}`` where the radial weights and
growth laws are lists of ``[coefficient, exponent]`` pairs.  The document may
also carry ``a``, ``b``, ``tol`` defaults and, for ``sweep``, a ``sweep``
object mapping parameter names to value lists.  The flags ``--a``, ``--b``,
``--tol`` and ``--rmax`` of ``integrate`` and ``verify`` set these fields and
``r_max`` before the document is read.

Exit codes: 0 success, 1 validation/config failure or an output path that
cannot be written, 2 numerical failure (step underflow, state overflow, or an
``ArithmeticError`` such as an ``OverflowError`` of the profile amplitudes),
3 verification failure.
Artifacts are deterministic: the same config produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import product
from typing import Iterable, Optional, Sequence

import numpy as np

from .integrator import Overflow, StepSizeUnderflow, integrate_radial
from .model import (
    ExistenceConditionViolated,
    GradientExponentTooLarge,
    ValidatedSystem,
    _config_float,
    _terms_from_config,
    system_from_config,
)
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
    def reject_constant(name: str) -> float:
        raise ConfigError(f"config {path} holds the JSON constant {name}, not a finite number")

    def finite(parse):  # a number literal that overflows a float is refused
        def hook(text: str):
            if not math.isfinite(float(text)):
                raise ConfigError(f"config {path} holds the number {text}, not a finite number")
            return parse(text)
        return hook

    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(
                fh, parse_constant=reject_constant, parse_float=finite(float), parse_int=finite(int)
            )
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return cfg


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _fmt(x: object) -> str:
    """A number at full precision; a string as it is."""
    return x if isinstance(x, str) else format(float(x), ".17g")


def _csv(header: str, rows: Iterable[Iterable[object]]) -> str:
    """``header`` and one comma-separated line of ``_fmt`` cells per row."""
    return header + "\n" + "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


def _run_config(cfg: dict) -> tuple[ValidatedSystem, float, float, float]:
    """The system of a config document, and its ``a``, ``b`` and ``tol`` or their defaults."""
    return (
        system_from_config(cfg),
        _config_float(cfg.get("a", 1.0), "a"),
        _config_float(cfg.get("b", 1.0), "b"),
        _config_float(cfg.get("tol", 1e-9), "tol"),
    )


def _flagged_config(args: argparse.Namespace) -> dict:
    """The config document with each given ``--a``, ``--b``, ``--tol`` and ``--rmax`` in its field."""
    flags = {key: getattr(args, key) for key in ("a", "b", "tol", "r_max")}
    return {**_load_config(args.config), **{k: v for k, v in flags.items() if v is not None}}


def _cmd_profile(args: argparse.Namespace) -> int:
    system = system_from_config(_load_config(args.config))
    prof = solve_profile(system)
    payload = {
        "lambda": prof.lam,
        "mu": prof.mu,
        "C_lambda": math.exp(prof.log_c_lam),
        "C_mu": math.exp(prof.log_c_mu),
        "B_lambda": prof.b_lam,
        "B_mu": prof.b_mu,
        "residual": profile_residual(prof, system, _RESIDUAL_GRID),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _cmd_integrate(args: argparse.Namespace) -> int:
    traj = integrate_radial(*_run_config(_flagged_config(args)))
    columns = (traj.r, traj.u, traj.v, traj.du, traj.dv, traj.P, traj.S)
    _emit(_csv("r,u,v,du,dv,P,S", zip(*columns)), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    report, _, qs = run_verification(*_run_config(_flagged_config(args)))
    _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", args.out)
    if args.series_out:
        with np.errstate(over="ignore"):  # a quotient beyond the float range near r0 reads inf
            _write(args.series_out, _csv("r,U,V,W,Y", zip(qs.r, *np.exp(qs.log))))
    return EXIT_OK if report.passed else EXIT_VERIFICATION


# ----------------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------------

_SCALAR_OVERRIDES = {"p", "n", "alpha", "r_max", "a", "b"}
_POWER_OVERRIDES = {"k1": "g1", "k2": "g2", "k3": "g3"}
# name -> (radial weight, slot of its single [coeff, expo] term)
_WEIGHT_OVERRIDES = {"c1": ("f1", 0), "m1": ("f1", 1), "c2": ("f2", 0), "m2": ("f2", 1)}


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
        elif name in _WEIGHT_OVERRIDES:
            target, slot = _WEIGHT_OVERRIDES[name]
            terms = _terms_from_config(out.get(target), target)
            if len(terms) != 1:
                raise ConfigError(
                    f"sweep override '{name}' needs a single-term '{target}' in the base config"
                )
            term = list(terms[0])
            term[slot] = value
            out[target] = [term]
        else:
            raise ConfigError(f"unknown sweep parameter '{name}'")
    return out


def _sweep_row(point_cfg: dict) -> list[object]:
    """Summary cells of one sweep point, after its parameter cells.

    A point that fails an admissibility gate is ``rejected``; any other
    validation or numerical failure of the point is an ``error``.  Either
    way the failure's class name is the reason and the sweep goes on.
    """
    try:
        system, a, b, tol = _run_config(point_cfg)
        prof = solve_profile(system)
        report, _, _ = run_verification(system, a, b, tol)
    except (GradientExponentTooLarge, ExistenceConditionViolated) as exc:
        return ["", "", "", "", "", "rejected", type(exc).__name__]
    except (ValueError, ArithmeticError, StepSizeUnderflow, Overflow) as exc:
        return ["", "", "", "", "", "error", type(exc).__name__]
    limits = report.limits or {}
    lim_u = limits.get("u")
    lim_v = limits.get("v")
    return [
        prof.lam,
        prof.mu,
        "true" if report.monotonicity.passed else "false",
        lim_u.value if lim_u else "",
        lim_v.value if lim_v else "",
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
        value_lists.append([_config_float(v, f"sweep.{key}") for v in vals])
    points = [dict(zip(keys, combo)) for combo in product(*value_lists)]
    # every override is applied before any point runs, so a config error
    # aborts the sweep before it has done any work
    point_cfgs = [_apply_overrides(cfg, point) for point in points]

    header = keys + ["lambda", "mu", "monotone_pass", "limit_U", "limit_V", "status", "reason"]
    rows = [
        [point[k] for k in keys] + _sweep_row(point_cfg)
        for point, point_cfg in zip(points, point_cfgs)
    ]
    _emit(_csv(",".join(header), rows), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------


# each command's handler and help text: the parser's subcommands and main's dispatch
_COMMANDS = {
    "profile": (_cmd_profile, "solve the far-field power profile and print it as JSON"),
    "integrate": (_cmd_integrate, "integrate one instance and emit the trajectory as CSV"),
    "verify": (_cmd_verify, "integrate and run the verification battery, report as JSON"),
    "sweep": (_cmd_sweep, "run verification over a parameter grid, summary as CSV"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plap",
        description="Radial p-Laplace systems: far-field profiles, integration, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON system description")
        p.add_argument("--out", default=None, help="write the artifact here instead of stdout")
        if name in ("integrate", "verify"):
            p.add_argument("--tol", type=float, default=None, help="integration tolerance")
            p.add_argument("--rmax", dest="r_max", type=float, default=None, help="target radius")
            p.add_argument("--a", type=float, default=None, help="initial value u(0)")
            p.add_argument("--b", type=float, default=None, help="initial value v(0)")
        if name == "verify":
            p.add_argument(
                "--series-out", default=None, help="also write the quotient series as CSV"
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold those into the validation
        # class so exit code 2 stays reserved for numerical failures.
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_VALIDATION
    try:
        return _COMMANDS[args.command][0](args)
    except (StepSizeUnderflow, Overflow, ArithmeticError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # covers ConfigError and every validation error class
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        # configs are read through ConfigError, so this is an output path
        # that cannot be written
        print(f"cannot write output: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
