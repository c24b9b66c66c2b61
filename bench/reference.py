"""Accuracy reference and yardstick, run as a child process of the benchmark.

    python3 bench/reference.py <jobs.json> <out.npz>

Each job is ``{"cfg": <instance>, "ppd": <points per decade>}``.  For each,
scipy's ``solve_ivp(DOP853, rtol=1e-13)`` integrates the flux system from
``plap.startup_state`` and samples it on plap's geometric output grid.  The
right-hand side is written here from the config, independently of
``plap.integrator.flux_rhs``.  The same integrator at the job's own tolerance
is timed as the yardstick.  A Poisson instance with exact solution
``u = 1 + r^2/6`` checks the reference itself before any job runs.

scipy is imported only here, so the benchmark process itself loads only what
plap loads.
"""

from __future__ import annotations

import json
import sys
import time
import warnings

import numpy as np
from scipy.integrate import solve_ivp

from plap import geometric_grid, startup_state, system_from_config

REF_RTOL = 1e-13
R0 = 1e-6  # plap's default startup radius for r_max >= 1
POISSON = {
    "p": 2, "n": 3, "alpha": 0, "r_max": 100.0,
    "f1": [[1.0, 0.0]], "f2": [[1.0, 0.0]],
    "g1": [[1.0, 0.0]], "g2": [[1.0, 0.0]], "g3": [[1.0, 0.0]],
}
POISSON_LIMIT = 1e-10


def _power_sum(terms):
    terms = [(float(c), float(e)) for c, e in terms]
    return lambda x: sum(c * x**e for c, e in terms)


def flux_system(cfg: dict):
    """The flux-form right-hand side f(r, y), y = (u, v, P, S), from the config alone."""
    p, n, alpha = float(cfg["p"]), int(cfg["n"]), float(cfg["alpha"])
    pma = p - 1.0 - alpha
    delta = (n - 1) * pma / (p - 1.0)
    coef = pma / (p - 1.0)
    f1, f2 = _power_sum(cfg["f1"]), _power_sum(cfg["f2"])
    g1, g2, g3 = _power_sum(cfg["g1"]), _power_sum(cfg["g2"]), _power_sum(cfg["g3"])

    def rhs(r, y):
        u, v, P, S = y
        v = max(v, 0.0)
        rd, rn = r**delta, r ** (n - 1)
        du = (P / rd) ** (1.0 / pma) if P > 0.0 else 0.0
        dv = (S / rn) ** (1.0 / (p - 1.0)) if S > 0.0 else 0.0
        return (du, dv, coef * rd * f1(r) * g1(v), rn * f2(r) * g2(v) * g3(du))

    return rhs


def integrate(cfg: dict, grid: np.ndarray, rtol: float) -> np.ndarray | None:
    """States (4, len(grid)) from DOP853, or None when scipy does not reach the end."""
    start = startup_state(system_from_config(cfg), float(cfg.get("a", 1.0)), float(cfg.get("b", 1.0)), float(grid[0]))
    y0 = np.array([start.u, start.v, start.P, start.S])
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        sol = solve_ivp(
            flux_system(cfg), (grid[0], grid[-1]), y0, method="DOP853",
            rtol=rtol, atol=rtol * 1e-3 * np.abs(y0), t_eval=grid,
        )
    if sol.status != 0 or sol.y.shape[1] != len(grid) or not np.all(np.isfinite(sol.y)):
        return None
    return sol.y


def poisson_error() -> float:
    grid = geometric_grid(R0 * min(1.0, POISSON["r_max"]), POISSON["r_max"], 64)
    y = integrate(POISSON, grid, REF_RTOL)
    exact = 1.0 + grid**2 / 6.0
    return float(np.max(np.abs(y[0] - exact) / exact))


def main(argv: list[str]) -> int:
    jobs_path, out_path = argv
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    err = poisson_error()
    if not err <= POISSON_LIMIT:
        print(f"reference fails the Poisson check: rel err {err:.3e}", file=sys.stderr)
        return 1
    arrays = {"poisson_err": np.array(err)}
    for i, job in enumerate(jobs):
        cfg = job["cfg"]
        grid = geometric_grid(R0 * min(1.0, float(cfg["r_max"])), float(cfg["r_max"]), int(job["ppd"]))
        ref = integrate(cfg, grid, REF_RTOL)
        if ref is not None:
            arrays[f"ref{i}"] = ref
        t0 = time.perf_counter()
        integrate(cfg, grid, float(cfg.get("tol", 1e-9)))
        arrays[f"yardstick{i}"] = np.array(time.perf_counter() - t0)
    np.savez(out_path, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
