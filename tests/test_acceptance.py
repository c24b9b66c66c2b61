"""Acceptance gate: every advertised guarantee, one pass/fail line each.

Each test prints exactly one summary line ``acceptance N PASS|FAIL ...`` with
the measured figure and the pinned tolerance, then asserts.  Criteria that
share expensive integrations reuse the module-level cache populated by the
earlier criteria in file order.
"""

from __future__ import annotations

import math
import time

import numpy as np

from plap import (
    ExistenceConditionViolated,
    GradientExponentTooLarge,
    check_convexity_bounds,
    check_monotone_quotients,
    check_ordering,
    check_quotient_ordering,
    estimate_limits,
    check_limit_identities,
    flux_consistency,
    flux_rhs,
    integrate_fixed_grid,
    integrate_radial,
    profile_residual,
    quotient_series,
    solve_profile,
    system_from_config,
)
from conftest import (
    P3_CONFIG,
    POISSON_CONFIG,
    sample_integration_system,
    sample_profile_system,
)

_CACHE: dict = {}


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {criterion} {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def poisson_run():
    if "poisson" not in _CACHE:
        system = system_from_config(POISSON_CONFIG)
        _CACHE["poisson"] = (
            system,
            solve_profile(system),
            integrate_radial(system, 1.0, 1.0, tol=1e-9, r_max=100.0),
        )
    return _CACHE["poisson"]


def p3_run(r_max: float):
    key = ("p3", r_max)
    if key not in _CACHE:
        system = system_from_config(P3_CONFIG)
        _CACHE[key] = (
            system,
            solve_profile(system),
            integrate_radial(system, 1.0, 1.0, tol=1e-9, r_max=r_max),
        )
    return _CACHE[key]


def random_runs():
    if "random" not in _CACHE:
        rng = np.random.default_rng(1234)
        runs = []
        for _ in range(20):
            system, profile = sample_integration_system(rng)
            traj = integrate_radial(system, 1.0, 1.0, tol=1e-9, r_max=1e3)
            runs.append((system, profile, traj))
        _CACHE["random"] = runs
    return _CACHE["random"]


def test_criterion_1_profile_residuals_on_random_systems():
    rng = np.random.default_rng(20260814)
    grid = np.geomspace(1e-2, 1e4, 40)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        system, profile = sample_profile_system(rng)
        worst = max(worst, profile_residual(profile, system, grid))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 5.0
    report(
        1,
        ok,
        f"100 random profiles: worst residual {worst:.3e} (tol 1e-10) "
        f"in {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_2_closed_form_spot_values():
    system, profile, _ = p3_run(1e3)
    exact_exponents = profile.lam == 8.0 / 3.0 and profile.mu == 7.0 / 3.0
    cube = (profile.lam * math.exp(profile.log_c_lam)) ** 3
    cube_rel = abs(cube - 243.0 / 175616.0) / (243.0 / 175616.0)
    ok = exact_exponents and cube_rel < 1e-12
    report(
        2,
        ok,
        f"(lambda, mu) = ({profile.lam}, {profile.mu}) vs (8/3, 7/3) exact; "
        f"(lambda*C)^3 rel err {cube_rel:.3e} (tol 1e-12)",
    )


def test_criterion_3_exact_solution_reproduction():
    started = time.perf_counter()
    system = system_from_config(POISSON_CONFIG)
    profile = solve_profile(system)
    traj = integrate_radial(system, 1.0, 1.0, tol=1e-9, r_max=100.0)
    _CACHE["poisson"] = (system, profile, traj)
    i1 = int(np.argmin(np.abs(traj.r - 1.0)))
    value_err = abs(traj.u[i1] - 7.0 / 6.0)
    qs = quotient_series(traj, profile)
    window = qs.r >= 1.0
    curve_err = float(
        np.max(np.abs(np.exp(qs.log[0, window]) / (1.0 + 6.0 / qs.r[window] ** 2) - 1.0))
    )
    elapsed = time.perf_counter() - started
    ok = value_err < 1e-9 and curve_err < 1e-7 and elapsed < 1.0
    report(
        3,
        ok,
        f"|u(1) - 7/6| = {value_err:.3e} (tol 1e-9); U vs 1+6/r^2 rel "
        f"{curve_err:.3e} on [1,100] (tol 1e-7); {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_4_quotients_decrease_and_order():
    started = time.perf_counter()
    batch = [p3_run(1e3)[1:]] + [(p, t) for _, p, t in random_runs()]
    worst_increase = -np.inf
    min_excess = np.inf
    min_gap = np.inf
    for profile, traj in batch:
        qs = quotient_series(traj, profile)
        mono = check_monotone_quotients(qs, tol=1e-8)
        ordering = check_quotient_ordering(qs, slack=1e-8)
        worst_increase = max(
            worst_increase, max(s.worst_increase for s in mono.series.values())
        )
        min_excess = min(min_excess, min(ordering.min_excess_above_one.values()))
        min_gap = min(min_gap, ordering.min_gap_u, ordering.min_gap_v)
    elapsed = time.perf_counter() - started
    ok = (
        worst_increase <= 1e-8
        and min_excess > -1e-8
        and min_gap > -1e-8
        and elapsed < 60.0
    )
    report(
        4,
        ok,
        f"reference + 20 random systems on [r0, 1e3]: worst quotient increase "
        f"{worst_increase:.3e} (slack 1e-8), min excess over 1 {min_excess:.3e}, "
        f"min U-W/V-Y gap {min_gap:.3e}; {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_5_limits_at_large_radius():
    system, profile, traj = p3_run(1e4)
    qs = quotient_series(traj, profile)
    limits = estimate_limits(qs)
    worst_limit = max(abs(est.value - 1.0) for est in limits.values())
    identities = check_limit_identities(limits, system)
    worst_identity = max(identities.first, identities.second)
    ok = worst_limit < 1e-2 and worst_identity < 3e-2
    report(
        5,
        ok,
        f"all four quotient limits within {worst_limit:.3e} of 1 at r=1e4 "
        f"(tol 1e-2); power-balance residuals <= {worst_identity:.3e} (tol 3e-2)",
    )


def test_criterion_6_derivative_sandwiches():
    runs = [poisson_run(), p3_run(1e3), p3_run(1e4)]
    runs += [(s, p, t) for s, p, t in random_runs()]
    worst = np.inf
    for system, _, traj in runs:
        rep = check_convexity_bounds(traj, system, tol=1e-8)
        worst = min(
            worst,
            rep.first_equation.worst_lower_margin,
            rep.first_equation.worst_upper_margin,
            rep.second_equation.worst_lower_margin,
            rep.second_equation.worst_upper_margin,
        )
    poisson_system, _, poisson_traj = poisson_run()
    margin0 = check_convexity_bounds(
        poisson_traj, poisson_system
    ).first_equation.worst_lower_margin
    ok = worst >= -1e-8 and abs(margin0) < 1e-10
    report(
        6,
        ok,
        f"two-sided flux-derivative bounds on {len(runs)} converged runs: "
        f"worst margin {worst:.3e} (slack 1e-8); constant-weight case attains "
        f"the first lower bound with margin {margin0:.1e} (zero to rounding)",
    )


def test_criterion_7_initial_data_comparison():
    system, _, small = p3_run(1e3)
    big = integrate_radial(system, 2.0, 2.0, tol=1e-9, r_max=1e3)
    rep = check_ordering(big, small)
    worst = min(rep.min_margin.values())
    ok = rep.passed and worst > 0.0
    report(
        7,
        ok,
        f"(2,2) vs (1,1) strictly ordered in u, v, u', v' at all "
        f"{rep.n_points} shared radii; smallest relative margin {worst:.3e}",
    )


def test_criterion_8_validation_boundary_grids():
    outcomes = []
    # gradient-exponent gate at alpha = p-1 (= 1 here): strict rejection
    for alpha, expect in ((0.5, "accept"), (0.999, "accept"), (1.0, "reject"), (1.5, "reject")):
        cfg = dict(POISSON_CONFIG, alpha=alpha)
        try:
            system_from_config(cfg)
            outcomes.append(("accept", expect))
        except GradientExponentTooLarge:
            outcomes.append(("reject", expect))
    # subcriticality gate: (p-1-alpha)(p-1-k2) = 1 exactly; reject iff k1*k3 >= 1
    for k1 in (0.5, 1.0, 2.0):
        for k3 in (0.5, 1.0, 2.0):
            cfg = dict(
                P3_CONFIG,
                p=2.5,
                alpha=0.5,
                g1=[[1.0, k1]],
                g2=[[1.0, 0.5]],
                g3=[[1.0, k3]],
            )
            expect = "accept" if k1 * k3 < 1.0 else "reject"
            try:
                system_from_config(cfg)
                outcomes.append(("accept", expect))
            except ExistenceConditionViolated:
                outcomes.append(("reject", expect))
    mismatches = [o for o in outcomes if o[0] != o[1]]
    ok = not mismatches
    report(
        8,
        ok,
        f"{len(outcomes)} boundary parameter points decided strictly by the "
        f"two admissibility inequalities; mismatches: {mismatches or 'none'}",
    )


def test_criterion_9_integrator_quality():
    # Self-convergence on the constant-weight case.  Its fluxes are quadratic
    # polynomials in r, which the embedded pair integrates without truncation
    # error, so the nominal trajectory is reproduced exactly and the order is
    # measured on the same right-hand side with gradient-perturbed initial
    # fluxes (a smooth non-polynomial solution of the same equations).
    system, _, _ = poisson_run()
    f = flux_rhs(system)
    r_start = 0.25
    base = 1.0 + r_start**2 / 6.0
    exact0 = np.array([base, base, r_start**3 / 3.0, r_start**3 / 3.0])
    nominal_err = max(
        abs(integrate_fixed_grid(f, np.linspace(r_start, 1.0, n + 1), exact0)[-1][0] - 7.0 / 6.0)
        for n in (8, 32, 128)
    )
    perturbed = exact0 * np.array([1.0, 1.0, 1.05, 1.05])
    finals = [
        integrate_fixed_grid(f, np.linspace(r_start, 1.0, n + 1), perturbed)[-1][0]
        for n in (8, 16, 32, 64, 128)
    ]
    diffs = np.abs(np.diff(finals))
    orders = np.log2(diffs[:-1] / diffs[1:])
    min_order = float(np.min(orders))

    runs = [poisson_run(), p3_run(1e3), p3_run(1e4)]
    runs += [(s, p, t) for s, p, t in random_runs()]
    worst_flux = max(flux_consistency(traj, sys_) for sys_, _, traj in runs)

    ok = nominal_err < 1e-12 and min_order >= 4.0 and worst_flux < 1e-6
    report(
        9,
        ok,
        f"self-convergence order {min_order:.2f} (need >= 4; nominal "
        f"polynomial case exact to {nominal_err:.1e}); worst flux-consistency "
        f"defect {worst_flux:.3e} over {len(runs)} runs at tol 1e-9 (tol 1e-6)",
    )
