"""Verification battery: quotient monotonicity, ordering, bounds, limits."""

from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np
import pytest

from plap import (
    GridMismatch,
    InsufficientRange,
    Overflow,
    QuotientSeries,
    StepSizeUnderflow,
    check_convexity_bounds,
    check_limit_identities,
    check_monotone_quotients,
    check_ordering,
    check_quotient_ordering,
    estimate_limits,
    geometric_grid,
    integrate_radial,
    profile_eval,
    quotient_series,
    run_verification,
    sample_profile_trajectory,
    solve_profile,
    system_from_config,
)
from plap.verify import _IDENTITY_THRESHOLD, _LIMIT_THRESHOLD, _SLACK, BoundsReport, EquationBounds
from conftest import MULTI_TERM_CONFIG, P3_CONFIG, POISSON_CONFIG, sample_integration_system


@pytest.fixture(scope="module")
def p3_quotients(p3_traj, p3_profile):
    return quotient_series(p3_traj, p3_profile)


# ---------------------------------------------------------------------------
# Quotient series
# ---------------------------------------------------------------------------


def test_profile_against_itself_is_unity(p3_profile, p3_system):
    grid = np.geomspace(1e-3, 1e3, 200)
    traj = sample_profile_trajectory(p3_profile, p3_system, grid)
    qs = quotient_series(traj, p3_profile)
    for key, quotient in zip(("u", "v", "du", "dv"), np.exp(qs.log)):
        assert np.max(np.abs(quotient - 1.0)) < 5e-13, key
    # the flat series passes the slacked checks
    assert check_monotone_quotients(qs).passed
    assert check_quotient_ordering(qs).passed


def test_poisson_quotient_curve(poisson_traj, poisson_profile):
    qs = quotient_series(poisson_traj, poisson_profile)
    window = qs.r >= 1.0
    exact = 1.0 + 6.0 / qs.r[window] ** 2
    assert np.max(np.abs(np.exp(qs.log[0, window]) / exact - 1.0)) < 1e-7
    # degenerate couplings: gradient ratios are exactly 1 up to solver noise
    assert np.max(np.abs(np.exp(qs.log[2]) - 1.0)) < 1e-9


def test_log_quotients_match_the_ratios_of_state_to_profile(p3_system, p3_profile):
    """Where the profile is representable, the logs are the ratios u/u0 ... dv/dv0."""
    traj = integrate_radial(p3_system, 1.0, 1.0, tol=1e-9, r_max=1e4)
    qs = quotient_series(traj, p3_profile)
    profile = profile_eval(p3_profile, traj.r)
    ratios = np.stack([state / ref for state, ref in zip((traj.u, traj.v, traj.du, traj.dv), profile)])
    assert np.max(np.abs(np.exp(qs.log) / ratios - 1.0)) < 1e-13


# A mixed pure-power system: every weight and growth law has a nonzero exponent.
_MIXED_POWERS = {
    "p": 2.5,
    "n": 4,
    "alpha": 0.5,
    "r_max": 1e4,
    "f1": [[1.3, 0.5]],
    "f2": [[0.7, 1.0]],
    "g1": [[1.0, 0.4]],
    "g2": [[1.0, 0.3]],
    "g3": [[1.0, 0.6]],
}


@pytest.mark.parametrize(
    "cfg, tol, bound",
    [
        (dict(P3_CONFIG, r_max=1e4), 1e-9, 2e-11),
        (dict(P3_CONFIG, r_max=1e4), 1e-12, 2e-11),
        (_MIXED_POWERS, 1e-12, 1e-13),
    ],
    ids=["coupled_p3-tol-1e-9", "coupled_p3-tol-1e-12", "mixed"],
)
def test_quotients_are_covariant_under_the_scaling_symmetry(cfg, tol, bound):
    """If (u, v) solves a pure-power system with data (a, b), then
    (tau^lam u(r/tau), tau^mu v(r/tau)) solves it with data (tau^lam a, tau^mu b),
    so the quotients satisfy U_tau(r) = U(r/tau).  With tau = 10^(k/64) on a
    64-per-decade grid that is a shift of k indices.

    ``coupled_p3`` reads about 7.3e-12 at either tol, the startup truncation
    of v at r0 = 1e-6 (3.9e-10 while u(r0) was held at a); the mixed case
    reads about 3.9e-14.
    """
    system = system_from_config(cfg)
    prof = solve_profile(system)

    def log_quotients(a, b):
        return quotient_series(integrate_radial(system, a, b, tol, points_per_decade=64), prof).log

    base = log_quotients(1.0, 1.0)
    for k in (8, 64, 128):
        tau = 10.0 ** (k / 64)
        scaled = log_quotients(tau**prof.lam, tau**prof.mu)
        assert np.max(np.abs(np.expm1(scaled[:, k:] - base[:, :-k]))) <= bound, k


def test_quotients_decrease_and_order(p3_quotients):
    mono = check_monotone_quotients(p3_quotients)
    assert mono.passed
    assert set(mono.series) == {"u", "v", "du", "dv"}
    for key, entry in mono.series.items():
        assert entry.worst_increase <= mono.slack, key

    ordering = check_quotient_ordering(p3_quotients)
    assert ordering.passed
    assert min(ordering.min_excess_above_one.values()) > 0.0
    assert ordering.min_gap_u > 0.0 and ordering.min_gap_v > 0.0


def test_monotonicity_flags_an_injected_bump(p3_quotients):
    bumped = dataclasses.replace(p3_quotients, log=p3_quotients.log.copy())
    # inject near the flat tail, where the genuine decay cannot mask it
    bumped.log[0, -2] += np.log1p(1e-3)
    report = check_monotone_quotients(bumped)
    assert not report.passed
    assert not report.series["u"].passed
    assert report.series["v"].passed
    assert report.series["u"].worst_increase == pytest.approx(1e-3, rel=0.1)


def test_ordering_flags_gradient_ratio_above_value_ratio(p3_quotients):
    log = p3_quotients.log.copy()
    log[2] = log[0] + np.log(1.01)
    bent = dataclasses.replace(p3_quotients, log=log)
    report = check_quotient_ordering(bent)
    assert not report.passed
    assert report.min_gap_u < 0.0


# ---------------------------------------------------------------------------
# Two-trajectory comparison
# ---------------------------------------------------------------------------


def test_larger_initial_data_dominates_pointwise(p3_system):
    big = integrate_radial(p3_system, 2.0, 2.0, tol=1e-9, r_max=100.0)
    small = integrate_radial(p3_system, 1.0, 1.0, tol=1e-9, r_max=100.0)
    report = check_ordering(big, small)
    assert report.passed
    assert report.n_points == len(big.r)
    assert all(margin > 0.0 for margin in report.min_margin.values())


def test_ordering_requires_strictness(p3_traj):
    report = check_ordering(p3_traj, p3_traj)
    assert not report.passed  # equal trajectories are not strictly ordered
    assert all(margin == 0.0 for margin in report.min_margin.values())


def test_ordering_compares_on_shared_radii(p3_system):
    """48 and 64 per decade over eight decades share the 16-per-decade radii."""
    big = integrate_radial(p3_system, 2.0, 2.0, tol=1e-9, r_max=100.0, points_per_decade=48)
    small = integrate_radial(p3_system, 1.0, 1.0, tol=1e-9, r_max=100.0)
    report = check_ordering(big, small)
    assert report.passed and report.n_points == 129


@pytest.mark.parametrize("r_max, shared", [(1e3, 73), (1e4, 81)])
def test_solution_lies_above_its_profile_on_a_coarser_grid(p3_system, p3_profile, r_max, shared):
    """u/u0 and v/v0 decrease towards 1, so a solution lies strictly above
    its profile; on the shared radii every margin shows it."""
    traj = integrate_radial(p3_system, 1.0, 1.0, tol=1e-9, r_max=r_max, points_per_decade=64)
    grid = geometric_grid(traj.r[0], traj.r[-1], 8)
    report = check_ordering(traj, sample_profile_trajectory(p3_profile, p3_system, grid))
    assert report.passed and report.n_points == shared
    assert all(margin > 0.0 for margin in report.min_margin.values())


def test_ordering_rejects_disjoint_grids(p3_system, p3_profile):
    early = sample_profile_trajectory(p3_profile, p3_system, np.geomspace(1e-6, 1e-4, 30))
    late = sample_profile_trajectory(p3_profile, p3_system, np.geomspace(10.0, 100.0, 30))
    with pytest.raises(GridMismatch):
        check_ordering(early, late)


def test_ordering_rejects_overlapping_grids_without_common_radii(p3_system, p3_profile):
    a = sample_profile_trajectory(p3_profile, p3_system, np.geomspace(1e-6, 100.0, 30))
    b = sample_profile_trajectory(p3_profile, p3_system, np.geomspace(2e-6, 50.0, 30))
    with pytest.raises(GridMismatch):
        check_ordering(a, b)


# ---------------------------------------------------------------------------
# Two-sided derivative sandwiches
# ---------------------------------------------------------------------------


def test_convexity_bounds_hold_on_reference_runs(
    poisson_traj, poisson_system, p3_traj, p3_system
):
    for traj, system in ((poisson_traj, poisson_system), (p3_traj, p3_system)):
        report = check_convexity_bounds(traj, system)
        assert report.passed
        for eq in (report.first_equation, report.second_equation):
            assert eq.worst_lower_margin >= -report.slack
            assert eq.worst_upper_margin >= -report.slack


def test_poisson_attains_first_lower_bound_exactly(poisson_traj, poisson_system):
    """Constant weights make the first sandwich collapse onto its lower edge."""
    report = check_convexity_bounds(poisson_traj, poisson_system)
    assert abs(report.first_equation.worst_lower_margin) < 1e-10


def test_convexity_bounds_detect_corrupted_gradient(p3_traj, p3_system):
    bent = dataclasses.replace(p3_traj, du=p3_traj.du * 1.2)
    assert not check_convexity_bounds(bent, p3_system).passed


def test_convexity_bounds_hold_on_random_systems():
    rng = np.random.default_rng(99)
    for _ in range(3):
        system, _ = sample_integration_system(rng)
        traj = integrate_radial(system, 1.0, 1.0, tol=1e-9, r_max=100.0)
        assert check_convexity_bounds(traj, system).passed


def _reference_bounds(traj, system, tol=_SLACK):
    """``check_convexity_bounds`` in its difference form: each flux derivative
    is built from the stored states and set between its two bounds."""
    p, n, alpha, delta = system.p, system.n, system.alpha, system.delta
    r = traj.r
    w1 = system.f1(r) * system.g1(traj.v)
    w2 = system.f2(r) * system.g2(traj.v) * system.g3(traj.du)
    pma = p - 1.0 - alpha

    def eq_bounds(deriv, lower, upper):
        lo_m = (deriv - lower) / upper
        up_m = (upper - deriv) / upper
        i_lo = int(np.argmin(lo_m))
        i_up = int(np.argmin(up_m))
        return EquationBounds(float(lo_m[i_lo]), float(up_m[i_up]), float(r[i_lo]), float(r[i_up]))

    first = eq_bounds(
        pma / (p - 1.0) * w1 - delta / r * traj.du**pma,
        pma / (n * pma + alpha) * w1,
        pma / (p - 1.0) * w1,
    )
    second = eq_bounds(w2 - (n - 1.0) / r * traj.dv ** (p - 1.0), w2 / n, w2)
    margins = (first.worst_lower_margin, first.worst_upper_margin)
    margins += (second.worst_lower_margin, second.worst_upper_margin)
    return BoundsReport(first, second, tol, all(m >= -tol for m in margins))


def test_convexity_bounds_match_the_difference_form(poisson_traj, poisson_system, p3_traj, p3_system):
    multi = system_from_config(MULTI_TERM_CONFIG)
    runs = [
        (poisson_traj, poisson_system),
        (p3_traj, p3_system),
        (dataclasses.replace(p3_traj, du=p3_traj.du * 1.2), p3_system),
        (integrate_radial(multi, 1.0, 1.0, tol=1e-9, r_max=10.0), multi),
    ]
    rng = np.random.default_rng(99)
    for _ in range(3):
        system, _ = sample_integration_system(rng)
        runs.append((integrate_radial(system, 1.0, 1.0, tol=1e-9, r_max=100.0), system))
    for traj, system in runs:
        got, ref = check_convexity_bounds(traj, system), _reference_bounds(traj, system)
        assert got.passed == ref.passed
        for eq, ref_eq in ((got.first_equation, ref.first_equation), (got.second_equation, ref.second_equation)):
            assert eq.worst_lower_margin == pytest.approx(ref_eq.worst_lower_margin, rel=0, abs=1e-14)
            assert eq.worst_upper_margin == pytest.approx(ref_eq.worst_upper_margin, rel=0, abs=1e-14)


def test_convexity_bounds_fail_an_overflowed_weight():
    """v scaled by 1e200 overflows w1 = g1(v) = v^2; sigma1 = 0 would then pass."""
    system = system_from_config(dict(P3_CONFIG, p=4, g1=[[1.0, 2.0]], r_max=10.0))
    traj = integrate_radial(system, 1.0, 1.0, tol=1e-9, r_max=10.0)
    with np.errstate(all="ignore"):
        report = check_convexity_bounds(dataclasses.replace(traj, v=traj.v * 1e200), system)
    assert not report.passed
    assert math.isnan(report.first_equation.worst_lower_margin)
    assert report.second_equation.worst_lower_margin >= -report.slack
    assert report.second_equation.worst_upper_margin >= -report.slack


# ---------------------------------------------------------------------------
# Limit extrapolation and the power-balance identities
# ---------------------------------------------------------------------------


def synthetic_quotients(r, offsets):
    return QuotientSeries(r=r, log=np.log1p(offsets))


def test_limit_fit_recovers_algebraic_decay():
    r = np.geomspace(1.0, 1e4, 400)
    qs = synthetic_quotients(r, [3.0 * r**-1.5, 2.0 * r**-1.0, 3.0 * r**-1.5, np.zeros_like(r)])
    limits = estimate_limits(qs)
    assert limits["u"].value == pytest.approx(1.0 + 3.0 * (1e4) ** -1.5, rel=1e-10)
    assert limits["u"].rate == pytest.approx(1.5, abs=1e-9)
    assert limits["u"].fit_quality < 1e-9
    assert limits["v"].rate == pytest.approx(1.0, abs=1e-9)
    # the flat series falls back to the endpoint with no rate
    assert limits["dv"].value == 1.0 and limits["dv"].rate is None
    # a steep row, q - 1 = e^10 (r / 1e4)^-200: log q reaches 931 at r = 100,
    # where q itself passes the float range
    steep = np.logaddexp(0.0, 10.0 - 200.0 * np.log(r / 1e4))
    assert np.max(steep[r >= 100.0]) > 709.0
    limits = estimate_limits(QuotientSeries(r=r, log=np.vstack((steep, qs.log[1:]))))
    assert limits["u"].rate == pytest.approx(200.0, rel=1e-12)
    assert limits["u"].value == pytest.approx(1.0 + math.exp(10.0), rel=1e-12)
    assert limits["u"].fit_quality < 1e-9
    assert limits["v"].rate == pytest.approx(1.0, abs=1e-9)


def test_limit_fit_requires_two_decades():
    r = np.geomspace(1.0, 50.0, 100)
    qs = synthetic_quotients(r, [r**-1.0] * 4)
    with pytest.raises(InsufficientRange):
        estimate_limits(qs)


def test_limit_window_keeps_the_two_decade_point_however_it_rounds(p3_system):
    """At one point per decade out to 1e-3 the grid point two decades below
    r_max is 9.999999999999999e-06, a rounding below r_max / 100."""
    report, traj, _ = run_verification(p3_system, r_max=1e-3, points_per_decade=1)
    assert traj.r[-3] < traj.r[-1] / 100.0
    assert report.limits is not None


def test_identity_residual_arithmetic(p3_system):
    flat = synthetic_quotients(np.geomspace(1, 1e4, 200), [np.zeros(200)] * 4)
    limits = estimate_limits(flat)
    res = check_limit_identities(limits, p3_system)
    assert res.first == 0.0 and res.second == 0.0

    limits["u"] = dataclasses.replace(limits["u"], value=1.01)
    limits["v"] = dataclasses.replace(limits["v"], value=1.02)
    res = check_limit_identities(limits, p3_system)
    # p=3, alpha=0, k1=1: |1.01^2 - 1.02|; k2=0, k3=1: |1.02^2 - 1.01|
    assert res.first == pytest.approx(abs(1.01**2 - 1.02), rel=1e-12)
    assert res.second == pytest.approx(abs(1.02**2 - 1.01), rel=1e-12)

    # a side that overflows a float leaves its residual infinite
    limits["u"] = dataclasses.replace(limits["u"], value=1e200)
    res = check_limit_identities(limits, p3_system)
    assert res.first == math.inf and res.second == pytest.approx(1e200, rel=1e-15)
    limits["u"] = dataclasses.replace(limits["u"], value=1.01)
    limits["v"] = dataclasses.replace(limits["v"], value=1e200)
    res = check_limit_identities(limits, p3_system)
    assert res.first == pytest.approx(1e200, rel=1e-15) and res.second == math.inf


# ---------------------------------------------------------------------------
# Full report assembly
# ---------------------------------------------------------------------------


def test_run_verification_short_range(p3_system):
    report, traj, qs = run_verification(p3_system, r_max=1e3)
    assert report.passed
    assert not report.limits_asserted  # 1e3 < the limit-assertion radius
    assert report.limits is not None  # still reported as diagnostics
    assert traj.r[-1] == pytest.approx(1e3)
    assert len(qs.r) == len(traj.r)
    payload = report.to_dict()
    assert set(payload) >= {
        "monotonicity",
        "ordering",
        "convexity_bounds",
        "limits",
        "limit_identities",
        "tolerances",
        "passed",
    }


def test_run_verification_long_range_asserts_limits(p3_system):
    report, _, _ = run_verification(p3_system, r_max=1e4)
    assert report.limits_asserted
    assert report.limits_passed and report.identities_passed
    assert report.passed
    for key in ("u", "v", "du", "dv"):
        assert abs(report.limits[key].value - 1.0) < 1e-2
    assert report.limit_identities.first < 3e-2
    assert report.limit_identities.second < 3e-2


def _key_tree(node):
    return {k: _key_tree(v) for k, v in node.items()} if isinstance(node, dict) else None


def test_verification_report_shape_is_pinned(p3_system):
    """Every key of the JSON report, nested ones included, and the pinned thresholds."""
    report, _, _ = run_verification(p3_system, r_max=1e4)
    payload = report.to_dict()
    tolerances = {
        "integration_rtol": 1e-9,
        "integration_atol_floor": 1e-9 * 1e-3,
        "monotonicity_slack": _SLACK,
        "ordering_slack": _SLACK,
        "bounds_slack": _SLACK,
        "limit_threshold": _LIMIT_THRESHOLD,
        "identity_threshold": _IDENTITY_THRESHOLD,
        "limit_window_decades": 2.0,
    }
    series = ("u", "v", "du", "dv")
    equation = dict.fromkeys(("worst_lower_margin", "worst_upper_margin", "r_at_lower", "r_at_upper"))
    assert _key_tree(payload) == {
        "monotonicity": {
            "passed": None,
            "slack": None,
            "series": dict.fromkeys(series, dict.fromkeys(("passed", "worst_increase", "r_at"))),
        },
        "ordering": {
            "passed": None,
            "slack": None,
            "min_excess_above_one": dict.fromkeys(series),
            "min_gap_u": None,
            "min_gap_v": None,
        },
        "convexity_bounds": {
            "passed": None,
            "slack": None,
            "first_equation": equation,
            "second_equation": equation,
        },
        "limits": dict.fromkeys(series, dict.fromkeys(("value", "rate", "fit_quality", "r_last"))),
        "limit_identities": {"first": None, "second": None},
        "limits_asserted": None,
        "limits_passed": None,
        "identities_passed": None,
        "tolerances": dict.fromkeys(tolerances),
        "passed": None,
    }
    assert (_SLACK, _LIMIT_THRESHOLD, _IDENTITY_THRESHOLD) == (1e-8, 1e-2, 3e-2)
    defaults = (
        inspect.signature(check_monotone_quotients).parameters["tol"].default,
        inspect.signature(check_quotient_ordering).parameters["slack"].default,
        inspect.signature(check_convexity_bounds).parameters["tol"].default,
    )
    assert defaults == (_SLACK, _SLACK, _SLACK)
    assert payload["tolerances"] == tolerances
    assert payload["monotonicity"]["slack"] == payload["ordering"]["slack"] == _SLACK
    assert payload["convexity_bounds"]["slack"] == _SLACK


def test_run_verification_far_data_fails_limits_only(p3_system):
    """Huge initial data is still monotone but far from the profile at 1e4."""
    report, _, _ = run_verification(p3_system, a=1e6, b=1e6, r_max=1e4)
    assert report.monotonicity.passed and report.ordering.passed
    assert report.limits_asserted and not report.limits_passed
    assert not report.passed


def test_run_verification_accepts_initial_data_sweep(p3_system):
    for a, b in ((0.5, 2.0), (3.0, 0.25)):
        report, _, _ = run_verification(p3_system, a=a, b=b, r_max=100.0)
        assert report.monotonicity.passed, (a, b)
        assert report.ordering.passed, (a, b)
        assert report.convexity_bounds.passed, (a, b)


@pytest.mark.parametrize(
    "config, a",
    [(P3_CONFIG, 1e-12), (P3_CONFIG, 1e-40), (POISSON_CONFIG, 1e-15), (POISSON_CONFIG, 1e-300)],
    ids=["coupled_p3-1e-12", "coupled_p3-1e-40", "poisson-1e-15", "poisson-1e-300"],
)
def test_tiny_first_datum_passes(config, a):
    """u(r0) carries the integral of u' over [0, r0].  While it was a, U rose
    19.3x over the first step of coupled_p3 at a = 1e-12 and 11.5x on Poisson
    at a = 1e-15, and from a = 1e-40 on both raised StepSizeUnderflow at r0."""
    report, _, _ = run_verification(system_from_config(config), a, 1.0, 1e-9, r_max=1e4)
    assert report.passed


def test_steep_profile_with_underflowing_amplitude_passes():
    """lambda is about 450 and C_lambda = e^-1470.5 underflows a float; its
    log does not, so the quotients, their excess and the limit fit are all
    read from logs."""
    cfg = {
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
    system = system_from_config(cfg)
    profile = solve_profile(system)
    assert math.isfinite(profile.log_c_lam) and math.exp(profile.log_c_lam) == 0.0
    report, _, _ = run_verification(system, 2.8e-3, 2.1e-4, 1.2e-7)
    assert all(series.passed for series in report.monotonicity.series.values())
    assert report.passed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="v(r0) is held at b and g1(v) at g1(b) over [0, r0], while v grows several-fold there: "
    "V rises by 35.8% at r = 1.04e-6",
)
def test_tiny_second_datum_passes_or_fails_typed(p3_system):
    """Every positive datum either passes the battery or raises a typed error.
    b = 1e-15 passes and from b = 1e-40 on the run underflows at r0; b = 2e-16
    and 1e-16 integrate and read ``not_passed``."""
    try:
        report, _, _ = run_verification(p3_system, 1.0, 1e-16, 1e-9, r_max=1e4)
    except (StepSizeUnderflow, Overflow):
        return
    assert report.passed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="u'(r0) = 1.0e-322 is subnormal, so the u' recovered from P holds a few bits: "
    "W rises by 1.3% at r0 and the first sandwich fails",
)
def test_subnormal_start_gradient_passes_or_fails_typed():
    """An admissible instance (existence margin 0.049) either passes the
    battery or raises a typed error.  At alpha = 1.9752 it passes, with
    u'(r0) = 5.7e-320; from alpha = 1.9757 on the run underflows at r0.
    Between them it integrates and reads ``not_passed``."""
    cfg = dict(P3_CONFIG, alpha=1.9754, r_max=1e4, g1=[[1.0, 0.001]], g3=[[1.0, 0.001]])
    try:
        report, _, _ = run_verification(system_from_config(cfg), 1.0, 1.0, 1e-9)
    except (StepSizeUnderflow, Overflow):
        return
    assert report.passed
