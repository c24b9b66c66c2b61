"""Verification battery: quotient monotonicity, ordering, bounds, limits."""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    flux_consistency,
    geometric_grid,
    integrate_radial,
    quotient_series,
    run_verification,
    sample_profile_trajectory,
    solve_profile,
    system_from_config,
)
from plap import integrator
from plap.verify import _IDENTITY_THRESHOLD, _LIMIT_THRESHOLD, _SLACK, BoundsReport, EquationBounds
from conftest import MULTI_TERM_CONFIG, P3_CONFIG, POISSON_CONFIG, g3_at_log_gradient, sample_integration_system


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
    lam, mu, r = p3_profile.lam, p3_profile.mu, traj.r
    c_lam, c_mu = math.exp(p3_profile.log_c_lam), math.exp(p3_profile.log_c_mu)
    profile = (c_lam * r**lam, c_mu * r**mu, lam * c_lam * r ** (lam - 1.0), mu * c_mu * r ** (mu - 1.0))
    ratios = np.stack([state / ref for state, ref in zip(np.exp(traj.logs()), profile)])
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

    ``coupled_p3`` reads 7.4e-12 at tol 1e-9 and 7.35e-12 at 1e-12, the
    startup truncation of v at r0 = 1e-6 (3.9e-10 while u(r0) was held at
    a); the mixed case reads 9.24e-14, at k = 128.
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


def _float_gradients(traj):
    """The float u' = (P / r^delta)^(1/(p-1-alpha)) and v' = (S / r^(n-1))^(1/(p-1)),
    as rows, formed on the test side: the checks read ``Trajectory.logs`` instead."""
    s, r = traj.system, traj.r
    du = (traj.P / r**s.delta) ** (1.0 / (s.p - 1.0 - s.alpha))
    return np.stack((du, (traj.S / r ** (s.n - 1)) ** (1.0 / (s.p - 1.0))))


def _subnormal_pair(alpha):
    """Runs from (2, 2) and (1, 1) of the subnormal-start system, with a constant term in g3."""
    cfg = dict(P3_CONFIG, alpha=alpha, r_max=1e4, g1=[[1.0, 0.001]], g3=[[1.0, 0.0], [1.0, 0.001]])
    system = system_from_config(cfg)
    return integrate_radial(system, 2.0, 2.0, 1e-9), integrate_radial(system, 1.0, 1.0, 1e-9)


def test_ordering_reads_the_log_gap_where_the_float_gradient_is_subnormal():
    """At alpha = 1.9754 u'(r0) is subnormal in both runs, and the float
    (A - B)/B, guarded at 1e-300, read a du margin of 4.94e-24 there.  Every
    margin is expm1 of its row's smallest log gap, du's is about 1.11e-5, and
    the larger data dominate everywhere."""
    big, small = _subnormal_pair(1.9754)
    du_big, du_small = _float_gradients(big)[0], _float_gradients(small)[0]
    assert 0.0 < du_small[0] < du_big[0] < 2.3e-308
    assert np.min((du_big - du_small) / np.maximum(du_small, 1e-300)) < 1e-23
    report = check_ordering(big, small)
    gap = big.logs() - small.logs()
    assert report.passed and np.all(gap > 0.0)
    assert report.min_margin == dict(zip(("u", "v", "du", "dv"), np.expm1(np.min(gap, axis=1)).tolist()))
    assert report.min_margin["du"] == pytest.approx(1.11e-5, rel=1e-2)


def test_ordering_resolves_du_where_both_float_gradients_are_zero():
    """At alpha = 1.9757 the float u' is 0 in both runs at four radii, where
    A - B read a tie; the log gap resolves them, and the du margin is positive.
    Only du is pinned: the dv row still ties at r0 = 1e-6, since
    ``startup_state`` reads g3 at the float u', 0 in both runs, and so gives
    both the same S(r0) (ROADMAP item 3)."""
    big, small = _subnormal_pair(1.9757)
    zero = (_float_gradients(big)[0] == 0.0) & (_float_gradients(small)[0] == 0.0)
    assert int(np.sum(zero)) == 4
    gap = big.logs()[2] - small.logs()[2]
    assert np.all(gap[zero] > 0.0)
    report = check_ordering(big, small)
    assert report.min_margin["du"] == float(np.expm1(np.min(gap))) > 0.0


def test_ordering_against_a_profile_that_underflows():
    """``steep.json``'s run against its profile sampled on 8 per decade.  The
    profile's u, v, P and S are exactly 0 at 11-12 of the 73 shared radii,
    whose logs read -inf without a warning (warnings fail the suite), so the
    run dominates there by an infinite gap.  Every margin is the float
    comparison's min of (A - B)/B to 1e-12."""
    system = system_from_config(STEEP_CONFIG)
    traj = integrate_radial(system, 1.0, 1.0, 1e-9)
    prof = sample_profile_trajectory(solve_profile(system), system, geometric_grid(traj.r[0], traj.r[-1], 8))
    assert [int(np.sum(getattr(prof, name) == 0.0)) for name in "uvPS"] == [11, 11, 12, 11]
    report = check_ordering(traj, prof)
    assert report.passed and report.n_points == 73
    _, ia, ib = np.intersect1d(traj.r, prof.r, assume_unique=True, return_indices=True)
    a, b = (np.vstack((t.u[i], t.v[i], _float_gradients(t)[:, i])) for t, i in ((traj, ia), (prof, ib)))
    float_margins = np.min((a - b) / np.maximum(np.abs(b), 1e-300), axis=1)
    np.testing.assert_allclose(list(report.min_margin.values()), float_margins, rtol=1e-12, atol=0.0)


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
    """u' is derived from P, so the gradient is bent through its flux."""
    bent = check_convexity_bounds(dataclasses.replace(p3_traj, P=p3_traj.P * 1.2), p3_system)
    assert not bent.passed
    assert bent.first_equation.worst_lower_margin == pytest.approx(-0.133, abs=1e-3)


def test_convexity_bounds_refuse_another_system(p3_system):
    """The margins set the argument's p, n and alpha against the sources of
    ``traj.system``; the alpha = 0.5 run checked against the alpha = 0
    system read ``passed: False`` (first lower margin -0.133) where its own
    reads ``True``.  Only ``r_max`` may differ."""
    system = dataclasses.replace(p3_system, alpha=0.5)
    traj = integrate_radial(system, 1.0, 1.0, tol=1e-9, r_max=1000.0)
    with pytest.raises(ValueError, match="not the trajectory's own system"):
        check_convexity_bounds(traj, p3_system)
    own = check_convexity_bounds(traj, system)
    assert own.passed
    assert check_convexity_bounds(traj, dataclasses.replace(system, r_max=1e4)) == own


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
    w2 = system.f2(r) * system.g2(traj.v) * g3_at_log_gradient(traj)
    pma = p - 1.0 - alpha

    def eq_bounds(deriv, lower, upper):
        lo_m = (deriv - lower) / upper
        up_m = (upper - deriv) / upper
        i_lo = int(np.argmin(lo_m))
        i_up = int(np.argmin(up_m))
        return EquationBounds(float(lo_m[i_lo]), float(up_m[i_up]), float(r[i_lo]), float(r[i_up]))

    first = eq_bounds(
        pma / (p - 1.0) * w1 - delta / r * np.exp(pma * traj.logs()[2]),
        pma / (n * pma + alpha) * w1,
        pma / (p - 1.0) * w1,
    )
    second = eq_bounds(w2 - (n - 1.0) / r * np.exp((p - 1.0) * traj.logs()[3]), w2 / n, w2)
    margins = (first.worst_lower_margin, first.worst_upper_margin)
    margins += (second.worst_lower_margin, second.worst_upper_margin)
    return BoundsReport(first, second, tol, all(m >= -tol for m in margins))


def test_convexity_bounds_match_the_difference_form(poisson_traj, poisson_system, p3_traj, p3_system):
    multi = system_from_config(MULTI_TERM_CONFIG)
    runs = [
        (poisson_traj, poisson_system),
        (p3_traj, p3_system),
        (dataclasses.replace(p3_traj, P=p3_traj.P * 1.2), p3_system),
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


def test_limit_fit_requires_three_points_in_the_last_two_decades():
    qs = synthetic_quotients(np.array([1.0, 1e3]), [np.array([2.0, 1.5])] * 4)
    with pytest.raises(InsufficientRange, match="fewer than three grid points"):
        estimate_limits(qs)


STEEP_CONFIG = json.loads((Path(__file__).resolve().parents[1] / "configs" / "steep.json").read_text())


@pytest.mark.parametrize(
    "config, r_max, points_per_decade",
    [(P3_CONFIG, 1e-3, 1), (STEEP_CONFIG, 1e-5, 64)],
    ids=["coupled_p3", "steep"],
)
def test_every_verification_carries_its_limits(config, r_max, points_per_decade):
    """The shortest runs the API allows: every run starts at 1e-6 min(1, r_max),
    so it spans six decades with at least three points in the last two, and
    ``estimate_limits`` has its window."""
    report, _, _ = run_verification(system_from_config(config), r_max=r_max, points_per_decade=points_per_decade)
    assert set(report.limits) == {"u", "v", "du", "dv"}
    assert type(report.limits_passed) is bool and type(report.identities_passed) is bool
    assert report.limits_asserted is False


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


def _subnormal_start_report(alpha, g3):
    cfg = dict(P3_CONFIG, alpha=alpha, r_max=1e4, g1=[[1.0, 0.001]], g3=g3)
    return run_verification(system_from_config(cfg), 1.0, 1.0, 1e-9)


@pytest.mark.parametrize(
    "alpha",
    [
        1.9753,
        1.9754,
        1.9755,
        pytest.param(
            1.97545,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="startup_state and the rates read g3 at a u' with only a few bits left: "
                "Y rises by 3.3e-6 at r = 1.04e-6",
            ),
        ),
    ],
)
def test_subnormal_start_gradient_passes_or_fails_typed(alpha):
    """An admissible instance (existence margin about 0.049) either passes the
    battery or raises a typed error.  u'(r0) is subnormal (5.7e-320 at
    alpha = 1.9752, 1.0e-322 at 1.9754), and from alpha = 1.9756 on S(r0)
    underflows and the run fails at r0.  W, Y and the sandwiches read P and
    S, never that u'; while they read a stored u', 1.9753 to 1.9755 read
    ``not_passed`` (at 1.9754 W rose by 1.3% at r0)."""
    try:
        report, _, _ = _subnormal_start_report(alpha, [[1.0, 0.001]])
    except (StepSizeUnderflow, Overflow):
        return
    assert report.passed



def _log_uniform(draw, lo, hi):
    return 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))


def _near(draw, share):
    """``share`` pushed to within 10^-3 to 10^-1 of 1 on about half the draws."""
    return 1.0 - 10.0 ** -draw(st.floats(1.0, 3.0)) if draw(st.booleans()) else share


@st.composite
def _admissible_instances(draw):
    """An admissible instance and its a, b, tol and r_max, at most 60 in lambda and mu.

    p in [1.2, 4] and n in 2..5.  alpha is (p-1)(1 - 10^-u) with u in
    [1, 3] on about half the draws, else up to 0.9 (p-1); k1 k3 is within
    10^-3 to 10^-1 of the gate (p-1-alpha)(p-1-k2) on about half, else up to
    0.9 of it.  m1 and m2 lie in [0, 2], and g1 and g3 sometimes carry a
    lower term.  a and b lie in [0.1, 10], tol in [1e-9, 1e-6] and r_max in
    [1e2, 1e4]."""
    p = draw(st.floats(1.2, 4.0))
    alpha = (p - 1.0) * _near(draw, draw(st.floats(0.0, 0.9)))
    k2 = (p - 1.0) * draw(st.floats(0.0, 0.7))
    product = (p - 1.0 - alpha) * (p - 1.0 - k2) * _near(draw, draw(st.floats(0.0, 0.9)))
    split = math.exp(draw(st.floats(-0.7, 0.7)))
    k1, k3 = math.sqrt(product) * split, math.sqrt(product) / split

    def law(k):
        if k > 0.05 and draw(st.booleans()):
            return [[draw(st.floats(0.1, 1.0)), k * draw(st.floats(0.0, 0.8))], [1.0, k]]
        return [[1.0, k]]

    cfg = {
        "p": p,
        "n": draw(st.integers(2, 5)),
        "alpha": alpha,
        "r_max": _log_uniform(draw, 1e2, 1e4),
        "f1": [[draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 2.0))]],
        "f2": [[draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 2.0))]],
        "g1": law(k1),
        "g2": [[1.0, k2]],
        "g3": law(k3),
    }
    system = system_from_config(cfg)
    profile = solve_profile(system)
    assume(profile.lam <= 60.0 and profile.mu <= 60.0)
    a, b = _log_uniform(draw, 0.1, 10.0), _log_uniform(draw, 0.1, 10.0)
    return system, a, b, _log_uniform(draw, 1e-9, 1e-6)


@settings(max_examples=60, deadline=None)
@given(instance=_admissible_instances())
def test_admissible_region_reports_or_fails_typed(instance):
    """Every admissible instance either gets a report, passed or not, or
    raises ``StepSizeUnderflow`` or ``Overflow`` at a finite positive radius;
    any other exception or numpy warning fails."""
    system, a, b, tol = instance
    try:
        report, _, _ = run_verification(system, a, b, tol, points_per_decade=8)
    except (StepSizeUnderflow, Overflow) as exc:
        assert 0.0 < exc.radius < math.inf
        return
    json.dumps(report.to_dict(), allow_nan=False)


# an admissible draw of the strategy above, at a loose tol
_LOOSE_TOL_CONFIG = {
    "p": 1.284,
    "n": 5,
    "alpha": 0.1896,
    "r_max": 6015,
    "f1": [[1.415, 1.605]],
    "f2": [[0.665, 0.844]],
    "g1": [[1, 0.0168]],
    "g2": [[1, 0.0554]],
    "g3": [[1, 0.0184]],
}


@pytest.mark.parametrize(
    "points_per_decade, tol",
    [
        pytest.param(
            8,
            4.4e-7,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="the fixed 1e-8 monotonicity slack sits below the step error that tol 4.4e-7 "
                "allows at 8 points per decade: U rises by 2.66e-7 at r = 4523",
            ),
        ),
        (64, 4.4e-7),
        (8, 1e-9),
    ],
    ids=["8-tol=4.4e-7", "64-tol=4.4e-7", "8-tol=1e-9"],
)
def test_loose_tol_instance_passes(points_per_decade, tol):
    """Ordering and the sandwiches pass, and every limit is within 1.7e-8 of
    1.  At 8 points per decade and tol 4.4e-7 U still rises by 2.66e-7, far
    above ``_SLACK``; at tol 1e-9 the rise is 6.76e-10, so it scales with
    ``tol``, and at 64 points per decade U decreases."""
    report, _, _ = run_verification(
        system_from_config(_LOOSE_TOL_CONFIG), 1.866, 0.688, tol, points_per_decade=points_per_decade
    )
    assert report.ordering.passed and report.convexity_bounds.passed
    assert all(abs(est.value - 1.0) < 1.7e-8 for est in report.limits.values())
    assert report.passed


def test_quotient_logs_are_finite_where_the_gradient_underflows():
    """With a constant term in g3 the run gets past r0, and u' underflows to 0
    at four grid radii while P stays positive.  Read from log P, every
    quotient log is finite; the log of that u' was log 0.  The run reads
    ``not_passed`` on Y, since the rates read g3(0) (not gated here)."""
    _, traj, qs = _subnormal_start_report(1.9757, [[1.0, 0.0], [1.0, 0.001]])
    assert int(np.sum(_float_gradients(traj)[0] == 0.0)) == 4 and np.all(traj.P > 0.0)
    assert np.all(np.isfinite(qs.log))


def test_g3_is_read_at_log_gradient_where_the_gradient_underflows():
    """On the same run, g3 = 1 + s^0.001 read at the float u' = 0 keeps only
    its constant term; read at log u' it is about 1.47 at those four radii.
    The second sandwich's tightest upper margin lies at one of them, and both
    it and the flux defect are what the log read gives."""
    report, traj, _ = _subnormal_start_report(1.9757, [[1.0, 0.0], [1.0, 0.001]])
    system = traj.system
    du = _float_gradients(traj)[0]
    zero = du == 0.0
    log_du = traj.logs()[2]
    g3 = g3_at_log_gradient(traj)
    assert np.array_equal(g3, 1.0 + np.exp(0.001 * log_du))
    assert np.all(system.g3(du[zero]) == 1.0) and np.all(g3[zero] > 1.47)
    r, n = traj.r, system.n
    coef = (system.p - 1.0 - system.alpha) / (system.p - 1.0)
    rhs_P = coef * r**system.delta * system.f1(r) * system.g1(traj.v)
    rhs_S = r ** (n - 1) * system.f2(r) * system.g2(traj.v) * g3
    assert np.array_equal(traj.flux_sources(), np.stack((rhs_P, rhs_S)))
    sigma2 = (n - 1.0) * traj.S / (r * rhs_S)
    second = report.convexity_bounds.second_equation
    assert second.r_at_upper in r[zero]
    assert second.worst_upper_margin == float(np.min(sigma2))
    quad = integrator._cumulative_power_quadrature(r, np.stack((rhs_P, rhs_S)))
    inc = np.stack((traj.P - traj.P[0], traj.S - traj.S[0]))
    defect = np.abs(inc - quad)[:, 1:] / np.maximum(np.maximum(np.abs(inc), np.abs(quad)), 1e-300)[:, 1:]
    assert flux_consistency(traj, system) == float(np.max(defect))


def test_flux_consistency_refuses_another_system(p3_traj, p3_system, poisson_system):
    """The quadrature reads ``traj.flux_sources()``, so a ``system`` other
    than ``traj.system`` would be ignored; it is refused, and only ``r_max``
    may differ."""
    with pytest.raises(ValueError, match="not the trajectory's own system"):
        flux_consistency(p3_traj, poisson_system)
    with pytest.raises(ValueError, match="not the trajectory's own system"):
        flux_consistency(p3_traj, dataclasses.replace(p3_system, alpha=0.5))
    defect = flux_consistency(p3_traj, p3_system)
    assert flux_consistency(p3_traj, dataclasses.replace(p3_system, r_max=1e4)) == defect
