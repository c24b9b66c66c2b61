"""Verification battery: quotient monotonicity, ordering, bounds, limits."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from plap import (
    GridMismatch,
    InsufficientRange,
    QuotientSeries,
    check_convexity_bounds,
    check_limit_identities,
    check_monotone_quotients,
    check_ordering,
    check_quotient_ordering,
    estimate_limits,
    integrate_radial,
    quotient_series,
    run_verification,
    sample_profile_trajectory,
    system_from_config,
)
from plap.verify import _monotone_cubic
from conftest import P3_CONFIG, sample_integration_system


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
    for key in ("u", "v", "du", "dv"):
        assert np.max(np.abs(qs.series(key) - 1.0)) < 5e-13, key
    # the flat series passes the slacked checks
    assert check_monotone_quotients(qs).passed
    assert check_quotient_ordering(qs).passed


def test_poisson_quotient_curve(poisson_traj, poisson_profile):
    qs = quotient_series(poisson_traj, poisson_profile)
    window = qs.r >= 1.0
    exact = 1.0 + 6.0 / qs.r[window] ** 2
    assert np.max(np.abs(qs.u_ratio[window] / exact - 1.0)) < 1e-7
    # degenerate couplings: gradient ratios are exactly 1 up to solver noise
    assert np.max(np.abs(qs.du_ratio - 1.0)) < 1e-9


def test_quotients_decrease_and_order(p3_quotients):
    mono = check_monotone_quotients(p3_quotients)
    assert mono.passed
    assert set(mono.series) == {"u", "v", "du", "dv"}
    for key, entry in mono.series.items():
        assert entry.worst_increase <= mono.tol, key

    ordering = check_quotient_ordering(p3_quotients)
    assert ordering.passed
    assert min(ordering.min_excess.values()) > 0.0
    assert ordering.min_gap_u > 0.0 and ordering.min_gap_v > 0.0


def test_monotonicity_flags_an_injected_bump(p3_quotients):
    bumped = dataclasses.replace(
        p3_quotients, u_ratio=p3_quotients.u_ratio.copy()
    )
    # inject near the flat tail, where the genuine decay cannot mask it
    bumped.u_ratio[-2] *= 1.0 + 1e-3
    report = check_monotone_quotients(bumped)
    assert not report.passed
    assert not report.series["u"].passed
    assert report.series["v"].passed
    assert report.series["u"].worst_increase == pytest.approx(1e-3, rel=0.1)


def test_ordering_flags_gradient_ratio_above_value_ratio(p3_quotients):
    bent = dataclasses.replace(
        p3_quotients, du_ratio=p3_quotients.u_ratio * 1.01
    )
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


def test_ordering_resamples_different_grids(p3_system):
    big = integrate_radial(p3_system, 2.0, 2.0, tol=1e-9, r_max=100.0, points_per_decade=48)
    small = integrate_radial(p3_system, 1.0, 1.0, tol=1e-9, r_max=100.0)
    report = check_ordering(big, small)
    assert report.passed and report.n_points > 0


def _interpolation_cases():
    rng = np.random.default_rng(20230702)
    for n in (2, 3, 4, 7, 40):
        x = np.cumsum(rng.uniform(0.1, 2.0, n))
        yield pytest.param(x, rng.normal(size=n), id=f"random-{n}")
        yield pytest.param(x, np.cumsum(rng.uniform(0.0, 1.0, n)), id=f"increasing-{n}")
    x = np.arange(10.0)
    yield pytest.param(x, np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 5.0, 5.0, 4.0, 4.0]), id="flat-segments")
    yield pytest.param(x, np.array([1.0, -1.0, 2.0, -3.0, 0.5, 0.5, -0.5, 3.0, -2.0, 1.0]), id="sign-changes")
    yield pytest.param(np.array([0.0, 1.0, 1.1]), np.array([0.0, 1.0, -5.0]), id="end-overshoot")
    yield pytest.param(x, np.full(10, 3.0), id="constant")
    grid = np.geomspace(1e-6, 1e2, 50)
    yield pytest.param(grid, 1.0 + grid**2.5, id="trajectory-like")


@pytest.mark.parametrize("x, y", list(_interpolation_cases()))
def test_monotone_cubic_matches_pchip_reference(x, y):
    rng = np.random.default_rng(7)
    xs = np.concatenate([x, np.sort(rng.uniform(x[0], x[-1], 200))])
    ours = _monotone_cubic(x, y, xs)
    ref = PchipInterpolator(x, y)(xs)
    np.testing.assert_allclose(ours, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(y)))


def test_ordering_rejects_disjoint_grids(p3_system, p3_profile):
    early = sample_profile_trajectory(p3_profile, p3_system, np.geomspace(1e-6, 1e-4, 30))
    late = sample_profile_trajectory(p3_profile, p3_system, np.geomspace(10.0, 100.0, 30))
    with pytest.raises(GridMismatch):
        check_ordering(early, late)


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
            assert eq.worst_lower_margin >= -report.tol
            assert eq.worst_upper_margin >= -report.tol


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


# ---------------------------------------------------------------------------
# Limit extrapolation and the power-balance identities
# ---------------------------------------------------------------------------


def synthetic_quotients(r, offsets):
    return QuotientSeries(
        r=r,
        u_ratio=1.0 + offsets[0],
        v_ratio=1.0 + offsets[1],
        du_ratio=1.0 + offsets[2],
        dv_ratio=1.0 + offsets[3],
    )


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


def test_limit_fit_requires_two_decades():
    r = np.geomspace(1.0, 50.0, 100)
    qs = synthetic_quotients(r, [r**-1.0] * 4)
    with pytest.raises(InsufficientRange):
        estimate_limits(qs)


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
