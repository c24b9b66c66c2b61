"""Desk-scale verification of the comparison and convergence structure.

Given an integrated trajectory and the far-field power profile, form the four
quotient series

    U = u / u0,   V = v / v0,   W = u' / u0',   Y = v' / v0'

and check numerically what holds analytically for admissible systems with
positive initial data:

* all four quotients decrease monotonically in r,
* they stay above 1 and the gradient quotients below the value quotients
  (strictly so, except for degenerate constant couplings where some
  quotients collapse to 1),
* both flux derivatives sit inside explicit convexity sandwiches, and
* all four quotients share a common limit structure at infinity tied
  together by two power-balance identities.

The checks are arithmetic on stored states only; no derivative is ever
estimated by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrator import Trajectory, integrate_radial
from .model import ValidatedSystem
from .profile import PowerProfile, profile_eval, solve_profile

__all__ = [
    "GridMismatch",
    "InsufficientRange",
    "QuotientSeries",
    "LimitEstimate",
    "VerificationReport",
    "quotient_series",
    "check_monotone_quotients",
    "check_quotient_ordering",
    "check_ordering",
    "check_convexity_bounds",
    "estimate_limits",
    "check_limit_identities",
    "sample_profile_trajectory",
    "run_verification",
]

_SERIES_KEYS = ("u", "v", "du", "dv")


class GridMismatch(ValueError):
    """Two trajectories share no radial overlap to compare on."""


class InsufficientRange(ValueError):
    """Limit extrapolation needs at least two decades of radius."""


@dataclass
class QuotientSeries:
    """The four solution/profile ratios sampled on the trajectory grid."""

    r: np.ndarray
    u_ratio: np.ndarray
    v_ratio: np.ndarray
    du_ratio: np.ndarray
    dv_ratio: np.ndarray

    def series(self, key: str) -> np.ndarray:
        return {
            "u": self.u_ratio,
            "v": self.v_ratio,
            "du": self.du_ratio,
            "dv": self.dv_ratio,
        }[key]


def quotient_series(traj: Trajectory, profile: PowerProfile) -> QuotientSeries:
    """Ratios of a trajectory against the power profile on the trajectory grid."""
    u0, v0, du0, dv0 = profile_eval(profile, traj.r)
    return QuotientSeries(
        r=traj.r,
        u_ratio=traj.u / u0,
        v_ratio=traj.v / v0,
        du_ratio=traj.du / du0,
        dv_ratio=traj.dv / dv0,
    )


@dataclass
class SeriesMonotonicity:
    name: str
    passed: bool
    worst_increase: float  # largest forward increase, relative to the local value
    r_at: float


@dataclass
class MonotonicityReport:
    series: dict[str, SeriesMonotonicity]
    tol: float
    passed: bool


def check_monotone_quotients(qs: QuotientSeries, tol: float = 1e-8) -> MonotonicityReport:
    """Verify each quotient is non-increasing up to a multiplicative slack.

    A forward difference counts as a violation when it exceeds ``tol`` times
    the local quotient value; the report records the worst normalised
    increase and where it occurred.
    """
    out: dict[str, SeriesMonotonicity] = {}
    for key in _SERIES_KEYS:
        q = qs.series(key)
        rel_inc = np.diff(q) / np.abs(q[:-1])
        idx = int(np.argmax(rel_inc))
        worst = float(rel_inc[idx])
        out[key] = SeriesMonotonicity(
            name=key,
            passed=bool(worst <= tol),
            worst_increase=worst,
            r_at=float(qs.r[idx + 1]),
        )
    return MonotonicityReport(series=out, tol=tol, passed=all(s.passed for s in out.values()))


@dataclass
class QuotientOrdering:
    """Positioning of the quotients: above 1, gradients below values."""

    passed: bool
    slack: float
    min_excess: dict[str, float]  # min of (quotient - 1) per series
    min_gap_u: float  # min of (U - W) / U
    min_gap_v: float  # min of (V - Y) / V


def check_quotient_ordering(qs: QuotientSeries, slack: float = 1e-8) -> QuotientOrdering:
    """All quotients >= 1 and gradient ratios <= value ratios, up to slack.

    For non-degenerate couplings the inequalities are strict; degenerate
    constant couplings collapse some of them to equalities, which is why a
    multiplicative slack is allowed here (the strict variants are asserted in
    the comparison check between genuinely ordered trajectories).
    """
    excess = {key: float(np.min(qs.series(key)) - 1.0) for key in _SERIES_KEYS}
    gap_u = float(np.min((qs.u_ratio - qs.du_ratio) / qs.u_ratio))
    gap_v = float(np.min((qs.v_ratio - qs.dv_ratio) / qs.v_ratio))
    ok = all(v >= -slack for v in excess.values()) and gap_u >= -slack and gap_v >= -slack
    return QuotientOrdering(
        passed=bool(ok), slack=slack, min_excess=excess, min_gap_u=gap_u, min_gap_v=gap_v
    )


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, clipped to preserve shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _monotone_cubic(x: np.ndarray, y: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Monotone (PCHIP, Fritsch-Carlson) cubic through ``(x, y)`` evaluated at ``xs``.

    Node slopes are the weighted harmonic mean of the adjacent secants (zero
    at a local extremum or next to a flat secant), with the shape-preserving
    three-point rule at both ends (Moler, *Numerical Computing with MATLAB*,
    3.6) and the secant when there are only two points.  The cubic is summed
    in powers of ``xs - x[i]``, lowest first.  ``xs`` must lie in
    ``[x[0], x[-1]]``.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        d = np.zeros_like(y)
        inner = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1][inner] = 1.0 / whmean[inner]
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c3, c2 = t / h, (m - d[:-1]) / h - t
    i = np.clip(np.searchsorted(x, xs, side="right") - 1, 0, len(x) - 2)
    s = xs - x[i]
    s2 = s * s
    return y[i] + d[i] * s + c2[i] * s2 + c3[i] * (s2 * s)


@dataclass
class OrderingReport:
    """Strict pointwise comparison of two trajectories on a common grid."""

    passed: bool
    n_points: int
    min_margin: dict[str, float]  # min of (A - B)/|B| per component
    r_at: dict[str, float]


def check_ordering(traj_a: Trajectory, traj_b: Trajectory) -> OrderingReport:
    """Assert A dominates B strictly in u, v, u', v' pointwise.

    Intended for runs with strictly larger initial data in both components
    (or against a sampled profile).  Trajectories are compared on the part of
    A's grid covered by both; if the grids differ, B is resampled there with
    monotone (shape-preserving) interpolation.  Raises ``GridMismatch`` when
    the radial ranges do not overlap.
    """
    lo = max(traj_a.r[0], traj_b.r[0])
    hi = min(traj_a.r[-1], traj_b.r[-1])
    if not lo < hi:
        raise GridMismatch(
            f"no radial overlap: [{traj_a.r[0]}, {traj_a.r[-1]}] vs [{traj_b.r[0]}, {traj_b.r[-1]}]"
        )
    mask = (traj_a.r >= lo) & (traj_a.r <= hi)
    rs = traj_a.r[mask]
    if len(rs) < 2:
        raise GridMismatch("fewer than two common radii to compare on")
    same_grid = len(traj_a.r) == len(traj_b.r) and bool(
        np.allclose(traj_a.r, traj_b.r, rtol=1e-14, atol=0.0)
    )
    margins: dict[str, float] = {}
    r_at: dict[str, float] = {}
    passed = True
    for key in _SERIES_KEYS:
        a_vals = getattr(traj_a, key)[mask]
        if same_grid:
            b_vals = getattr(traj_b, key)[mask]
        else:
            b_vals = _monotone_cubic(traj_b.r, getattr(traj_b, key), rs)
        gap = a_vals - b_vals
        rel = gap / np.maximum(np.abs(b_vals), 1e-300)
        idx = int(np.argmin(rel))
        margins[key] = float(rel[idx])
        r_at[key] = float(rs[idx])
        passed = passed and bool(np.all(gap > 0.0))
    return OrderingReport(passed=passed, n_points=len(rs), min_margin=margins, r_at=r_at)


@dataclass
class EquationBounds:
    worst_lower_margin: float  # min of (deriv - lower)/upper; negative = violation
    worst_upper_margin: float  # min of (upper - deriv)/upper
    r_at_lower: float
    r_at_upper: float


@dataclass
class BoundsReport:
    first_equation: EquationBounds
    second_equation: EquationBounds
    tol: float
    passed: bool


def check_convexity_bounds(traj: Trajectory, system: ValidatedSystem, tol: float = 1e-8) -> BoundsReport:
    """Check the two-sided sandwiches on the flux derivatives.

    With w1 = f1(r) g1(v) and w2 = f2(r) g2(v) g3(u'), the exact relations

        d/dr[(u')^(p-1-alpha)] = (p-1-alpha)/(p-1) w1 - delta/r (u')^(p-1-alpha)
        d/dr[(v')^(p-1)]       = w2 - (n-1)/r (v')^(p-1)

    are evaluated from the stored states (no finite differences) and must sit
    inside

        (p-1-alpha) / (n(p-1-alpha)+alpha) * w1 <= ... <= (p-1-alpha)/(p-1) * w1
        (1/n) * w2 <= ... <= w2

    Margins are normalised by the upper bound; a run integrated from exact
    startup attains the lower bounds exactly when the radial weights are
    constants.
    """
    prm = system.params
    p, n, alpha, delta = prm.p, prm.n, prm.alpha, system.delta
    r = traj.r
    w1 = prm.f1(r) * system.g1(traj.v)
    w2 = prm.f2(r) * system.g2(traj.v) * system.g3(traj.du)
    pma = p - 1.0 - alpha

    deriv1 = pma / (p - 1.0) * w1 - delta / r * traj.du**pma
    lower1 = pma / (n * pma + alpha) * w1
    upper1 = pma / (p - 1.0) * w1
    deriv2 = w2 - (n - 1.0) / r * traj.dv ** (p - 1.0)
    lower2 = w2 / n
    upper2 = w2

    def eq_bounds(deriv, lower, upper) -> EquationBounds:
        lo_m = (deriv - lower) / upper
        up_m = (upper - deriv) / upper
        i_lo = int(np.argmin(lo_m))
        i_up = int(np.argmin(up_m))
        return EquationBounds(
            worst_lower_margin=float(lo_m[i_lo]),
            worst_upper_margin=float(up_m[i_up]),
            r_at_lower=float(r[i_lo]),
            r_at_upper=float(r[i_up]),
        )

    first = eq_bounds(deriv1, lower1, upper1)
    second = eq_bounds(deriv2, lower2, upper2)
    passed = all(
        m >= -tol
        for m in (
            first.worst_lower_margin,
            first.worst_upper_margin,
            second.worst_lower_margin,
            second.worst_upper_margin,
        )
    )
    return BoundsReport(first_equation=first, second_equation=second, tol=tol, passed=bool(passed))


@dataclass
class LimitEstimate:
    """Algebraic-decay fit of one quotient over the last two decades.

    ``value`` is the fitted quotient at the last radius, ``rate`` the decay
    exponent of (quotient - 1) and ``fit_quality`` the RMS residual of the
    log-log fit.  When the quotient is already flat at rounding level the raw
    final value is returned and no rate is reported.
    """

    value: float
    rate: Optional[float]
    fit_quality: Optional[float]
    r_last: float


def estimate_limits(qs: QuotientSeries) -> dict[str, LimitEstimate]:
    """Fit (quotient - 1) ~ c * r^(-q) over the last two decades of the grid.

    Raises ``InsufficientRange`` unless the grid spans at least two decades.
    The fitted value at the final radius smooths integrator noise; the rate is
    diagnostic only (no convergence-rate theory backs a threshold on it).
    """
    r = qs.r
    if r[-1] / r[0] < 99.999:
        raise InsufficientRange(
            f"grid spans only {math.log10(r[-1] / r[0]):.2f} decades, need >= 2"
        )
    window = r >= r[-1] / 100.0
    if int(np.sum(window)) < 3:
        raise InsufficientRange("fewer than three grid points in the last two decades")
    out: dict[str, LimitEstimate] = {}
    log_r = np.log(r[window])
    for key in _SERIES_KEYS:
        q = qs.series(key)[window]
        y = q - 1.0
        if np.min(y) <= 0.0 or np.max(y) <= 1e-13 * np.max(q):
            # flat (or sub-rounding) series: no decay left to fit
            out[key] = LimitEstimate(
                value=float(q[-1]), rate=None, fit_quality=None, r_last=float(qs.r[-1])
            )
            continue
        ly = np.log(y)
        slope, intercept = np.polyfit(log_r, ly, 1)
        resid = ly - (slope * log_r + intercept)
        out[key] = LimitEstimate(
            value=1.0 + math.exp(intercept + slope * log_r[-1]),
            rate=float(-slope),
            fit_quality=float(np.sqrt(np.mean(resid**2))),
            r_last=float(qs.r[-1]),
        )
    return out


@dataclass
class IdentityResiduals:
    """Residuals of the two power-balance identities among the limits.

    The limits L_u of U and L_v of V satisfy ``L_u^(p-1-alpha) = L_v^k1`` and
    ``L_v^(p-1) = L_v^k2 * L_u^k3`` exactly; the residuals are the absolute
    mismatches with the estimated limits substituted.
    """

    first: float
    second: float


def check_limit_identities(
    limits: dict[str, LimitEstimate], system: ValidatedSystem
) -> IdentityResiduals:
    p, alpha = system.params.p, system.params.alpha
    lu = limits["u"].value
    lv = limits["v"].value
    first = abs(lu ** (p - 1.0 - alpha) - lv**system.k1)
    second = abs(lv ** (p - 1.0) - lv**system.k2 * lu**system.k3)
    return IdentityResiduals(first=float(first), second=float(second))


def sample_profile_trajectory(
    profile: PowerProfile, system: ValidatedSystem, grid: np.ndarray
) -> Trajectory:
    """The profile itself packaged as a trajectory (exact states, no stepping)."""
    grid = np.asarray(grid, dtype=float)
    u0, v0, du0, dv0 = profile_eval(profile, grid)
    prm = system.params
    return Trajectory(
        r=grid,
        u=u0,
        v=v0,
        du=du0,
        dv=dv0,
        P=grid**system.delta * du0 ** (prm.p - 1.0 - prm.alpha),
        S=grid ** (prm.n - 1) * dv0 ** (prm.p - 1.0),
        meta={"synthetic": "profile"},
    )


# ----------------------------------------------------------------------------
# Full report
# ----------------------------------------------------------------------------

_LIMIT_ASSERT_RADIUS = 9999.0  # limits are thresholded only for runs reaching 1e4


@dataclass
class VerificationReport:
    """Aggregated verification outcome; JSON-friendly via ``to_dict``.

    Monotonicity, quotient ordering and the convexity sandwiches always gate
    ``passed``.  Limit closeness (threshold 1e-2) and the power-balance
    identity residuals (threshold 3e-2) are thresholded only when the run
    reaches radius 1e4, where those thresholds are calibrated; on shorter
    runs they are reported as diagnostics.
    """

    monotonicity: MonotonicityReport
    ordering: QuotientOrdering
    convexity_bounds: BoundsReport
    limits: Optional[dict[str, LimitEstimate]]
    limit_identities: Optional[IdentityResiduals]
    limits_asserted: bool
    limits_passed: Optional[bool]
    identities_passed: Optional[bool]
    tolerances: dict
    passed: bool

    def to_dict(self) -> dict:
        mono = {
            "passed": self.monotonicity.passed,
            "slack": self.monotonicity.tol,
            "series": {
                k: {
                    "passed": s.passed,
                    "worst_increase": s.worst_increase,
                    "r_at": s.r_at,
                }
                for k, s in self.monotonicity.series.items()
            },
        }
        ordering = {
            "passed": self.ordering.passed,
            "slack": self.ordering.slack,
            "min_excess_above_one": self.ordering.min_excess,
            "min_gap_u": self.ordering.min_gap_u,
            "min_gap_v": self.ordering.min_gap_v,
        }
        bounds = {
            "passed": self.convexity_bounds.passed,
            "slack": self.convexity_bounds.tol,
            "first_equation": vars(self.convexity_bounds.first_equation),
            "second_equation": vars(self.convexity_bounds.second_equation),
        }
        limits = None
        if self.limits is not None:
            limits = {
                k: {
                    "value": est.value,
                    "rate": est.rate,
                    "fit_quality": est.fit_quality,
                    "r_last": est.r_last,
                }
                for k, est in self.limits.items()
            }
        identities = None
        if self.limit_identities is not None:
            identities = {
                "first": self.limit_identities.first,
                "second": self.limit_identities.second,
            }
        return {
            "monotonicity": mono,
            "ordering": ordering,
            "convexity_bounds": bounds,
            "limits": limits,
            "limit_identities": identities,
            "limits_asserted": self.limits_asserted,
            "limits_passed": self.limits_passed,
            "identities_passed": self.identities_passed,
            "tolerances": self.tolerances,
            "passed": self.passed,
        }


def run_verification(
    system: ValidatedSystem,
    a: float = 1.0,
    b: float = 1.0,
    tol: float = 1e-9,
    *,
    r0: Optional[float] = None,
    r_max: Optional[float] = None,
    points_per_decade: int = 64,
    mono_tol: float = 1e-8,
    ordering_slack: float = 1e-8,
    bounds_tol: float = 1e-8,
    limit_threshold: float = 1e-2,
    identity_threshold: float = 3e-2,
) -> tuple[VerificationReport, Trajectory, QuotientSeries]:
    """Integrate one instance and run the whole verification battery.

    Requires pure-power radial weights (the comparison profile must exist).
    Returns the report together with the trajectory and quotient series so
    callers can export the underlying data.
    """
    profile = solve_profile(system)
    traj = integrate_radial(
        system, a, b, tol, r0=r0, r_max=r_max, points_per_decade=points_per_decade
    )
    qs = quotient_series(traj, profile)
    mono = check_monotone_quotients(qs, mono_tol)
    ordering = check_quotient_ordering(qs, ordering_slack)
    bounds = check_convexity_bounds(traj, system, bounds_tol)

    limits: Optional[dict[str, LimitEstimate]] = None
    identities: Optional[IdentityResiduals] = None
    try:
        limits = estimate_limits(qs)
        identities = check_limit_identities(limits, system)
    except InsufficientRange:
        pass

    limits_asserted = limits is not None and float(traj.r[-1]) >= _LIMIT_ASSERT_RADIUS
    limits_passed: Optional[bool] = None
    identities_passed: Optional[bool] = None
    if limits is not None:
        limits_passed = all(abs(est.value - 1.0) <= limit_threshold for est in limits.values())
        identities_passed = (
            identities.first <= identity_threshold and identities.second <= identity_threshold
        )
    passed = mono.passed and ordering.passed and bounds.passed
    if limits_asserted:
        passed = passed and bool(limits_passed) and bool(identities_passed)

    report = VerificationReport(
        monotonicity=mono,
        ordering=ordering,
        convexity_bounds=bounds,
        limits=limits,
        limit_identities=identities,
        limits_asserted=limits_asserted,
        limits_passed=limits_passed,
        identities_passed=identities_passed,
        tolerances={
            "integration_rtol": tol,
            "integration_atol_floor": tol * 1e-3,
            "monotonicity_slack": mono_tol,
            "ordering_slack": ordering_slack,
            "bounds_slack": bounds_tol,
            "limit_threshold": limit_threshold,
            "identity_threshold": identity_threshold,
            "limit_window_decades": 2.0,
        },
        passed=bool(passed),
    )
    return report, traj, qs
