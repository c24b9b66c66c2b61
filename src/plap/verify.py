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
from contextlib import suppress
from dataclasses import asdict, dataclass
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

# Pinned acceptance thresholds: the multiplicative slack of the monotonicity,
# ordering and convexity checks, and the limit and identity thresholds that
# runs reaching radius 1e4 must meet.
_SLACK = 1e-8
_LIMIT_THRESHOLD = 1e-2
_IDENTITY_THRESHOLD = 3e-2


class GridMismatch(ValueError):
    """Two trajectories share fewer than two radii to compare on."""


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
    passed: bool
    worst_increase: float  # largest forward increase, relative to the local value
    r_at: float


@dataclass
class MonotonicityReport:
    series: dict[str, SeriesMonotonicity]
    slack: float
    passed: bool


def check_monotone_quotients(qs: QuotientSeries, tol: float = _SLACK) -> MonotonicityReport:
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
            passed=bool(worst <= tol),
            worst_increase=worst,
            r_at=float(qs.r[idx + 1]),
        )
    return MonotonicityReport(series=out, slack=tol, passed=all(s.passed for s in out.values()))


@dataclass
class QuotientOrdering:
    """Positioning of the quotients: above 1, gradients below values."""

    passed: bool
    slack: float
    min_excess_above_one: dict[str, float]  # min of (quotient - 1) per series
    min_gap_u: float  # min of (U - W) / U
    min_gap_v: float  # min of (V - Y) / V


def check_quotient_ordering(qs: QuotientSeries, slack: float = _SLACK) -> QuotientOrdering:
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
        passed=bool(ok), slack=slack, min_excess_above_one=excess, min_gap_u=gap_u, min_gap_v=gap_v
    )


@dataclass
class OrderingReport:
    """Strict pointwise comparison of two trajectories on their shared radii."""

    passed: bool
    n_points: int
    min_margin: dict[str, float]  # min of (A - B)/|B| per component
    r_at: dict[str, float]


def check_ordering(traj_a: Trajectory, traj_b: Trajectory) -> OrderingReport:
    """Assert A dominates B strictly in u, v, u', v' pointwise.

    Intended for runs with strictly larger initial data in both components
    (or against a sampled profile).  Trajectories are compared only on the
    radii both grids hold exactly; nothing is interpolated.  Geometric grids
    over one range share every radius where their points per decade line
    up (64 and 8 per decade share every eighth radius of the finer grid).
    Raises ``GridMismatch`` when fewer than two radii are shared.
    """
    rs, ia, ib = np.intersect1d(traj_a.r, traj_b.r, assume_unique=True, return_indices=True)
    if len(rs) < 2:
        raise GridMismatch(f"{len(rs)} shared radii, need at least two to compare on")
    margins: dict[str, float] = {}
    r_at: dict[str, float] = {}
    passed = True
    for key in _SERIES_KEYS:
        a_vals = getattr(traj_a, key)[ia]
        b_vals = getattr(traj_b, key)[ib]
        gap = a_vals - b_vals
        rel = gap / np.maximum(np.abs(b_vals), 1e-300)
        idx = int(np.argmin(rel))
        margins[key] = float(rel[idx])
        r_at[key] = float(rs[idx])
        passed = passed and bool(np.all(gap > 0.0))
    return OrderingReport(passed=passed, n_points=len(rs), min_margin=margins, r_at=r_at)


@dataclass
class EquationBounds:
    worst_lower_margin: float  # min of 1 - c - sigma; negative = violation
    worst_upper_margin: float  # min of sigma
    r_at_lower: float
    r_at_upper: float


@dataclass
class BoundsReport:
    first_equation: EquationBounds
    second_equation: EquationBounds
    slack: float
    passed: bool


def check_convexity_bounds(traj: Trajectory, system: ValidatedSystem, tol: float = _SLACK) -> BoundsReport:
    """Check the two-sided sandwiches on the flux derivatives.

    With w1 = f1(r) g1(v) and w2 = f2(r) g2(v) g3(u'), the exact relations

        d/dr[(u')^(p-1-alpha)] = (p-1-alpha)/(p-1) w1 - delta/r (u')^(p-1-alpha)
        d/dr[(v')^(p-1)]       = w2 - (n-1)/r (v')^(p-1)

    lie between c1 = (p-1)/(n(p-1-alpha)+alpha) and c2 = 1/n times their
    upper bounds (p-1-alpha)/(p-1) w1 and w2.  So the gradient term's share
    of the upper bound, sigma1 = delta (p-1) (u')^(p-1-alpha) / ((p-1-alpha) r w1)
    or sigma2 = (n-1) (v')^(p-1) / (r w2), lies in [0, 1 - c]: the lower
    margin is 1 - c - sigma, the upper margin sigma.  sigma reads the stored
    u' and v', not P and S: through P, sigma1 is delta / (r P'/P), and
    neither P nor P' reads u', so a bent u' would pass.
    A non-finite w (an overflowed growth law) gives NaN margins, which fail,
    where sigma alone would read 0 and pass.  A run from exact startup
    attains the first lower bound exactly when the weights are constants.
    """
    p, n, alpha, delta = system.p, system.n, system.alpha, system.delta
    r = traj.r
    pma = p - 1.0 - alpha
    w1 = system.f1(r) * system.g1(traj.v)
    w2 = system.f2(r) * system.g2(traj.v) * system.g3(traj.du)
    sigma1 = delta * (p - 1.0) * traj.du**pma / (pma * r * w1)
    sigma2 = (n - 1.0) * traj.dv ** (p - 1.0) / (r * w2)

    def eq_bounds(sigma, w, c) -> EquationBounds:
        sigma = np.where(np.isfinite(w), sigma, np.nan)
        lo_m = 1.0 - c - sigma
        i_lo = int(np.argmin(lo_m))
        i_up = int(np.argmin(sigma))
        return EquationBounds(
            worst_lower_margin=float(lo_m[i_lo]),
            worst_upper_margin=float(sigma[i_up]),
            r_at_lower=float(r[i_lo]),
            r_at_upper=float(r[i_up]),
        )

    first = eq_bounds(sigma1, w1, (p - 1.0) / (n * pma + alpha))
    second = eq_bounds(sigma2, w2, 1.0 / n)
    passed = all(
        m >= -tol for eq in (first, second) for m in (eq.worst_lower_margin, eq.worst_upper_margin)
    )
    return BoundsReport(first_equation=first, second_equation=second, slack=tol, passed=bool(passed))


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
    mismatches with the estimated limits substituted, ``inf`` where a side
    overflows.
    """

    first: float
    second: float


def check_limit_identities(
    limits: dict[str, LimitEstimate], system: ValidatedSystem
) -> IdentityResiduals:
    """Residuals of the two limit identities at the estimated limits of U and V."""
    p, alpha = system.p, system.alpha
    lu = limits["u"].value
    lv = limits["v"].value
    first = second = math.inf  # what a side that overflows leaves
    with suppress(OverflowError):
        first = abs(lu ** (p - 1.0 - alpha) - lv**system.k1)
    with suppress(OverflowError):
        second = abs(lv ** (p - 1.0) - lv**system.k2 * lu**system.k3)
    return IdentityResiduals(first=float(first), second=float(second))


def sample_profile_trajectory(
    profile: PowerProfile, system: ValidatedSystem, grid: np.ndarray
) -> Trajectory:
    """The profile itself packaged as a trajectory (exact states, no stepping)."""
    grid = np.asarray(grid, dtype=float)
    u0, v0, du0, dv0 = profile_eval(profile, grid)
    return Trajectory(
        r=grid,
        u=u0,
        v=v0,
        du=du0,
        dv=dv0,
        P=grid**system.delta * du0 ** (system.p - 1.0 - system.alpha),
        S=grid ** (system.n - 1) * dv0 ** (system.p - 1.0),
        meta={"synthetic": "profile"},
    )


# ----------------------------------------------------------------------------
# Full report
# ----------------------------------------------------------------------------

_LIMIT_ASSERT_RADIUS = 9999.0  # limits are thresholded only for runs reaching 1e4


@dataclass
class VerificationReport:
    """Aggregated verification outcome; ``to_dict`` gives the JSON report.

    Every field, nested ones included, is named after its report key.
    Monotonicity, quotient ordering and the convexity sandwiches always gate
    ``passed``.  Limit closeness (``_LIMIT_THRESHOLD``) and the power-balance
    identity residuals (``_IDENTITY_THRESHOLD``) are thresholded only when the
    run reaches radius 1e4, where those thresholds are calibrated; on shorter
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
        return asdict(self)


def run_verification(
    system: ValidatedSystem,
    a: float = 1.0,
    b: float = 1.0,
    tol: float = 1e-9,
    *,
    r_max: Optional[float] = None,
    points_per_decade: int = 64,
) -> tuple[VerificationReport, Trajectory, QuotientSeries]:
    """Integrate one instance and run the whole verification battery.

    Requires pure-power radial weights (the comparison profile must exist).
    The checks use the pinned thresholds, which the report lists under
    ``tolerances``.  Returns the report together with the trajectory and
    quotient series so callers can export the underlying data.
    """
    profile = solve_profile(system)
    traj = integrate_radial(system, a, b, tol, r_max=r_max, points_per_decade=points_per_decade)
    qs = quotient_series(traj, profile)
    mono = check_monotone_quotients(qs)
    ordering = check_quotient_ordering(qs)
    bounds = check_convexity_bounds(traj, system)

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
        limits_passed = all(abs(est.value - 1.0) <= _LIMIT_THRESHOLD for est in limits.values())
        identities_passed = (
            identities.first <= _IDENTITY_THRESHOLD and identities.second <= _IDENTITY_THRESHOLD
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
            "monotonicity_slack": _SLACK,
            "ordering_slack": _SLACK,
            "bounds_slack": _SLACK,
            "limit_threshold": _LIMIT_THRESHOLD,
            "identity_threshold": _IDENTITY_THRESHOLD,
            "limit_window_decades": 2.0,
        },
        passed=bool(passed),
    )
    return report, traj, qs
