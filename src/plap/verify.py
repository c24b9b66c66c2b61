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

``flux_consistency`` checks the integration itself: it integrates the flux
equations' sources at the stored states by a quadrature independent of the
stepper and compares the result with the stored fluxes.

The quotients are held as logs, log U = log u - log C_lam - lam log r and
so on, since C_lam r^lam underflows near r0 on steep profiles; each check
reads its quantity from the logs through ``expm1``.

The checks are arithmetic on stored states only; no derivative is ever
estimated by finite differences.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .integrator import Trajectory, integrate_radial
from .model import ValidatedSystem
from .profile import PowerProfile, solve_profile

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
    "flux_consistency",
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
# the limits are fitted over the grid's last decades, this many
_LIMIT_WINDOW_DECADES = 2.0


class GridMismatch(ValueError):
    """Two trajectories share fewer than two radii to compare on."""


class InsufficientRange(ValueError):
    """Limit extrapolation needs at least two decades of radius."""


@dataclass
class QuotientSeries:
    """log U, log V, log W and log Y at the radii ``r``: the rows of one (4, N) array ``log``."""

    r: np.ndarray
    log: np.ndarray


def quotient_series(traj: Trajectory, profile: PowerProfile) -> QuotientSeries:
    """The logs of a trajectory's quotients, e.g. log U = log u - log C_lam - lam log r.

    No profile value is formed: C_lam r^lam underflows at r0 = 1e-6 once lam >~ 43.
    The profile's logs are subtracted from ``Trajectory.logs``, whose log u'
    and log v' are formed from log P and log S, so a u' that is subnormal or
    underflows to 0 keeps a finite log.
    """
    lam, mu, log_c_lam, log_c_mu = profile.lam, profile.mu, profile.log_c_lam, profile.log_c_mu
    log_amp = np.array([log_c_lam, log_c_mu, math.log(lam) + log_c_lam, math.log(mu) + log_c_mu])
    expo = np.array([lam, mu, lam - 1.0, mu - 1.0])
    return QuotientSeries(r=traj.r, log=traj.logs() - log_amp[:, None] - expo[:, None] * np.log(traj.r))


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
    increase and where it occurred.  For positive q that increase,
    diff(q) / q[:-1], is expm1 of the forward difference of log q.
    """
    rel_inc = np.expm1(np.diff(qs.log, axis=1))
    worst = np.max(rel_inc, axis=1).tolist()
    r_at = qs.r[np.argmax(rel_inc, axis=1) + 1].tolist()
    out = {
        key: SeriesMonotonicity(passed=bool(w <= tol), worst_increase=w, r_at=r)
        for key, w, r in zip(_SERIES_KEYS, worst, r_at)
    }
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
    the comparison check between genuinely ordered trajectories).  In logs the
    excess is expm1(min log q) and the gap (U - W) / U is -expm1(log W - log U).
    """
    with np.errstate(over="ignore"):  # an excess beyond the float range reads inf
        excess = dict(zip(_SERIES_KEYS, np.expm1(np.min(qs.log, axis=1)).tolist()))
    gap_u, gap_v = np.min(-np.expm1(qs.log[2:] - qs.log[:2]), axis=1).tolist()
    ok = all(v >= -slack for v in excess.values()) and gap_u >= -slack and gap_v >= -slack
    return QuotientOrdering(
        passed=bool(ok), slack=slack, min_excess_above_one=excess, min_gap_u=gap_u, min_gap_v=gap_v
    )


@dataclass
class OrderingReport:
    """Strict pointwise comparison of two trajectories on their shared radii."""

    passed: bool
    n_points: int
    min_margin: dict[str, float]  # min of (A - B)/B per component
    r_at: dict[str, float]


def check_ordering(traj_a: Trajectory, traj_b: Trajectory) -> OrderingReport:
    """Assert A dominates B strictly in u, v, u', v' pointwise.

    Intended for runs with strictly larger initial data in both components
    (or against a sampled profile).  Trajectories are compared only on the
    radii both grids hold exactly; nothing is interpolated.  Geometric grids
    over one range share every radius where their points per decade line
    up (64 and 8 per decade share every eighth radius of the finer grid).
    Raises ``GridMismatch`` when fewer than two radii are shared.

    The comparison reads ``Trajectory.logs``: A dominates where the log gap
    log A - log B is positive, and each margin (A - B)/B is expm1 of its
    row's smallest gap, at ``r_at``.  So no float gradient enters, and a gap
    is resolved down to about |log A| 2.2e-16 (at most 1.6e-13 for any
    float), where A - B would have lost it with a subnormal u'.  A state 0
    on one side gives an infinite gap; 0 on both sides a NaN one, which
    fails.
    """
    rs, ia, ib = np.intersect1d(traj_a.r, traj_b.r, assume_unique=True, return_indices=True)
    if len(rs) < 2:
        raise GridMismatch(f"{len(rs)} shared radii, need at least two to compare on")
    with np.errstate(invalid="ignore"):  # -inf - -inf: a 0 on both sides
        gap = traj_a.logs()[:, ia] - traj_b.logs()[:, ib]
    margins = dict(zip(_SERIES_KEYS, np.expm1(np.min(gap, axis=1)).tolist()))
    r_at = dict(zip(_SERIES_KEYS, rs[np.argmin(gap, axis=1)].tolist()))
    return OrderingReport(passed=bool(np.all(gap > 0.0)), n_points=len(rs), min_margin=margins, r_at=r_at)


def _fluxes_and_sources(traj: Trajectory, system: ValidatedSystem) -> tuple[np.ndarray, np.ndarray]:
    """The fluxes (P, S) and the sources of their equations P' = source_P and
    S' = source_S, as two (2, N) arrays:

        source_P = (p-1-alpha)/(p-1) r^delta f1(r) g1(v)
        source_S = r^(n-1) f2(r) g2(v) g3(u')

    g3(u') is read as sum_i a_i exp(e_i log u'), with log u' the third row of
    ``Trajectory.logs``, so each term stays resolved where the float u' is
    subnormal or 0, where ``g3(du)`` would keep only the constant terms; a
    term of exponent 0 is its coefficient.  The only place the sources are
    formed: ``check_convexity_bounds`` and ``flux_consistency`` read them
    here.  They are the sources of the trajectory's own system, so a
    ``system`` that differs from ``traj.system`` in anything but ``r_max``
    raises ``ValueError``: its p, n or alpha beside them would mix two
    systems.  ``r_max`` may differ: ``integrate_radial`` takes its own.
    """
    s, r = traj.system, traj.r
    if replace(system, r_max=s.r_max) != s:
        raise ValueError(f"system {system} is not the trajectory's own system {s}, r_max aside")
    log_du = traj.logs()[2]
    g3 = 0.0
    for coeff, expo in s.g3.terms:
        g3 = g3 + (coeff if expo == 0.0 else coeff * np.exp(expo * log_du))
    coef = (s.p - 1.0 - s.alpha) / (s.p - 1.0)
    source = np.stack((coef * r**s.delta * s.f1(r) * s.g1(traj.v), r ** (s.n - 1) * s.f2(r) * s.g2(traj.v) * g3))
    return np.stack((traj.P, traj.S)), source


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

    With the flux sources source_P = (p-1-alpha)/(p-1) r^delta f1(r) g1(v)
    and source_S = r^(n-1) f2(r) g2(v) g3(u') (``_fluxes_and_sources``),
    and the fluxes P = r^delta (u')^(p-1-alpha) and S = r^(n-1) (v')^(p-1),
    the exact relations

        d/dr[(u')^(p-1-alpha)] = r^-delta (source_P - delta P / r)
        d/dr[(v')^(p-1)]       = r^-(n-1) (source_S - (n-1) S / r)

    lie between c1 = (p-1)/(n(p-1-alpha)+alpha) and c2 = 1/n times their
    upper bounds r^-delta source_P and r^-(n-1) source_S.  So the gradient
    term's share of the source, sigma1 = delta P / (r source_P) or
    sigma2 = (n-1) S / (r source_S), lies in [0, 1 - c]: the lower margin is
    1 - c - sigma, the upper margin sigma.  sigma reads the fluxes, and the
    sources read g3(u') at log u', so no gradient that may be subnormal
    enters.  A non-finite source (an overflowed growth law) gives NaN
    margins, which fail, where sigma alone would read 0 and pass.  A run from
    exact startup attains the first lower bound exactly when the weights are
    constants.  A ``system`` that differs from ``traj.system`` in anything but
    ``r_max`` raises ``ValueError``: its p, n and alpha would be set against
    the sources of the trajectory's own system.
    """
    flux, source = _fluxes_and_sources(traj, system)
    p, n, alpha = system.p, system.n, system.alpha
    r = traj.r
    sigma = np.array([[system.delta], [n - 1.0]]) * flux / (r * source)
    sigma = np.where(np.isfinite(source), sigma, np.nan)
    lower = 1.0 - np.array([[(p - 1.0) / (n * (p - 1.0 - alpha) + alpha)], [1.0 / n]]) - sigma
    worst_lower, worst_upper = np.min(lower, axis=1).tolist(), np.min(sigma, axis=1).tolist()
    r_lower, r_upper = r[np.argmin(lower, axis=1)].tolist(), r[np.argmin(sigma, axis=1)].tolist()
    first, second = map(EquationBounds, worst_lower, worst_upper, r_lower, r_upper)
    passed = all(m >= -tol for m in worst_lower + worst_upper)
    return BoundsReport(first_equation=first, second_equation=second, slack=tol, passed=passed)


# the 6-point Gauss-Legendre rule on [-1, 1], np.polynomial.legendre.leggauss(6)
# bit for bit, written out so the check never imports numpy.polynomial
_GAUSS_NODES = np.array([-0.93246951420315194, -0.66120938646626448, -0.23861918608319690,
                         0.23861918608319690, 0.66120938646626448, 0.93246951420315194])
_GAUSS_WEIGHTS = np.array([0.17132449237917027, 0.36076157304813872, 0.46791393457269104,
                           0.46791393457269104, 0.36076157304813872, 0.17132449237917027])


def _cumulative_power_quadrature(r: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cumulative integrals of a (K, N) stack of positive, power-law-like integrands over r.

    Works in x = log r: each integrand is lifted to psi = log(values * r) and a
    local cubic fit of psi (four neighbouring nodes) is integrated per
    interval with 6-point Gauss-Legendre.  The nodes are the same for every
    row, so each interval makes one ``np.polyfit`` call with a K-column
    right-hand side and the rows share it.  Exact to rounding for pure powers
    of r, and high-order for the smooth log-curvature of validated runs: the
    truncation error falls as about h^4 in the grid spacing h, so the grid's
    points per decade, not the stepper's tolerance, set the defect it leaves.
    """
    x = np.log(r)
    psi = np.log(np.maximum(values, 1e-300)) + x
    # an infinite psi would make the least-squares solve rescale every row's
    # right-hand side by 1/inf; as NaN it spoils only its own row
    psi[np.isinf(psi)] = np.nan
    out = np.zeros(psi.shape)
    count = len(r)
    for i in range(count - 1):
        lo = max(0, i - 1)
        hi = min(count, i + 3)
        xc = x[lo:hi] - x[i]
        coeffs = np.polyfit(xc, psi[:, lo:hi].T, deg=len(xc) - 1)
        half = 0.5 * (x[i + 1] - x[i])
        local = half * (_GAUSS_NODES + 1.0)  # map [-1, 1] onto [0, x_{i+1}-x_i]
        out[:, i + 1] = out[:, i] + half * (_GAUSS_WEIGHTS @ np.exp(np.polyval(coeffs, local[:, None])))
    return out


def flux_consistency(traj: Trajectory, system: ValidatedSystem) -> float:
    """Worst relative defect between the fluxes and quadrature of their RHS.

    The right-hand sides are the sources of the trajectory's own system at
    the stored states (``_fluxes_and_sources``); a ``system`` that differs
    from it in anything but ``r_max`` raises ``ValueError``.  They are
    integrated cumulatively from the startup radius by a scheme independent
    of the stepper, both in one quadrature pass that shares each interval's
    fit; the defect at each grid point compares flux increments with the
    quadrature.  Converged runs score well below 1e-6; corrupting a single
    state is immediately visible.  The defect is the quadrature's own
    truncation, so it depends on the points per decade, not on ``tol``.  The
    defects of P and S form one (2, N) array reduced by one ``np.max``, so a
    NaN or infinite defect fails.
    """
    flux, source = _fluxes_and_sources(traj, system)
    quad = _cumulative_power_quadrature(traj.r, source)
    inc = flux - flux[:, :1]
    denom = np.maximum(np.maximum(np.abs(inc), np.abs(quad)), 1e-300)
    return float(np.max(np.abs(inc - quad)[:, 1:] / denom[:, 1:]))


@dataclass
class LimitEstimate:
    """Algebraic-decay fit of one quotient over the last two decades.

    ``value`` is the fitted quotient at the last radius (``inf`` past the
    float range), ``rate`` the decay exponent of (quotient - 1) and
    ``fit_quality`` the RMS residual of the log-log fit.  When the quotient is
    already flat at rounding level the raw final value is returned and no rate.
    """

    value: float
    rate: Optional[float]
    fit_quality: Optional[float]
    r_last: float


def estimate_limits(qs: QuotientSeries) -> dict[str, LimitEstimate]:
    """Fit (quotient - 1) ~ c * r^(-q) over the last two decades of the grid.

    Raises ``InsufficientRange`` unless the grid spans at least two decades.
    One ``np.polyfit`` fits all four rows on log(q - 1) = log q + log(1 - 1/q),
    read from the logs, so a steep quotient beyond the float range fits too.
    The fitted value at the final radius smooths integrator noise; the rate is
    diagnostic only (no convergence-rate theory backs a threshold on it).
    """
    r, span = qs.r, 10.0**_LIMIT_WINDOW_DECADES
    if r[-1] / r[0] < span - 1e-3:
        raise InsufficientRange(
            f"grid spans only {math.log10(r[-1] / r[0]):.2f} decades, need >= {_LIMIT_WINDOW_DECADES:g}"
        )
    window = r >= r[-1] / span * (1.0 - 1e-12)  # the two-decade point, however it rounds
    if int(np.sum(window)) < 3:
        raise InsufficientRange("fewer than three grid points in the last two decades")
    log_r, log_q = np.log(r[window]), qs.log[:, window]
    # rows that reach 1 or stay within rounding of it (log q <= 1e-13): no decay left to fit
    flat = (np.min(log_q, axis=1) <= 0.0) | (np.max(log_q, axis=1) <= 1e-13)
    fitted = np.where(flat[:, None], 1.0, log_q)  # a flat row's fit is discarded
    log_excess = fitted + np.log(-np.expm1(-fitted))
    slope, intercept = np.polyfit(log_r, log_excess.T, 1)
    rms = np.sqrt(np.mean((log_excess - (slope[:, None] * log_r + intercept[:, None])) ** 2, axis=1))
    with np.errstate(over="ignore"):
        value = np.where(flat, np.exp(log_q[:, -1]), 1.0 + np.exp(intercept + slope * log_r[-1]))
    rate = [None if f else -s for f, s in zip(flat, slope.tolist())]
    quality = [None if f else q for f, q in zip(flat, rms.tolist())]
    return dict(zip(_SERIES_KEYS, map(LimitEstimate, value.tolist(), rate, quality, [float(r[-1])] * 4)))


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
    """The profile packaged as a trajectory (exact states, no stepping): its fluxes, from which u' and v' are read.

    Every state vanishes at ``r = 0``, since both exponents exceed 1.  An
    amplitude beyond the float range raises ``OverflowError``; read
    ``profile.log_c_lam`` and ``log_c_mu`` there.
    """
    grid = np.asarray(grid, dtype=float)
    c_lam, c_mu = math.exp(profile.log_c_lam), math.exp(profile.log_c_mu)
    u0 = c_lam * grid**profile.lam
    v0 = c_mu * grid**profile.mu
    du0 = profile.lam * c_lam * grid ** (profile.lam - 1.0)
    dv0 = profile.mu * c_mu * grid ** (profile.mu - 1.0)
    return Trajectory(
        r=grid,
        u=u0,
        v=v0,
        P=grid**system.delta * du0 ** (system.p - 1.0 - system.alpha),
        S=grid ** (system.n - 1) * dv0 ** (system.p - 1.0),
        system=system,
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
    runs they are reported as diagnostics, so ``limits``,
    ``limit_identities``, ``limits_passed`` and ``identities_passed`` are
    always set.  ``to_dict`` writes ``None`` for a NaN or infinite number, so
    the report is standard JSON.
    """

    monotonicity: MonotonicityReport
    ordering: QuotientOrdering
    convexity_bounds: BoundsReport
    limits: dict[str, LimitEstimate]
    limit_identities: IdentityResiduals
    limits_asserted: bool
    limits_passed: bool
    identities_passed: bool
    tolerances: dict
    passed: bool

    def to_dict(self) -> dict:
        return _finite_or_none(asdict(self))


def _finite_or_none(node):
    """``node`` with every NaN or infinite float, nested dicts included, replaced by ``None``."""
    if isinstance(node, dict):
        return {key: _finite_or_none(value) for key, value in node.items()}
    return None if isinstance(node, float) and not math.isfinite(node) else node


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
    ``tolerances``.  The report always carries its limits: every run starts
    at r0 = 1e-6 min(1, r_max), so it spans six decades, with at least three
    grid points in the last two, and ``estimate_limits`` never raises here.
    Returns the report together with the trajectory and quotient series so
    callers can export the underlying data.
    """
    profile = solve_profile(system)
    traj = integrate_radial(system, a, b, tol, r_max=r_max, points_per_decade=points_per_decade)
    qs = quotient_series(traj, profile)
    mono = check_monotone_quotients(qs)
    ordering = check_quotient_ordering(qs)
    bounds = check_convexity_bounds(traj, system)

    limits = estimate_limits(qs)
    identities = check_limit_identities(limits, system)
    limits_asserted = float(traj.r[-1]) >= _LIMIT_ASSERT_RADIUS
    limits_passed = all(abs(est.value - 1.0) <= _LIMIT_THRESHOLD for est in limits.values())
    identities_passed = identities.first <= _IDENTITY_THRESHOLD and identities.second <= _IDENTITY_THRESHOLD
    passed = mono.passed and ordering.passed and bounds.passed
    if limits_asserted:
        passed = passed and limits_passed and identities_passed

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
            "limit_window_decades": _LIMIT_WINDOW_DECADES,
        },
        passed=bool(passed),
    )
    return report, traj, qs
