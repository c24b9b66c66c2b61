"""Adaptive integration of the radial system in conserved flux form.

Positive increasing radial solutions are integrated through the state
``y = (u, v, P, S)`` where the two fluxes

    P(r) = r^delta   * u'(r)^(p-1-alpha),      delta = (n-1)(p-1-alpha)/(p-1)
    S(r) = r^(n-1)   * v'(r)^(p-1)

turn both equations into plain quadratures of positive integrands:

    P'(r) = (p-1-alpha)/(p-1) * r^delta  * f1(r) * g1(v)
    S'(r) = r^(n-1) * f2(r) * g2(v) * g3(u')

with the gradients recovered algebraically,
``u' = (P / r^delta)^(1/(p-1-alpha))`` and ``v' = (S / r^(n-1))^(1/(p-1))``.
This formulation stays smooth through the degenerate origin (where both
gradients vanish) and makes the fluxes monotone quadrature targets, which the
independent consistency check exploits.

The initial value problem is singular at r = 0, so integration starts from a
small radius r0 with a leading-order startup state obtained by freezing the
growth-law arguments at their origin values inside the flux integrals.

Stepping uses an embedded Dormand-Prince 5(4) pair with PI-free standard step
control, relative tolerance ``tol`` and a per-component absolute floor scaled
to the startup magnitudes (a flat absolute floor would licence arbitrarily
large relative drift in the fluxes near the origin, where P can be 1e-18).
The step loop runs on plain Python floats: for a 4-component state, numpy's
per-call overhead would cost several times the arithmetic itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .model import ValidatedSystem

__all__ = [
    "StepSizeUnderflow",
    "Overflow",
    "State",
    "Trajectory",
    "geometric_grid",
    "startup_state",
    "flux_rhs",
    "integrate_radial",
    "dormand_prince_step",
    "integrate_fixed_grid",
    "flux_consistency",
]


class StepSizeUnderflow(RuntimeError):
    """Accepted step would fall below 1e-14 * r: stiffness or blow-up suspected."""

    def __init__(self, radius: float, message: str | None = None):
        self.radius = radius
        super().__init__(message or f"step size underflow at r={radius!r}")


class Overflow(RuntimeError):
    """A state component left the representable range before r_max."""

    def __init__(self, radius: float, message: str | None = None):
        self.radius = radius
        super().__init__(message or f"state overflow at r={radius!r}")


@dataclass(frozen=True)
class State:
    """Solution state at one radius, fluxes plus recovered gradients."""

    r: float
    u: float
    v: float
    P: float
    S: float
    du: float
    dv: float


@dataclass
class Trajectory:
    """Solution sampled on a strictly increasing radial grid.

    Component arrays are aligned with ``r``; ``du``/``dv`` are the gradients
    recovered from the fluxes, not finite differences.  ``meta`` records the
    initial data, startup radius, tolerances, step counts and right-hand-side
    evaluations of the run.  A default-grid trajectory shares its read-only
    ``r`` with every other run on the same grid (see ``geometric_grid``).
    """

    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    P: np.ndarray
    S: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.r)


@functools.lru_cache(maxsize=16)
def geometric_grid(r0: float, r_max: float, points_per_decade: int = 64) -> np.ndarray:
    """Geometric output grid from r0 to r_max, about `points_per_decade` per decade.

    Grids are memoised and read-only, so repeated runs on one grid share one
    array instead of holding a copy each.
    """
    if not (0.0 < r0 < r_max):
        raise ValueError(f"need 0 < r0 < r_max, got r0={r0}, r_max={r_max}")
    decades = math.log10(r_max / r0)
    count = max(2, int(math.ceil(decades * points_per_decade)) + 1)
    grid = np.geomspace(r0, r_max, count)
    grid.flags.writeable = False
    return grid


def startup_state(system: ValidatedSystem, a: float, b: float, r0: float) -> State:
    """Leading-order state at the startup radius r0.

    Freezing the growth-law arguments at their origin values (``v = b`` and,
    for g3, the gradient implied by the first flux) makes both flux integrals
    elementary:

        P(r0) = (p-1-alpha)/(p-1) * g1(b) * sum_i c_i r0^(delta+m_i+1)/(delta+m_i+1)
        S(r0) = g2(b) * g3(u'(r0)) *        sum_i c_i r0^(n+m_i)/(n+m_i)

    The neglected variation of u, v over [0, r0] is O(r0^(1+eps)), far below
    integration tolerance for the default r0 = 1e-6 * min(1, r_max).
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"initial data must be positive, got a={a}, b={b}")
    if not r0 > 0.0:
        raise ValueError(f"startup radius must be positive, got {r0}")
    prm = system.params
    p, n, alpha, delta = prm.p, prm.n, prm.alpha, system.delta
    P = 0.0
    for c, m in prm.f1.terms:
        P += c * r0 ** (delta + m + 1.0) / (delta + m + 1.0)
    P *= (p - 1.0 - alpha) / (p - 1.0) * system.g1(b)
    du = (P / r0**delta) ** (1.0 / (p - 1.0 - alpha))
    S = 0.0
    for c, m in prm.f2.terms:
        S += c * r0 ** (n + m) / (n + m)
    S *= system.g2(b) * system.g3(du)
    dv = (S / r0 ** (n - 1)) ** (1.0 / (p - 1.0))
    return State(r=r0, u=a, v=b, P=P, S=S, du=du, dv=dv)


def flux_rhs(system: ValidatedSystem) -> Callable[[float, Sequence[float]], tuple]:
    """Right-hand side of the flux system as a plain callable f(r, y).

    ``y`` is any sequence ``(u, v, P, S)`` of floats (an ndarray is read
    through ``tolist``); the derivatives come back as a tuple of floats.
    Transient stage values of the explicit stepper may momentarily push a
    component below zero; those are clamped (the converged solution is
    strictly positive, and the error estimate rejects any step for which the
    clamp mattered).
    """
    prm = system.params
    p, n, alpha, delta = prm.p, prm.n, prm.alpha, system.delta
    inv_grad = 1.0 / (p - 1.0 - alpha)
    inv_p1 = 1.0 / (p - 1.0)
    coef = (p - 1.0 - alpha) / (p - 1.0)
    f1, f2 = prm.f1, prm.f2
    g1, g2, g3 = system.g1, system.g2, system.g3
    n1 = float(n - 1)

    def rhs(r: float, y: Sequence[float]) -> tuple:
        u, v, P, S = y.tolist() if isinstance(y, np.ndarray) else y
        if v < 0.0:
            v = 0.0
        rd = r**delta
        rn = r**n1
        du = (P / rd) ** inv_grad if P > 0.0 else 0.0
        dv = (S / rn) ** inv_p1 if S > 0.0 else 0.0
        return (
            du,
            dv,
            coef * rd * f1(r) * g1(v),
            rn * f2(r) * g2(v) * g3(du),
        )

    return rhs


# ----------------------------------------------------------------------------
# Dormand-Prince 5(4) embedded pair (FSAL)
# ----------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# difference between the 5th and the embedded 4th order weights
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def dormand_prince_step(
    f: Callable[[float, Sequence[float]], Sequence[float]],
    r: float,
    y: Sequence[float],
    h: float,
    k1: Optional[Sequence[float]] = None,
) -> tuple[list, list, Sequence[float]]:
    """One embedded 5(4) step from (r, y) with step h.

    Returns the 5th-order solution and the embedded error vector as lists of
    floats, and the right-hand side at the new point as ``f`` returned it
    (FSAL stage, reusable as the next k1).  An ndarray ``y`` is read through
    ``tolist``.  Each stage is one pass over the components; the weights are
    summed left to right with the zero ones skipped, then scaled by h.
    """
    if isinstance(y, np.ndarray):
        y = y.tolist()
    _, c2, c3, c4, c5, c6, c7 = _DP_C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65), (
        a71, _, a73, a74, a75, a76,
    ) = _DP_A[1:]
    e1, _, e3, e4, e5, e6, e7 = _DP_ERR
    if k1 is None:
        k1 = f(r, y)
    k2 = f(r + c2 * h, [y0 + h * (a21 * q1) for y0, q1 in zip(y, k1)])
    k3 = f(r + c3 * h, [y0 + h * (a31 * q1 + a32 * q2) for y0, q1, q2 in zip(y, k1, k2)])
    k4 = f(
        r + c4 * h,
        [y0 + h * (a41 * q1 + a42 * q2 + a43 * q3) for y0, q1, q2, q3 in zip(y, k1, k2, k3)],
    )
    k5 = f(
        r + c5 * h,
        [
            y0 + h * (a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4)
            for y0, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)
        ],
    )
    k6 = f(
        r + c6 * h,
        [
            y0 + h * (a61 * q1 + a62 * q2 + a63 * q3 + a64 * q4 + a65 * q5)
            for y0, q1, q2, q3, q4, q5 in zip(y, k1, k2, k3, k4, k5)
        ],
    )
    # the 5th-order solution; stage 7 sits at (r+h, y_new)
    y_new = [
        y0 + h * (a71 * q1 + a73 * q3 + a74 * q4 + a75 * q5 + a76 * q6)
        for y0, q1, q3, q4, q5, q6 in zip(y, k1, k3, k4, k5, k6)
    ]
    k7 = f(r + c7 * h, y_new)
    err = [
        h * (e1 * q1 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6 + e7 * q7)
        for q1, q3, q4, q5, q6, q7 in zip(k1, k3, k4, k5, k6, k7)
    ]
    return y_new, err, k7


def integrate_fixed_grid(
    f: Callable[[float, Sequence[float]], Sequence[float]],
    grid: Sequence[float],
    y0: Sequence[float],
) -> np.ndarray:
    """Single 5(4) step per grid interval, no error control (convergence studies)."""
    grid = np.asarray(grid, dtype=float)
    y = np.asarray(y0, dtype=float).copy()
    out = np.empty((len(grid), len(y)))
    out[0] = y
    k1 = None
    for i in range(len(grid) - 1):
        y, _, k1 = dormand_prince_step(f, float(grid[i]), y, float(grid[i + 1] - grid[i]), k1)
        out[i + 1] = y
    return out


_OVERFLOW_LIMIT = 1e250
_UNDERFLOW_SCALE = 1e-14
_MAX_STEPS = 2_000_000


def _propagate(
    f: Callable[[float, Sequence[float]], Sequence[float]],
    grid: np.ndarray,
    y0: Sequence[float],
    rtol: float,
    atol: Sequence[float],
) -> tuple[np.ndarray, int, int]:
    """Adaptive stepping that lands exactly on every output grid point.

    ``atol`` holds positive per-component floors (a scalar is broadcast).
    """
    y = np.asarray(y0, dtype=float).tolist()
    dim = len(y)
    atol = np.broadcast_to(np.asarray(atol, dtype=float), (dim,)).tolist()
    radii = np.asarray(grid, dtype=float).tolist()
    out = np.empty((len(radii), dim))
    out[0] = y
    r = radii[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = f(r, y)
        h = radii[1] - radii[0]
        accepted = rejected = 0
        for i, target in enumerate(radii[1:], 1):
            while True:
                remaining = target - r
                if remaining <= abs(r) * 1e-15:
                    break
                h_try = min(h, remaining)
                y_new, err, k_last = dormand_prince_step(f, r, y, h_try, k1)
                finite = all(map(math.isfinite, y_new))
                enorm = math.inf
                if finite:
                    # RMS of the scaled error, summed left to right: sum()
                    # compensates rounding from Python 3.12 on, which would
                    # move step decisions between interpreter versions
                    total = 0.0
                    for e, floor, y_old, y_cur in zip(err, atol, y, y_new):
                        q = e / (floor + rtol * max(abs(y_old), abs(y_cur)))
                        total += q * q
                    enorm = math.sqrt(total / dim)
                ok = finite and enorm <= 1.0 and min(y_new) > 0.0
                if ok:
                    r = target if h_try == remaining else r + h_try
                    y = y_new
                    k1 = k_last
                    accepted += 1
                    if max(map(abs, y)) > _OVERFLOW_LIMIT:
                        raise Overflow(r)
                    grow = 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm**-0.2)
                    h = h_try * max(0.2, grow)
                else:
                    rejected += 1
                    if not math.isfinite(enorm):
                        shrink = 0.2
                    elif enorm <= 1.0:
                        # Rejected on positivity alone; the error estimate is
                        # uninformative, so just halve.
                        shrink = 0.5
                    else:
                        shrink = max(0.1, min(0.9, 0.9 * enorm**-0.2))
                    h = h_try * shrink
                    if h < _UNDERFLOW_SCALE * max(abs(r), 1e-300):
                        if not finite or max(map(abs, y)) > 1e200:
                            raise Overflow(r)
                        raise StepSizeUnderflow(r)
                if accepted + rejected > _MAX_STEPS:
                    raise StepSizeUnderflow(r, f"step budget exhausted at r={r!r}")
            out[i] = y
    return out, accepted, rejected


def integrate_radial(
    system: ValidatedSystem,
    a: float,
    b: float,
    tol: float = 1e-9,
    *,
    r0: Optional[float] = None,
    r_max: Optional[float] = None,
    points_per_decade: int = 64,
    grid: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Integrate from the origin startup out to r_max on a geometric output grid.

    ``tol`` is the relative local-error tolerance (allowed range 1e-13 to
    1e-3); the absolute floor is ``tol * 1e-3`` scaled per component by the
    startup magnitudes.  Default grids come from ``geometric_grid`` and are
    shared, read-only arrays.  Raises ``StepSizeUnderflow`` when the controller
    drives the step below 1e-14 * r and ``Overflow`` (with the radius reached)
    when a component leaves the representable range.
    """
    if not (1e-13 <= tol <= 1e-3):
        raise ValueError(f"tol must lie in [1e-13, 1e-3], got {tol}")
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 2:
            raise ValueError("explicit grid needs at least two radii")
        if grid[0] <= 0.0 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("explicit grid must be positive and strictly increasing")
        r_start = float(grid[0])
    else:
        r_end = float(r_max if r_max is not None else system.params.r_max)
        r_start = float(r0 if r0 is not None else 1e-6 * min(1.0, r_end))
        grid = geometric_grid(r_start, r_end, points_per_decade)
    start = startup_state(system, a, b, r_start)
    y0 = [start.u, start.v, start.P, start.S]
    atol = [(tol * 1e-3) * max(abs(x), 1e-300) for x in y0]
    ys, accepted, rejected = _propagate(flux_rhs(system), grid, y0, tol, atol)

    prm = system.params
    inv_grad = 1.0 / (prm.p - 1.0 - prm.alpha)
    inv_p1 = 1.0 / (prm.p - 1.0)
    # the four state columns are rows of one contiguous block, so a kept
    # trajectory holds six arrays and nothing more
    u, v, P, S = ys.T.copy()
    du = (P / grid**system.delta) ** inv_grad
    dv = (S / grid ** (prm.n - 1)) ** inv_p1
    return Trajectory(
        r=grid,
        u=u,
        v=v,
        du=du,
        dv=dv,
        P=P,
        S=S,
        meta={
            "a": a,
            "b": b,
            "r0": r_start,
            "rtol": tol,
            "atol_floor": tol * 1e-3,
            "steps_accepted": accepted,
            "steps_rejected": rejected,
            # one startup evaluation, then six per attempted step (FSAL)
            "rhs_evals": 1 + 6 * (accepted + rejected),
        },
    )


# ----------------------------------------------------------------------------
# Independent flux consistency check
# ----------------------------------------------------------------------------


def _cumulative_power_quadrature(r: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cumulative integral of a positive, power-law-like integrand over r.

    Works in x = log r: the integrand is lifted to psi = log(values * r) and a
    local cubic fit of psi (four neighbouring nodes) is integrated per
    interval with 6-point Gauss-Legendre.  Exact to rounding for pure powers
    of r, and high-order for the smooth log-curvature of validated runs, so a
    64-per-decade grid resolves the integral far below the defect thresholds.
    """
    x = np.log(r)
    psi = np.log(np.maximum(values, 1e-300)) + x
    nodes, weights = np.polynomial.legendre.leggauss(6)
    out = np.zeros(len(r))
    acc = 0.0
    count = len(r)
    for i in range(count - 1):
        lo = max(0, i - 1)
        hi = min(count, i + 3)
        xc = x[lo:hi] - x[i]
        coeffs = np.polyfit(xc, psi[lo:hi], deg=len(xc) - 1)
        half = 0.5 * (x[i + 1] - x[i])
        local = half * (nodes + 1.0)  # map [-1, 1] onto [0, x_{i+1}-x_i]
        acc += half * float(np.dot(weights, np.exp(np.polyval(coeffs, local))))
        out[i + 1] = acc
    return out


def flux_consistency(traj: Trajectory, system: ValidatedSystem) -> float:
    """Worst relative defect between the fluxes and quadrature of their RHS.

    The right-hand sides are evaluated from the stored states and integrated
    cumulatively from the startup radius by a scheme independent of the
    stepper; the defect at each grid point compares flux increments with the
    quadrature.  Converged runs score well below 1e-6; corrupting a single
    state is immediately visible.
    """
    prm = system.params
    p, n, alpha, delta = prm.p, prm.n, prm.alpha, system.delta
    coef = (p - 1.0 - alpha) / (p - 1.0)
    r = traj.r
    rhs_P = coef * r**delta * prm.f1(r) * system.g1(traj.v)
    rhs_S = r ** (n - 1) * prm.f2(r) * system.g2(traj.v) * system.g3(traj.du)
    worst = 0.0
    for flux, rhs in ((traj.P, rhs_P), (traj.S, rhs_S)):
        quad = _cumulative_power_quadrature(r, rhs)
        inc = flux - flux[0]
        denom = np.maximum(np.maximum(np.abs(inc), np.abs(quad)), 1e-300)
        defect = np.abs(inc - quad) / denom
        worst = max(worst, float(np.max(defect[1:])))
    return worst
