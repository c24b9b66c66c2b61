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
per-call overhead would cost several times the arithmetic itself.  The hot
path is generated from its single sources: ``flux_rhs`` writes each
system's power-sum terms out inline, and the whole adaptive loop, stages
from the Butcher tableau, error norm, tests and step-size controller, is
unrolled over the components once per dimension.  The generated code keeps
the order of every floating-point operation, so it computes what the
generic power sums and the generic step loop compute, bit for bit.
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


class _IntegrationFailure(RuntimeError):
    """A failed integration: ``radius`` is where it stopped, ``state`` the last
    accepted state as a tuple of floats and ``h`` the last attempted step."""

    _what = ""

    def __init__(
        self,
        radius: float,
        message: str | None = None,
        *,
        state: tuple | None = None,
        h: float | None = None,
    ):
        self.radius = radius
        self.state = state
        self.h = h
        super().__init__(message or f"{self._what} at r={radius!r}")

    def __reduce__(self):
        # the default rebuilds from ``args``, which would pass the message
        # as the radius
        return type(self), (self.radius, str(self)), {"state": self.state, "h": self.h}


class StepSizeUnderflow(_IntegrationFailure):
    """Accepted step would fall below 1e-14 * r: stiffness or blow-up suspected."""

    _what = "step size underflow"


class Overflow(_IntegrationFailure):
    """A state component left the representable range before r_max."""

    _what = "state overflow"


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
    initial data, startup radius, tolerances, step counts, rejected steps by
    cause (``rejections``) and right-hand-side evaluations of the run.  A
    default-grid trajectory shares its read-only ``r`` with every other run
    on the same grid (see ``geometric_grid``).
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


@functools.lru_cache(maxsize=64)
def _compile_factory(factory: str, name: str) -> Callable:
    """Compile a ``_bind`` factory once per source text; ``_generate`` binds it."""
    namespace: dict = {}
    exec(compile(factory, f"<generated {name}>", "exec"), namespace)
    return namespace["_bind"]


def _generate(source: str, name: str, constants: dict) -> Callable:
    """Compile ``source``, which defines ``name``, with ``constants`` bound as names.

    The constants become closure cells of the compiled function, so they are
    read as fast as locals and enter the code by name, never as literals:
    ``repr`` would turn an infinite coefficient into the unbound name ``inf``.
    The code depends only on the names, so systems with the same number of
    terms per law share one compilation.
    """
    params = ", ".join(constants)
    body = "".join(f"    {line}\n" for line in source.splitlines())
    factory = f"def _bind({params}):\n{body}    return {name}\n"
    return _compile_factory(factory, name)(**constants)


def _power_sum_source(prefix: str, law, arg: str, constants: dict) -> str:
    """Inline ``law(arg)`` with the arithmetic of ``_PowerSum.__call__``.

    The terms are added left to right onto 0.0, ``((0.0 + c0*x**e0) + c1*x**e1)``,
    with each coefficient and exponent bound in ``constants``.
    """
    total = "0.0"
    for i, (coeff, expo) in enumerate(law.terms):
        constants[f"{prefix}_c{i}"] = coeff
        constants[f"{prefix}_e{i}"] = expo
        total = f"({total} + {prefix}_c{i} * {arg} ** {prefix}_e{i})"
    return total


_RHS_SOURCE = """\
def rhs(r, y):
    u, v, P, S = y.tolist() if isinstance(y, ndarray) else y
    if v < 0.0:
        v = 0.0
    rd = r**delta
    rn = r**n1
    du = (P / rd) ** inv_grad if P > 0.0 else 0.0
    dv = (S / rn) ** inv_p1 if S > 0.0 else 0.0
    return (du, dv, coef * rd * {f1} * {g1}, rn * {f2} * {g2} * {g3})
"""


def flux_rhs(system: ValidatedSystem) -> Callable[[float, Sequence[float]], tuple]:
    """Right-hand side of the flux system as a plain callable f(r, y).

    ``y`` is any sequence ``(u, v, P, S)`` of floats (an ndarray is read
    through ``tolist``); the derivatives come back as a tuple of floats.
    Transient stage values of the explicit stepper may momentarily push a
    component below zero; those are clamped (the converged solution is
    strictly positive, and the error estimate rejects any step for which the
    clamp mattered).

    The callable is generated per system with the five power sums written
    out term by term; it computes exactly what ``f1(r) * g1(v)`` and
    ``f2(r) * g2(v) * g3(du)`` compute, bit for bit.
    """
    prm = system.params
    p, alpha = prm.p, prm.alpha
    constants = dict(
        ndarray=np.ndarray,
        delta=system.delta,
        n1=float(prm.n - 1),
        inv_grad=1.0 / (p - 1.0 - alpha),
        inv_p1=1.0 / (p - 1.0),
        coef=(p - 1.0 - alpha) / (p - 1.0),
    )
    sums = {
        name: _power_sum_source(name, law, arg, constants)
        for name, law, arg in (
            ("f1", prm.f1, "r"),
            ("g1", system.g1, "v"),
            ("f2", prm.f2, "r"),
            ("g2", system.g2, "v"),
            ("g3", system.g3, "du"),
        )
    }
    return _generate(_RHS_SOURCE.format(**sums), "rhs", constants)


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


def _weighted_sum(prefix: str, weights: Sequence[float], m: int, constants: dict) -> str:
    """``w1 * k1_m + w2 * k2_m + ...`` over the nonzero weights, left to right."""
    terms = []
    for j, w in enumerate(weights, 1):
        if w != 0.0:
            constants[f"{prefix}{j}"] = w
            terms.append(f"{prefix}{j} * k{j}_{m}")
    return " + ".join(terms)


def _unpack(name: str, dim: int) -> str:
    """``name0, name1, ...,``: the trailing comma makes one component a tuple too."""
    return "".join(f"{name}{m}, " for m in range(dim)).rstrip()


def _each(template: str, dim: int, sep: str) -> str:
    """``template`` once per component ``m``, joined by ``sep``."""
    return sep.join(template.format(m=m) for m in range(dim))


def _dp_stage_lines(dim: int, h: str, constants: dict) -> list[str]:
    """Stages 2 to 7 of one Dormand-Prince step and its error estimate, as source lines.

    This is the only place the tableau becomes code.  The lines read ``f``,
    ``r``, the step named ``h``, the state ``y0, y1, ...`` and the first stage
    ``k1_0, k1_1, ...``.  Every stage is written out per component: its
    weights are summed left to right with the zero ones skipped, then scaled
    by h and added to y, and the stage state goes to ``f`` as a list.  The
    lines leave the 5th-order solution in the list ``s7``, ``f`` at it in
    ``k7`` and ``k7_0, ...`` (FSAL), and the error estimate in
    ``err_0, err_1, ...``.
    """
    lines = []
    for i in range(1, len(_DP_A)):
        stage = i + 1
        constants[f"c{stage}"] = _DP_C[i]
        values = ", ".join(
            f"y{m} + {h} * ({_weighted_sum(f'a{stage}', _DP_A[i], m, constants)})" for m in range(dim)
        )
        lines += [
            f"s{stage} = [{values}]",
            f"k{stage} = f(r + c{stage} * {h}, s{stage})",
            f"{_unpack(f'k{stage}_', dim)} = k{stage}",
        ]
    lines += [f"err_{m} = {h} * ({_weighted_sum('e', _DP_ERR, m, constants)})" for m in range(dim)]
    return lines


@functools.lru_cache(maxsize=16)
def _dp_stepper(dim: int) -> Callable:
    """The Dormand-Prince step for ``dim`` components, from ``_dp_stage_lines``."""
    constants: dict = {}
    lines = [
        "def step(f, r, y, h, k1):",
        f"    {_unpack('y', dim)} = y",
        "    if k1 is None:",
        "        k1 = f(r, y)",
        f"    {_unpack('k1_', dim)} = k1",
        *(f"    {line}" for line in _dp_stage_lines(dim, "h", constants)),
        f"    return s7, [{_unpack('err_', dim)}], k7",
    ]
    return _generate("\n".join(lines), "step", constants)


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
    ``tolist``.  The step is generated once per dimension from the tableau
    (``_dp_stepper``): each stage sums its weights left to right with the
    zero ones skipped, then scales by h.
    """
    if isinstance(y, np.ndarray):
        y = y.tolist()
    return _dp_stepper(len(y))(f, r, y, h, k1)


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

# The adaptive loop, written out per component by ``_dp_loop``.  ``ya{m}``
# holds abs(y{m}) of the accepted state and ``b{m}`` abs(n{m}) of the new
# one.  Where ``isfinite``, ``min`` or ``max`` would run per step, comparisons
# give the same result on every input: ``abs(x) < inf`` is ``isfinite(x)``,
# ``b if b > a else a`` is ``max(a, b)``, ``x if x < 5.0 else 5.0`` is
# ``min(5.0, x)``, and on finite states ``min``/``max`` over the components
# become a chain of comparisons.  The squares q*q of the RMS error norm are
# added left to right in the source, never by ``sum()``, which compensates
# rounding from Python 3.12 on and would move step decisions between
# interpreter versions; they are never -0.0, so leaving out the leading
# ``0.0 +`` gives the same sum.
_LOOP_SOURCE = """\
def loop(f, radii, y, rtol, atol, out):
    {y} = y
    {abs_y}
    {atol} = atol
    r = radii[0]
    k1 = f(r, y)
    {k1} = k1
    h = radii[1] - radii[0]
    accepted = rejected = 0
    rejections = {{"error": 0, "positivity": 0, "nonfinite": 0}}
    h_min, h_max, r_at_h_min = inf, 0.0, nan
    out[0] = y
    for i, target in enumerate(radii[1:], 1):
        while True:
            remaining = target - r
            if remaining <= abs(r) * 1e-15:
                break
            h_try = remaining if remaining < h else h
{stages}
            {n} = s7
            {abs_n}
            finite = {finite}
            enorm = inf
            if finite:
                {scaled}
                enorm = sqrt(({squares}) / {dim})
            if finite and enorm <= 1.0 and {positive}:
                if h_try < h_min:
                    h_min, r_at_h_min = h_try, r
                if h_try > h_max:
                    h_max = h_try
                r = target if h_try == remaining else r + h_try
                y = s7
                {y_is_n}
                {ya_is_b}
                {k1_is_k7}
                accepted += 1
                if {overflow}:
                    raise Overflow(r, state=tuple(y), h=h_try)
                if enorm == 0.0:
                    grow = 5.0
                else:
                    grow = 0.9 * enorm**-0.2
                    grow = grow if grow < 5.0 else 5.0
                h = h_try * (grow if grow > 0.2 else 0.2)
            else:
                rejected += 1
                if not isfinite(enorm):
                    cause, shrink = "nonfinite", 0.2
                elif enorm <= 1.0:
                    # rejected on positivity alone; the error estimate is
                    # uninformative, so just halve
                    cause, shrink = "positivity", 0.5
                else:
                    cause, shrink = "error", max(0.1, min(0.9, 0.9 * enorm**-0.2))
                rejections[cause] += 1
                h = h_try * shrink
                if h < underflow_scale * max(abs(r), 1e-300):
                    if not finite or max(map(abs, y)) > 1e200:
                        raise Overflow(r, state=tuple(y), h=h_try)
                    raise StepSizeUnderflow(r, state=tuple(y), h=h_try)
            if accepted + rejected > max_steps:
                raise StepSizeUnderflow(r, f"step budget exhausted at r={{r!r}}", state=tuple(y), h=h_try)
        out[i] = y
    return accepted, rejections, h_min, h_max, r_at_h_min
"""


@functools.lru_cache(maxsize=16)
def _dp_loop(dim: int) -> Callable:
    """The whole adaptive loop for ``dim`` components, generated once per dimension.

    The stages come from ``_dp_stage_lines``; the finiteness test, the RMS
    error norm, the positivity and overflow tests and the step-size
    controller are unrolled over the components in ``_LOOP_SOURCE``, each
    with the operations and order of the generic loop it replaced.
    """
    constants = dict(
        inf=math.inf,
        nan=math.nan,
        sqrt=math.sqrt,
        isfinite=math.isfinite,
        Overflow=Overflow,
        StepSizeUnderflow=StepSizeUnderflow,
        limit=_OVERFLOW_LIMIT,
        underflow_scale=_UNDERFLOW_SCALE,
        max_steps=_MAX_STEPS,
    )
    stages = _dp_stage_lines(dim, "h_try", constants)
    source = _LOOP_SOURCE.format(
        dim=dim,
        y=_unpack("y", dim),
        k1=_unpack("k1_", dim),
        atol=_unpack("atol", dim),
        n=_unpack("n", dim),
        stages="\n".join(f"            {line}" for line in stages),
        abs_y=_each("ya{m} = abs(y{m})", dim, "; "),
        abs_n=_each("b{m} = abs(n{m})", dim, "; "),
        finite=_each("b{m} < inf", dim, " and "),
        scaled=_each("q{m} = err_{m} / (atol{m} + rtol * (b{m} if b{m} > ya{m} else ya{m}))", dim, "; "),
        squares=_each("q{m} * q{m}", dim, " + "),
        positive=_each("n{m} > 0.0", dim, " and "),
        y_is_n=_each("y{m} = n{m}", dim, "; "),
        ya_is_b=_each("ya{m} = b{m}", dim, "; "),
        k1_is_k7=_each("k1_{m} = k7_{m}", dim, "; "),
        overflow=_each("b{m} > limit", dim, " or "),
    )
    return _generate(source, "loop", constants)


def _step_loop(
    f: Callable[[float, Sequence[float]], Sequence[float]],
    grid: np.ndarray,
    y0: Sequence[float],
    rtol: float,
    atol: Sequence[float],
) -> tuple[np.ndarray, int, dict, float, float, float]:
    """``_propagate`` plus the step-size record: the smallest and the largest
    accepted step and the radius the smallest one started from (``inf``,
    ``0.0`` and ``nan`` when no step was accepted)."""
    y = np.asarray(y0, dtype=float).tolist()
    atol = np.broadcast_to(np.asarray(atol, dtype=float), (len(y),)).tolist()
    radii = np.asarray(grid, dtype=float).tolist()
    out = np.empty((len(radii), len(y)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return (out, *_dp_loop(len(y))(f, radii, y, rtol, atol, out))


def _propagate(
    f: Callable[[float, Sequence[float]], Sequence[float]],
    grid: np.ndarray,
    y0: Sequence[float],
    rtol: float,
    atol: Sequence[float],
) -> tuple[np.ndarray, int, dict]:
    """Adaptive stepping that lands exactly on every output grid point.

    ``atol`` holds positive per-component floors (a scalar is broadcast).
    Returns the states on the grid, the accepted step count and the rejected
    steps by cause: ``error`` (the estimate exceeded the tolerance),
    ``positivity`` (the estimate was within tolerance but a component was not
    positive) and ``nonfinite`` (the new state or its estimate was not finite).
    The loop is generated once per state dimension (``_dp_loop``).
    """
    return _step_loop(f, grid, y0, rtol, atol)[:3]


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
    drives the step below 1e-14 * r and ``Overflow`` when a component leaves
    the representable range; both carry the radius reached, the last accepted
    state and the last attempted step.
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
    ys, accepted, rejections, h_min, h_max, r_at_h_min = _step_loop(flux_rhs(system), grid, y0, tol, atol)
    rejected = sum(rejections.values())

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
            "rejections": rejections,
            "h_min": h_min,
            "h_max": h_max,
            "r_at_h_min": r_at_h_min,
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
