"""Adaptive integration of the radial system in log variables.

Positive increasing radial solutions are described by ``y = (u, v, P, S)``,
where the two fluxes

    P(r) = r^delta   * u'(r)^(p-1-alpha),      delta = (n-1)(p-1-alpha)/(p-1)
    S(r) = r^(n-1)   * v'(r)^(p-1)

turn both equations into plain quadratures of positive integrands:

    P'(r) = (p-1-alpha)/(p-1) * r^delta  * f1(r) * g1(v)
    S'(r) = r^(n-1) * f2(r) * g2(v) * g3(u')

with the gradients recovered algebraically,
``u' = (P / r^delta)^(1/(p-1-alpha))`` and ``v' = (S / r^(n-1))^(1/(p-1))``.
This flux form (``flux_rhs``) stays smooth through the degenerate origin.

The adaptive loop steps ``Y = log y`` against ``t = log r``, with the rates
``dY_m/dt = r f_m(r, y) / y_m`` from the flux form.  The far-field profile
(C_lam r^lam, C_mu r^mu) is a straight line in these variables, and
Dormand-Prince is exact on straight lines.  No state can leave (0, inf), and
an absolute tolerance on Y is a relative one on y, down to the 1e-18 fluxes
near the origin.  The singular initial value problem starts at a small
radius r0 from its leading-order state: v held at its origin value and u'
following its local power law inside the flux integrals and in u(r0).

The step loop runs on plain Python floats: for a 4-component state, numpy's
per-call overhead would cost several times the arithmetic itself.  The hot
path is generated from its single sources: ``flux_rhs`` writes each
system's power-sum terms out inline as ``c * x ** e``, leaving out only
factors of exactly 1 (a unit coefficient, a law that is the constant 1), and
the Dormand-Prince 5(4) stages come from the Butcher tableau, written in as
literals, through one emitter, unrolled over the components once per
dimension, both for the public step and for the whole adaptive loop with
its change of variables, error norm and step-size controller.  Generated
code takes every number as a ``repr`` literal and runs in this module's
namespace (``_compile``): each distinct system costs one compilation of
about 90 us, cached by source text in 64 entries.

The loop lands exactly on each grid radius, except where a step held to
tol/100, clamped to [1e-14, 5e-12], reaches past it: such a step passes the
radii in its way and reads them from the method's free continuous
extension, whose coefficients enter the generated code like the tableau's.
One rule caps every step, passing or landing, inside DP5's stability
region, by the spectral radius of the log rates' Jacobian at the far-field
profile: on the straight lines that solutions approach, the error estimate
is rounding noise and would let any step run past that region.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from math import exp, expm1, inf, log, nan  # noqa: F401 - free names of the generated code
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy import ndarray  # noqa: F401 - a free name of the generated flux_rhs

from .model import ValidatedSystem
from .profile import _linearisation

__all__ = [
    "StepSizeUnderflow",
    "Overflow",
    "Trajectory",
    "geometric_grid",
    "startup_state",
    "flux_rhs",
    "integrate_radial",
    "dormand_prince_step",
    "integrate_fixed_grid",
]


class _IntegrationFailure(RuntimeError):
    """A failed integration: ``radius`` is where it stopped, ``state`` the last accepted
    state as a tuple of floats and ``h`` the last step in r: the one taken if the last
    attempt was accepted, else the one attempted, ``None`` if none was."""

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
    """A shrunk step fell below 1e-14 * r, or a startup component is 0: stiffness or blow-up suspected."""

    _what = "step size underflow"


class Overflow(_IntegrationFailure):
    """A state component left the representable range before r_max, or started outside it."""

    _what = "state overflow"


class State(NamedTuple):
    """The state (u, v, P, S) at one radius, as the step loop starts from it.

    ``startup_state`` returns it; callers read its fields and need not name
    it, so it is not public.  A failure carries its last accepted state as a
    plain tuple, not a ``State``."""

    u: float
    v: float
    P: float
    S: float


@dataclass
class Trajectory:
    """Solution of ``system`` sampled on a strictly increasing radial grid.

    The state arrays ``u, v, P, S`` are aligned with ``r``; they are all a
    trajectory stores, and it is read through one derived view, ``logs``:
    log u, log v, log u' and log v', the gradients' logs read from log P and
    log S, which stay resolved where the float u' is subnormal or 0.
    ``meta`` holds the initial data ``a`` and ``b``, the startup radius
    ``r0``, the tolerance ``rtol`` and the stability radius ``kappa`` that
    caps every step, then the step loop's run record, whose keys
    ``_step_loop`` lists.  A default-grid trajectory shares its read-only
    ``r`` with every other run on the same grid (see ``geometric_grid``).
    """

    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    P: np.ndarray
    S: np.ndarray
    system: ValidatedSystem
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.r)

    def logs(self) -> np.ndarray:
        """log u, log v, log u' and log v' as the rows of one (4, N) array, with

            log u' = (log P - delta log r) / (p-1-alpha)
            log v' = (log S - (n-1) log r) / (p-1)

        read from the fluxes, so they stay resolved where the float u' would
        be subnormal or 0.  A state that is exactly 0 (a sampled profile that
        underflows) reads -inf, without a warning."""
        s, log_r = self.system, np.log(self.r)
        with np.errstate(divide="ignore"):
            log_uv = np.log(np.stack((self.u, self.v)))
            log_P, log_S = np.log(self.P), np.log(self.S)
        log_du = (log_P - s.delta * log_r) / (s.p - 1.0 - s.alpha)
        return np.concatenate((log_uv, [log_du, (log_S - (s.n - 1) * log_r) / (s.p - 1.0)]))


@functools.lru_cache(maxsize=16)
def geometric_grid(r0: float, r_max: float, points_per_decade: int = 64) -> np.ndarray:
    """Geometric output grid from r0 to r_max, about `points_per_decade` per decade.

    Grids are memoised and read-only, so repeated runs on one grid share one
    array instead of holding a copy each.  Raises ``ValueError`` unless
    0 < r0 < r_max, r_max / r0 is finite and ``points_per_decade`` is finite
    and at least 1.
    """
    if not (0.0 < r0 < r_max):
        raise ValueError(f"need 0 < r0 < r_max, got r0={r0}, r_max={r_max}")
    if not math.isfinite(r_max / r0):
        raise ValueError(f"r_max / r0 must be finite, got r0={r0}, r_max={r_max}")
    if not 1 <= points_per_decade < math.inf:
        raise ValueError(f"points_per_decade must be finite and at least 1, got {points_per_decade}")
    decades = math.log10(r_max / r0)
    count = max(2, int(math.ceil(decades * points_per_decade)) + 1)
    grid = np.geomspace(r0, r_max, count)
    grid.flags.writeable = False
    return grid


def startup_state(system: ValidatedSystem, a: float, b: float, r0: float) -> State:
    """Leading-order state at the startup radius r0.

    Holding ``v = b`` over [0, r0] makes the first flux integral elementary:

        P(r0) = (p-1-alpha)/(p-1) * g1(b) * sum_i c_i r0^(delta+m_i+1)/(delta+m_i+1)

    and gives u'(r0) = (P / r0^delta)^(1/(p-1-alpha)).  Near the origin u'
    follows a power law, u'(s) ~ u'(r0) (s/r0)^gamma, with gamma the local
    exponent of u' at r0,

        gamma = (d log P / d log r - delta) / (p-1-alpha)
        d log P / d log r = sum_i c_i r0^(delta+m_i+1) / sum_i c_i r0^(delta+m_i+1)/(delta+m_i+1)

    which is (m1+1)/(p-1-alpha) for a pure-power f1.  Putting that law into
    g3 makes the second flux integral elementary too:

        S(r0) = g2(b) * sum_i sum_j c_i a_j u'(r0)^(e_j) r0^(n+m_i) / (n+m_i+e_j gamma)

    over the terms c_i r^m_i of f2 and a_j s^e_j of g3, and the same law
    integrates to u(r0) = a + r0 u'(r0) / (1+gamma).  For a pure-power f1
    these are integrals of the leading-order integrands to rounding; v(r0) is
    left at b, and the neglected variation of v is O(r0^(1+eps)).  A flux that
    underflows to 0 gives a zero gradient, as in ``flux_rhs``, so the step
    loop fails typed; a zero u'(r0) leaves only the constant terms of g3.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"initial data must be positive, got a={a}, b={b}")
    if not (a < math.inf and b < math.inf):
        raise ValueError(f"initial data must be finite, got a={a}, b={b}")
    if not r0 > 0.0:
        raise ValueError(f"startup radius must be positive, got {r0}")
    p, n, alpha, delta = system.p, system.n, system.alpha, system.delta
    P = rate = 0.0
    for c, m in system.f1.terms:
        term = c * r0 ** (delta + m + 1.0)
        P += term / (delta + m + 1.0)
        rate += term
    gamma = (rate / P - delta) / (p - 1.0 - alpha) if P > 0.0 else 0.0
    P *= (p - 1.0 - alpha) / (p - 1.0) * system.g1(b)
    du = (P / r0**delta) ** (1.0 / (p - 1.0 - alpha)) if P > 0.0 else 0.0
    S = 0.0
    for c, m in system.f2.terms:
        for c3, e in system.g3.terms:
            S += c * c3 * du**e * r0 ** (n + m) / (n + m + e * gamma)
    return State(a + r0 * du / (1.0 + gamma), b, P, S * system.g2(b))


@functools.lru_cache(maxsize=64)
def _compile(source: str, name: str) -> Callable:
    """The function ``name`` that ``source`` defines, compiled once per source text.

    The one rule of generated code: every number is a ``repr`` literal, which
    gives each finite float back exactly, and the code runs in this module's
    namespace, so its only free names are ``exp``, ``expm1``, ``log``,
    ``inf``, ``nan``, ``ndarray``, ``Overflow`` and ``StepSizeUnderflow``.
    So each distinct system costs one compilation of its ``flux_rhs``, about
    90 us, cached by source text in 64 entries; the loop and the stepper are
    the same for every system of one dimension.
    """
    defined: dict = {}
    exec(compile(source, f"<generated {name}>", "exec"), globals(), defined)
    return defined[name]


def _power_sum_source(law, arg: str) -> str:
    """Inline ``law(arg)`` with the arithmetic of ``_PowerSum.__call__``.

    Each term is written ``c * x ** e`` with ``c`` and ``e`` as ``repr``
    literals, without ``c *`` for a coefficient of exactly 1 (``1.0 * t`` is
    ``t``).  The terms add left to right from the first,
    ``(t0 + t1 + t2)``: ``_PowerSum`` starts from 0.0, and ``0.0 + t``
    differs from ``t`` only at ``t = -0.0``, which no term takes at an
    argument in [+0.0, inf] or NaN.  The constant 1 gives ``""``, a factor
    that ``_product_source`` leaves out.
    """
    if law.terms == ((1.0, 0.0),):
        return ""
    terms = (f"{arg} ** {e!r}" if c == 1.0 else f"{c!r} * {arg} ** {e!r}" for c, e in law.terms)
    return f"({' + '.join(terms)})"


def _product_source(factors: Sequence[str]) -> str:
    """``a * b * c`` left to right over the factors, leaving out the empty ones (exactly 1).

    ``1.0 * x`` is ``x`` bit for bit, so the product keeps its value."""
    return " * ".join(factor for factor in factors if factor)


# ``v <= 0.0`` also clamps -0.0, so g1 and g2 see v in [+0.0, inf] or NaN, as
# ``_power_sum_source`` requires: ``(-0.0) ** e`` keeps its sign for an odd
# integer e (1.0 included), so unclamped, a sum of such terms would be -0.0
# where ``_PowerSum``'s, from 0.0, is +0.0, and a negative v would give complex
# powers for a non-integer e; g3 sees du >= +0.0 or NaN, f1 and f2 see r > 0.
# ``flux_rhs`` writes the system's numbers in as ``repr`` literals.
_RHS_SOURCE = """\
def rhs(r, y):
    u, v, P, S = y.tolist() if y.__class__ is ndarray else y
    if v <= 0.0:
        v = 0.0
    rd = r**{delta!r}
    rn = r**{n1!r}
    du = (P / rd) ** {inv_grad!r} if P > 0.0 else 0.0
    dv = (S / rn) ** {inv_p1!r} if S > 0.0 else 0.0
    return (du, dv, {dP}, {dS})
"""


def flux_rhs(system: ValidatedSystem) -> Callable[[float, Sequence[float]], tuple]:
    """Right-hand side of the flux system as a plain callable f(r, y), for r > 0.

    ``y`` is any sequence ``(u, v, P, S)`` of floats; the derivatives come
    back as a tuple.  An exact ``np.ndarray`` is read through ``tolist``, so
    it is computed on in Python floats, as a tuple or list is.  The test is
    ``y.__class__ is ndarray``, which makes no call: an ndarray subclass is
    unpacked as it is, and its derivatives are computed in numpy scalars.
    Stage values of an explicit stepper in these variables may momentarily
    push a component below zero; those are clamped (the converged solution
    is strictly positive).

    The callable is generated per system with the five power sums written
    out term by term as ``c * x ** e`` (``_power_sum_source``), a unit
    coefficient left out of its term and a law that is the constant 1 out of
    its product.  Every number, ``delta``, the exponents 1/(p-1-alpha) and
    1/(p-1) and ``coef`` = (p-1-alpha)/(p-1) included, is a ``repr``
    literal, so each distinct system is one compilation of about 90 us
    (``_compile``).  ``coef`` is always a factor, 1.0 when alpha = 0.  It
    computes exactly what ``coef * r**delta * f1(r) * g1(v)``
    and ``r**(n-1) * f2(r) * g2(v) * g3(du)`` compute, bit for bit, sign of
    zero included, and raises where they raise: ``x ** 1.0`` is x, ``c * x
    ** 0.0`` is c for every x, NaN and ±0 included, and ``1.0 * x`` is x.
    """
    p, alpha = float(system.p), float(system.alpha)
    f1, g1, f2, g2, g3 = (
        _power_sum_source(law, arg)
        for law, arg in ((system.f1, "r"), (system.g1, "v"), (system.f2, "r"), (system.g2, "v"), (system.g3, "du"))
    )
    source = _RHS_SOURCE.format(
        delta=float(system.delta),
        n1=float(system.n - 1),
        inv_grad=1.0 / (p - 1.0 - alpha),
        inv_p1=1.0 / (p - 1.0),
        dP=_product_source((repr((p - 1.0 - alpha) / (p - 1.0)), "rd", f1, g1)),
        dS=_product_source(("rn", f2, g2, g3)),
    )
    return _compile(source, "rhs")


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
# the free 4th-order continuous extension in DOPRI5's form (Hairer, Norsett and
# Wanner, Solving ODEs I, II.6; CONTD5 in dopri5.f): the weights d_j of its
# quartic term, the last column of scipy's ``RK45.P`` (``_dp_dense_lines``)
_DP_D = (
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
)


def _weighted_sum(weights: Sequence[float], m: int) -> str:
    """``(w1) * k1_m + (w2) * k2_m + ...`` over the nonzero weights, left to right.

    The weights are written as parenthesised ``repr`` literals, like every
    number in generated code (``_compile``)."""
    return " + ".join(f"({w!r}) * k{j}_{m}" for j, w in enumerate(weights, 1) if w != 0.0)


def _unpack(name: str, dim: int) -> str:
    """``name0, name1, ...,``: the trailing comma makes one component a tuple too."""
    return "".join(f"{name}{m}, " for m in range(dim)).rstrip()


def _each(template: str, dim: int, sep: str) -> str:
    """``template`` once per component ``m``, joined by ``sep``."""
    return sep.join(template.format(m=m) for m in range(dim))


def _dp_stage_lines(dim: int, t: str, h: str, evaluate: Callable) -> list[str]:
    """Stages 2 to 7 of one Dormand-Prince step and its error estimate, as source lines.

    This is the only place the tableau becomes code, its entries written as
    literals (``_weighted_sum``).  The lines read the independent variable
    named ``t``, the step named ``h``, the state ``y0, y1, ...`` and the first
    stage ``k1_0, k1_1, ...``.  Each stage state ``s2_0, s2_1, ...`` sums its
    weights left to right with the zero ones skipped, then scales by h and
    adds y; ``evaluate(stage, at, "s2_")`` gives the lines that turn it into
    ``k2_0, k2_1, ...`` at ``at``, which is ``t + (c) * h``, or ``t + h`` where
    c is 1 (``1.0 * h`` is h).  The lines leave the 5th-order solution in
    ``s7_0, ...``, the stage there in ``k7_0, ...`` (FSAL) and the error
    estimate in ``err_0, err_1, ...``.
    """
    lines = []
    for i in range(1, len(_DP_A)):
        stage = i + 1
        for m in range(dim):
            lines.append(f"s{stage}_{m} = y{m} + {h} * ({_weighted_sum(_DP_A[i], m)})")
        at = f"{t} + {h}" if _DP_C[i] == 1.0 else f"{t} + ({_DP_C[i]!r}) * {h}"
        lines += evaluate(stage, at, f"s{stage}_")
    lines += [f"err_{m} = {h} * ({_weighted_sum(_DP_ERR, m)})" for m in range(dim)]
    return lines


def _dp_dense_lines(dim: int, h: str) -> list[str]:
    """The continuous extension's coefficients of one step, as source lines.

    They read the state ``y{m}``, the 5th-order solution ``s7_{m}``, the
    stages ``k1_{m}`` to ``k7_{m}`` (FSAL) and the step named ``h``, and
    leave DOPRI5's four coefficients per component:

        c1 = s7 - y,  c2 = h k1 - c1,  c3 = c1 - h k7 - c2,  c4 = h sum_j d_j k_j

    with the ``_DP_D`` weights written by ``_weighted_sum`` as the tableau's
    are.  The value at ``theta`` is then ``y + theta * (c1 + (1 - theta) *
    (c2 + theta * (c3 + (1 - theta) * c4)))``, which is y + h sum_j k_j
    b_j(theta) with scipy's ``RK45.P`` rows as the b_j, exactly in rational
    arithmetic: a quartic that is s7 at theta = 1 and has slope h k1 at 0
    and h k7 at 1, and d_j as its theta^4 weights.
    """
    line = "c1_{m} = s7_{m} - y{m}; c2_{m} = {h} * k1_{m} - c1_{m}; c3_{m} = c1_{m} - {h} * k7_{m} - c2_{m}"
    lines = [line.format(m=m, h=h) for m in range(dim)]
    return lines + [f"c4_{m} = {h} * ({_weighted_sum(_DP_D, m)})" for m in range(dim)]


@functools.lru_cache(maxsize=16)
def _dp_stepper(dim: int) -> Callable:
    """The Dormand-Prince step for ``dim`` components, from ``_dp_stage_lines``."""

    def evaluate(stage: int, at: str, state: str) -> list:
        return [f"k{stage} = f({at}, [{_unpack(state, dim)}])", f"{_unpack(f'k{stage}_', dim)} = k{stage}"]

    lines = [
        "def step(f, r, y, h, k1):",
        f"    {_unpack('y', dim)} = y",
        "    if k1 is None:",
        "        k1 = f(r, y)",
        f"    {_unpack('k1_', dim)} = k1",
        *(f"    {line}" for line in _dp_stage_lines(dim, "r", "h", evaluate)),
        f"    return [{_unpack('s7_', dim)}], [{_unpack('err_', dim)}], k7",
    ]
    return _compile("\n".join(lines), "step")


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


def _log_rate_lines(dim: int, stage: int, at: str, logs: str) -> list[str]:
    """Lines for the stage ``k{stage}_m = r f_m(r, x) / x_m`` at r = exp(at), x_m = exp(logs{m}).

    They leave r in ``r{stage}`` and x in ``x{stage}_0, ...`` and call ``f``
    exactly once, with x as a tuple.  A stage of a step whose node equals the
    previous stage's (c7 = c6 = 1) takes that stage's radius, the same
    ``exp`` of the same sum, without computing it again.  A stage out of the
    range of floats (``exp`` overflows, or a state that underflowed to 0 is
    divided by) gets NaN rates, which the loop rejects as non-finite.
    """
    xs = [f"x{stage}_{m}" for m in range(dim)]
    ks = [f"k{stage}_{m}" for m in range(dim)]
    same_node = stage > 2 and _DP_C[stage - 1] == _DP_C[stage - 2]
    return [
        f"r{stage} = r{stage - 1}" if same_node else f"r{stage} = exp({at})",
        "try:",
        *(f"    {xs[m]} = exp({logs}{m})" for m in range(dim)),
        "except OverflowError:",
        f"    {' = '.join(xs)} = nan",
        "try:",
        f"    {_unpack('d', dim)} = f(r{stage}, ({_unpack(f'x{stage}_', dim)}))",
        *(f"    {ks[m]} = r{stage} * d{m} / {xs[m]}" for m in range(dim)),
        "except (OverflowError, ZeroDivisionError):",
        f"    {' = '.join(ks)} = nan",
    ]


_OVERFLOW = 1e250
_UNDERFLOW_STEP = 1e-14
_MAX_STEPS = 2_000_000
# the tightest ``tol`` that ``integrate_radial`` accepts
_TOL_MIN = 1e-13
# An attempt that passes grid radii is held to tol/100, clamped to
# [_PASS_FLOOR, _PASS_CEILING] (``_pass_tol``).  The floor is a tenth of the
# tightest ``tol``: held to 1e-13 itself, runs on exact straight lines read
# up to 1.2e-13 off their closed forms, from rounding noise alone.  The
# factor 1/100 pays for DP5's free extension, whose error the estimate does
# not bound: read with no hold it lost 1.1 digits on the benchmark's
# ``sweep``.  The ceiling keeps the loop within its pinned 4e-11 of DOP853
# on Poisson at tol 1e-9 (3.8e-11), which a ceiling of 1e-11 broke (5.7e-11).
_PASS_FLOOR = _TOL_MIN / 10
_PASS_CEILING = 5e-12
# Every step h is capped so that h kappa max_m(rho_m / s_m) <= _STABLE_REACH,
# with kappa the spectral radius of the log-rate Jacobian at the profile,
# s the rates there and rho the attempt's own (``_stability_weights``).
# Without a cap the controller grows a pass step on straight lines until
# amplified rounding noise reaches the hold, and a step that lands on the next
# radius runs past the stability interval wherever that radius lies farther
# out.  DP5 is stable to 3.31 on the
# negative real axis (Hairer and Wanner, Solving ODEs II, IV.2), but runs
# started on the Poisson and coupled_p3 profiles strayed up to 3.4e-13 from
# them with a cap at 3.3 and 6.3e-12 at 4.0, against 3.8e-14 at 2.0.
_STABLE_REACH = 2.0


def _pass_tol(tol: float) -> float:
    """The tolerance an attempt that passes grid radii is held to: tol/100 in [1e-14, 5e-12]."""
    return min(max(tol / 100.0, _PASS_FLOOR), _PASS_CEILING)


def _stability_weights(system: ValidatedSystem) -> tuple[float, tuple[float, ...]]:
    """kappa and the step loop's per-component weights kappa / (2 s_m).

    ``profile._linearisation`` gives the rates s on the profile of the
    system's pure-power companion and the Jacobian J there; kappa is J's
    spectral radius, one ``eigvals`` of a 4x4.  Every step h, passing or
    landing, is then capped to h max_m(w_m rho_m) <= 1 on the attempt's rates
    rho.  A kappa that is not finite (J beyond the float range) gives
    infinite weights, which turn passing off and cap nothing: every radius
    is landed on, by steps that ``tol`` alone holds."""
    s, J = _linearisation(system)
    kappa = float(np.max(np.abs(np.linalg.eigvals(J)))) if np.isfinite(J).all() else math.inf
    if not kappa < math.inf:
        return kappa, (math.inf,) * len(s)
    return kappa, tuple((kappa / _STABLE_REACH / s).tolist())


# The adaptive loop, written out per component by ``_dp_loop``.  It steps
# ``y{m}`` = log x_m against t = log r and keeps the radius ``r`` and the
# state ``x{m}`` beside them, as the last stage computed them (FSAL), so the
# output and failures need no further ``exp`` and give the first radius and
# state exactly.  ``_step_loop`` refuses a start outside (0, 1e250], so every
# log is finite.  One test per attempt covers the new state and its error
# estimate: ``(s7_0 + err_0 + ...) * 0.0 == 0.0`` holds iff the sum is
# finite, since inf * 0.0 and NaN * 0.0 are NaN, and a NaN or infinite term
# makes the sum NaN or infinite.  So it accepts and rejects exactly as a
# per-term ``isfinite`` would, except where the terms are finite and their sum
# overflows: that attempt is rejected as ``nonfinite`` (next step h * 0.2),
# where per-term tests would pass it on to the error norm, which rejects it
# for its error (h * 0.1), or, on an estimate within ``tol``, to the overflow
# test.  The error norm is the largest component, so each log is held to
# ``tol``.  Comparisons form it, ``max(1e-300, abs(err_0), ...)`` without the
# builtin calls, and clamp the step factor as ``min(5.0, max(0.1, ...))``
# would; on finite operands they give the same floats, and only finite
# estimates reach them.  The floor 1e-300 keeps ``enorm**-0.2`` defined on a
# zero estimate (exact on straight lines), where a float 0.0 would raise;
# any estimate that small clamps both factors to exactly 5.0.
# ``-t if t < 0.0 else t`` is ``abs(t)`` in the landing test.
#
# Each estimate proposes two next steps by one formula: ``h`` against ``tol``
# and ``h_pass`` against ``pass_tol`` (``_pass_tol``), whose factor is h's
# times ``pass_scale`` = (pass_tol / tol)^0.2 before the clamp.  ``reach`` =
# max(0.0, w0 * k1_0, ...) weighs the rates at the attempt's start by
# ``weights`` (``_stability_weights``), and one cap holds every step to
# step * reach <= 1.  An attempt passes where ``h_pass`` and the cap both
# reach past the next grid radius, short of the last (``remaining * reach <
# 1.0`` is ``1.0 / reach > remaining``, so this is the decision on the capped
# ``h_pass``): it tries ``h_pass``, held to ``pass_tol``
# (``held`` is pass_tol / tol against the scaled estimate), towards the last
# radius; the rows it passes are read from the continuous extension in
# DOPRI5's form: ``_dp_dense_lines`` forms its four coefficients per component
# once per accepted attempt that passes, and each row costs ``eta`` = 1 -
# theta, then one nested product and ``exp`` per component.  Such an attempt
# that fails is rejected as ``error`` and the next one lands.  Otherwise it
# tries ``h``, held to ``tol``, towards the next radius, ``times[i]``.  Then
# the cap lowers the step it tries, ``h_try``, to 1 / reach; zero weights cap
# nothing, and infinite ones turn passing off and, by the ``reach < inf``
# guard, cap nothing either.  The controller sets ``h_pass`` anew after every
# attempt, and an attempt that does not pass never reads it.  One
# rule ends every attempt: it lands on its end radius ``times[end]`` exactly
# when ``times[end] - t <= h_try``, and then ``h_try`` is that rest of the
# way.  One block sets both proposals, then the branches only keep their books,
# and one test of the 1e-14 floor covers every ``h`` the controller shrinks,
# accepted or rejected.  The grid rows go one after another into the flat
# list ``rows``, and ``_step_loop`` builds one array from it at the end.  Per
# grid radius, numpy row assignments cost about 0.7 us, a list of row tuples
# and its ``np.array`` about 0.5 us, the flat list and its ``np.array`` about
# 0.3 us.
# The loop returns ``rows`` and its run record, the dict whose keys
# ``_step_loop`` lists, built once at the end; its ``rhs_evals`` counts the
# first evaluation and ``evals`` per attempt, the stages after the first
# (FSAL), which ``_dp_loop`` writes in from ``_DP_A``.
_LOOP_SOURCE = """\
def loop(f, radii, times, x, tol, pass_tol, weights):
    {x} = x
    {w} = weights
    {y} = [log(v) for v in x]
    r, t = radii[0], times[0]
{k1}
    last = len(times) - 1
    pass_ratio = pass_tol / tol
    pass_scale = pass_ratio**0.2
    h, h_pass = times[1] - t, 0.0
    accepted = rejected = interpolated = 0
    rejections = {{"error": 0, "nonfinite": 0}}
    h_min, h_max, r_at_h_min = inf, 0.0, nan
    rows = [{x}]
    i = 1
    while True:
        remaining = times[i] - t
        if remaining <= (-t if t < 0.0 else t) * 1e-15:
            rows += ({x})
            if i == last:
                break
            i += 1
            continue
        reach = 0.0
{reach}
        passing = h_pass > remaining and remaining * reach < 1.0 and i < last
        if passing:
            held, end, h_try = pass_ratio, last, h_pass
        else:
            held, end, h_try = 1.0, i, h
        if h_try * reach > 1.0 and reach < inf:
            h_try = 1.0 / reach
        land = 0
        if times[end] - t <= h_try:
            h_try, land = times[end] - t, end
{stages}
        enorm = inf
        if {finite}:
            enorm = 1e-300
{norm}
            enorm = enorm / tol
        if enorm < inf:
            factor = 0.8 * enorm**-0.2
            factor_pass = factor * pass_scale
            if factor < 0.1:
                factor = 0.1
            elif factor > 5.0:
                factor = 5.0
            if factor_pass < 0.1:
                factor_pass = 0.1
            elif factor_pass > 5.0:
                factor_pass = 5.0
            h = h_try * factor
            h_pass = h_try * factor_pass
        else:
            h = h_pass = h_try * 0.2
        if enorm <= held:
            if land:
                r_new, t_new = radii[land], times[land]
            else:
                r_new, t_new = r7, t + h_try
            if passing:
{dense}
                first = i
                while i < last and times[i] < t_new:
                    theta = (times[i] - t) / h_try
                    eta = 1.0 - theta
                    rows += ({rows})
                    i += 1
                interpolated += i - first
            h_r = r_new - r
            if h_r < h_min:
                h_min, r_at_h_min = h_r, r
            if h_r > h_max:
                h_max = h_r
            r, t = r_new, t_new
            {y_is_s7}
            {x_is_x7}
            {k1_is_k7}
            accepted += 1
            if {overflow}:
                raise Overflow(r, state=({x}), h=h_r)
        else:
            rejected += 1
            rejections["error" if enorm < inf else "nonfinite"] += 1
            if passing:
                h_pass = 0.0
        if h < {underflow_step!r} and h < h_try or accepted + rejected > {max_steps!r}:
            message = None if h < {underflow_step!r} and h < h_try else f"step budget exhausted at r={{r!r}}"
            raise StepSizeUnderflow(r, message, state=({x}), h=h_r if enorm <= held else r * expm1(h_try))
    return rows, {{
        "pass_tol": pass_tol,
        "steps_accepted": accepted,
        "steps_rejected": rejected,
        "rejections": rejections,
        "h_min": h_min,
        "h_max": h_max,
        "r_at_h_min": r_at_h_min,
        "rows_interpolated": interpolated,
        "rhs_evals": 1 + {evals} * (accepted + rejected),
    }}
"""

# one component's part of ``enorm = max(1e-300, abs(err_0), ...)`` in the loop
_NORM_LINES = """\
            if err_{m} > enorm:
                enorm = err_{m}
            elif -err_{m} > enorm:
                enorm = -err_{m}"""
# one component's part of ``reach = max(0.0, w0 * k1_0, ...)`` in the loop
_REACH_LINES = """\
        if w{m} * k1_{m} > reach:
            reach = w{m} * k1_{m}"""


@functools.lru_cache(maxsize=16)
def _dp_loop(dim: int) -> Callable:
    """The whole adaptive loop for ``dim`` components, generated once per dimension.

    The stages come from ``_dp_stage_lines``, with the tableau as literals,
    evaluated by ``_log_rate_lines``, which lets stage 7 take stage 6's
    radius, and the continuous extension from ``_dp_dense_lines``; the
    finiteness test (one sum), the max error norm (comparisons, no ``abs`` or
    ``max``), the rows read from the extension and the overflow tests are
    unrolled over the components in ``_LOOP_SOURCE``.  Every number is a
    ``repr`` literal (``_compile``): the tableau, the overflow limit
    log(1e250), the 1e-14 step floor, the step budget and the evaluations
    per attempt, ``len(_DP_A) - 1`` (the first stage is reused, FSAL), from
    which the loop's run record counts ``rhs_evals``.  A system enters only
    through the loop's arguments, so every system of one dimension shares
    one compilation.
    """
    stages = _dp_stage_lines(dim, "t", "h_try", functools.partial(_log_rate_lines, dim))
    row = "exp(y{m} + theta * (c1_{m} + eta * (c2_{m} + theta * (c3_{m} + eta * c4_{m}))))"
    source = _LOOP_SOURCE.format(
        x=_unpack("x", dim),
        y=_unpack("y", dim),
        w=_unpack("w", dim),
        k1="\n".join(f"    {line}" for line in _log_rate_lines(dim, 1, "t", "y")),
        stages="\n".join(f"        {line}" for line in stages),
        finite=f"({_each('s7_{m} + err_{m}', dim, ' + ')}) * 0.0 == 0.0",
        norm=_each(_NORM_LINES, dim, "\n"),
        reach=_each(_REACH_LINES, dim, "\n"),
        dense="\n".join(f"                {line}" for line in _dp_dense_lines(dim, "h_try")),
        rows=_each(row, dim, ", ") + ",",
        y_is_s7=_each("y{m} = s7_{m}", dim, "; "),
        x_is_x7=_each("x{m} = x7_{m}", dim, "; "),
        k1_is_k7=_each("k1_{m} = k7_{m}", dim, "; "),
        overflow=_each(f"y{{m}} > {math.log(_OVERFLOW)!r}", dim, " or "),
        evals=len(_DP_A) - 1,
        underflow_step=_UNDERFLOW_STEP,
        max_steps=_MAX_STEPS,
    )
    return _compile(source, "loop")


def _step_loop(
    f: Callable[[float, Sequence[float]], Sequence[float]],
    grid: np.ndarray,
    y0: Sequence[float],
    tol: float,
    weights: Optional[Sequence[float]] = None,
) -> tuple[np.ndarray, dict]:
    """Adaptive stepping of y' = f(r, y) in log variables, sampled on every grid radius.

    ``_dp_loop`` steps log y against log r and holds the error estimate of every
    component of log y to ``tol``, a relative tolerance on y, and to
    ``_pass_tol(tol)`` = tol/100 in [1e-14, 5e-12] on an attempt that passes
    grid radii.  One cap holds the step of every attempt, passing or not, to
    h max_m(w_m rho_m) <= 1 on the per-component ``weights`` w and the rates
    rho at its start (infinite weights cap nothing).  An attempt passes
    where the step its hold allows, so capped, reaches past the next radius,
    short of the last; the rows it passes are read from the Dormand-Prince
    continuous extension.  ``weights`` defaults to zeros, no cap;
    ``integrate_radial`` passes ``_stability_weights``.
    Every other attempt is held to ``tol``.  One rule ends both: an attempt
    lands on its end radius, the last for one that passes and the next for
    any other, exactly when the rest of the way there is at most its step,
    and then takes that rest as its step, so the last radius is always
    landed on.  A start outside
    (0, 1e250] raises at the first radius with ``h = None``: ``Overflow`` for a NaN
    or large component, else ``StepSizeUnderflow``.  A step the controller shrinks
    below 1e-14 in log r, accepted or rejected, raises ``StepSizeUnderflow`` where
    it stopped, as does a run past the step budget.

    Returns the states on the grid as one (N, dim) array, built once from the
    flat list of rows the loop collects, and the loop's run record, the dict
    that ``integrate_radial`` puts into ``Trajectory.meta`` as it is:

    - ``pass_tol``: the hold of an attempt that passes radii, ``_pass_tol(tol)``;
    - ``steps_accepted`` and ``steps_rejected``: the attempts accepted and rejected;
    - ``rejections``: the rejected attempts by cause, adding up to
      ``steps_rejected``: ``error`` (the estimate exceeded the tolerance the
      attempt was held to) and ``nonfinite`` (a stage left the range of
      floats, or the new state or its estimate was not finite);
    - ``h_min``, ``h_max`` and ``r_at_h_min``: the smallest and largest
      accepted step in r and the radius the smallest one started from
      (``inf``, ``0.0``, ``nan`` when none was accepted);
    - ``rows_interpolated``: the rows read from the extension;
    - ``rhs_evals``: the calls of ``f``, one first, then one per stage after
      the first of every attempt, as ``_dp_loop`` forms it from the tableau.
    """
    radii = np.asarray(grid, dtype=float)
    x = np.asarray(y0, dtype=float).tolist()
    if not all(0.0 < v <= _OVERFLOW for v in x):
        failure = StepSizeUnderflow if all(v <= _OVERFLOW for v in x) else Overflow  # NaN too
        message = f"startup state {tuple(x)} refused, a component is outside (0, 1e250], at r={radii[0]}"
        raise failure(float(radii[0]), message, state=tuple(x))
    weights = [0.0] * len(x) if weights is None else weights
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows, record = _dp_loop(len(x))(f, radii.tolist(), np.log(radii).tolist(), x, tol, _pass_tol(tol), weights)
    return np.array(rows).reshape(-1, len(x)), record


def integrate_radial(
    system: ValidatedSystem,
    a: float,
    b: float,
    tol: float = 1e-9,
    *,
    r0: Optional[float] = None,
    r_max: Optional[float] = None,
    points_per_decade: int = 64,
) -> Trajectory:
    """Integrate from the origin startup out to r_max on a geometric output grid.

    ``(log u, log v, log P, log S)`` is stepped against log r, and ``tol``
    (1e-13 to 1e-3) is an absolute tolerance on those logs, so a relative one
    on u, v, P and S.  A step whose error estimate allows a step past the next
    grid radius at ``meta["pass_tol"]`` = tol/100, clamped to [1e-14, 5e-12],
    takes it, held to that, and reads the radii it passes from the continuous
    extension (``meta["rows_interpolated"]`` counts them); every other step
    is held to ``tol``.  Either lands on its end radius, the last for a step
    that passes and the next for any other, exactly when the rest of the way
    there is no longer than the step.  Every step, passing or landing, is
    capped so that h kappa max_m(rho_m / s_m) <= 2, inside DP5's real
    stability interval (3.31), with rho the rates at its start, s those on
    the far-field profile of the system's pure-power companion and
    ``meta["kappa"]`` the spectral radius of the log rates' Jacobian there;
    a ``kappa`` that is not finite turns passing off and caps nothing.  The
    trajectory holds the four states and ``system``;
    ``Trajectory.logs`` reads log u' and log v' from log P and log S.  Its
    ``meta`` holds ``a``, ``b``, ``r0``, ``rtol`` and ``kappa``, then the
    run record that ``_step_loop`` returns, ``rhs_evals`` included.  Default grids come from
    ``geometric_grid`` and are shared, read-only arrays.  Raises
    ``StepSizeUnderflow`` when a step shrinks
    below 1e-14 in log r (1e-14 * r), accepted or rejected, or a startup component is 0, and
    ``Overflow`` when a component passes 1e250; both carry the radius, the last
    accepted (u, v, P, S) and the last step in r, taken or attempted (``None`` for a refused start).

    The benchmark relies on how the rates are evaluated: every call looks
    ``flux_rhs`` up through ``plap.integrator``, and the loop calls the
    callable it returns once per stage, ``1 + 6 * attempts`` times in all.
    ``bench/spans.py`` counts RHS evaluations by wrapping that callable, and
    ``bench/test_bench.py`` and ``test_benchmark_hooks_accept_numpy_states``
    assert the count is positive.  A loop that evaluates the rates without it
    waits until the benchmark reads ``meta["rhs_evals"]`` instead.
    """
    if not (_TOL_MIN <= tol <= 1e-3):
        raise ValueError(f"tol must lie in [{_TOL_MIN!r}, 1e-3], got {tol}")
    r_end = float(r_max if r_max is not None else system.r_max)
    r_start = float(r0 if r0 is not None else 1e-6 * min(1.0, r_end))
    grid = geometric_grid(r_start, r_end, points_per_decade)
    start = startup_state(system, a, b, r_start)
    kappa, weights = _stability_weights(system)
    ys, record = _step_loop(flux_rhs(system), grid, start, tol, weights)
    # the four state columns are rows of one contiguous block, so a kept
    # trajectory holds four arrays and nothing more
    u, v, P, S = ys.T.copy()
    meta = {"a": a, "b": b, "r0": r_start, "rtol": tol, "kappa": kappa, **record}
    return Trajectory(r=grid, u=u, v=v, P=P, S=S, system=system, meta=meta)

