"""Problem definition and validation for coupled radial p-Laplace systems.

The systems handled by this package couple two positive radial unknowns
``(u, v)`` on a ball through the p-Laplace operator, a gradient power on the
first equation, and polynomial-type growth laws:

    div(|grad u|^(p-2) grad u) = f1(|x|) * g1(v) * |grad u|^alpha
    div(|grad v|^(p-2) grad v) = f2(|x|) * g2(v) * g3(|grad u|)

Both radial weights ``f1, f2`` and growth laws ``g1, g2, g3`` are finite sums
of nonnegative real powers with nonnegative coefficients.  Each growth law is
normalised so that its highest power enters with coefficient exactly one; the
exponent of that power is the law's *degree* ``k``.  Normalisation pins down
the far-field behaviour ``g(s)/s^k -> 1`` and, because every other exponent
lies in ``[0, k]``, gives two structural facts the comparison machinery
downstream relies on:

* ``g(s*t)/t^k`` is non-increasing in ``t`` for fixed ``s >= 1``, and
* ``g(t) >= t^k`` for every ``t >= 0``.

An instance is *admissible* when

    0 <= alpha < p - 1      (increasing positive solutions can exist at all)
    (p-1-alpha)*(p-1-k2) > k1*k3    (the coupling is subcritical)

with both inequalities strict.  Constructing a ``ValidatedSystem`` enforces
exactly these two gates; the degenerate but useful case of constant ``g1``
or ``g2`` (degree zero) is accepted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "MalformedNonlinearity",
    "GradientExponentTooLarge",
    "ExistenceConditionViolated",
    "CoefficientFunction",
    "Nonlinearity",
    "ValidatedSystem",
    "system_from_config",
]

Scalar = Union[float, "numpy.ndarray"]  # noqa: F821 - numpy only needed at call sites


class MalformedNonlinearity(ValueError):
    """A growth law violates the structural normalisation rules."""


class GradientExponentTooLarge(ValueError):
    """alpha >= p - 1: no non-constant increasing positive radial solution exists."""


class ExistenceConditionViolated(ValueError):
    """(p-1-alpha)*(p-1-k2) <= k1*k3: the coupled system is not subcritical."""


def _normalise_terms(terms: Iterable[Sequence[float]]) -> tuple[tuple[float, float], ...]:
    """Sort term pairs by exponent, merge exact duplicates, drop zero coefficients."""
    cleaned: dict[float, float] = {}
    for pair in terms:
        coeff, expo = float(pair[0]), float(pair[1])
        cleaned[expo] = cleaned.get(expo, 0.0) + coeff
    merged = tuple(
        (c, e) for e, c in sorted(cleaned.items(), key=lambda item: item[0]) if c != 0.0
    )
    return merged


@dataclass(frozen=True)
class _PowerSum:
    """``x -> sum_i c_i * x^(e_i)`` with ``c_i >= 0``, ``e_i >= 0`` and a nonzero term.

    Construction normalises the terms (``_normalise_terms``) and raises
    ``_error`` on an empty term list or a coefficient or exponent that is not
    a finite number ``>= 0``.
    """

    terms: tuple[tuple[float, float], ...]

    _error = ValueError  # class attributes, not dataclass fields
    _empty_message = ""
    _noun = ""

    def __post_init__(self) -> None:
        merged = _normalise_terms(self.terms)
        if not merged:
            raise self._error(self._empty_message)
        for coeff, expo in merged:
            if not 0.0 <= coeff < math.inf:
                raise self._error(f"coefficient {coeff} in {self._noun} must be a finite number >= 0")
            if not 0.0 <= expo < math.inf:
                raise self._error(f"exponent {expo} in {self._noun} must be a finite number >= 0")
        object.__setattr__(self, "terms", merged)

    def __call__(self, x: Scalar) -> Scalar:
        total = 0.0
        for coeff, expo in self.terms:
            total = total + coeff * x**expo
        return total


class CoefficientFunction(_PowerSum):
    """Radial weight ``r -> sum_i c_i * r^(m_i)`` with ``c_i >= 0`` and ``m_i >= 0``.

    Nonnegative coefficients and exponents keep the weight continuous,
    non-decreasing and positive on (0, inf), which the monotonicity of the
    solutions rests on.  At least one coefficient must be positive.  The
    convention ``0^0 = 1`` applies, so a constant weight is ``[(c, 0)]``.
    """

    _empty_message = "coefficient function needs at least one positive term"
    _noun = "radial weight"

    @classmethod
    def pure_power(cls, coeff: float = 1.0, expo: float = 0.0) -> "CoefficientFunction":
        return cls(((float(coeff), float(expo)),))

    @property
    def is_pure_power(self) -> bool:
        return len(self.terms) == 1


class Nonlinearity(_PowerSum):
    """Growth law ``s -> sum_i a_i * s^(e_i)`` normalised at its top power.

    Construction enforces: all coefficients nonnegative, all exponents
    nonnegative, and the term with the largest exponent (the *degree*) has
    coefficient exactly 1.  Terms sharing an exponent are merged first, and
    zero-coefficient terms are dropped.  A degree-zero law is the constant 1.
    """

    _error = MalformedNonlinearity
    _empty_message = "growth law has no nonzero terms"
    _noun = "growth law"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.terms[-1][0] != 1.0:
            raise MalformedNonlinearity(
                f"leading coefficient must be exactly 1, got {self.terms[-1][0]} "
                f"at exponent {self.terms[-1][1]}"
            )

    @classmethod
    def pure_power(cls, degree: float) -> "Nonlinearity":
        return cls(((1.0, float(degree)),))

    @property
    def degree(self) -> float:
        """The largest exponent k; governs the far-field growth g(s) ~ s^k."""
        return self.terms[-1][1]


@dataclass(frozen=True)
class ValidatedSystem:
    """One admissible system instance; constructing it validates it.

    ``p > 1`` is the diffusion exponent, ``n >= 2`` the space dimension,
    ``alpha >= 0`` the gradient power on the first equation and ``r_max``
    the target radius of integration.  After these ranges come the two
    gates: ``GradientExponentTooLarge`` when ``alpha >= p - 1`` (every
    positive increasing radial solution is then constant) and
    ``ExistenceConditionViolated`` when ``(p-1-alpha)*(p-1-k2) <= k1*k3``
    (boundary included: the far-field profile degenerates there).
    """

    p: float
    n: int
    alpha: float
    f1: CoefficientFunction
    f2: CoefficientFunction
    g1: Nonlinearity
    g2: Nonlinearity
    g3: Nonlinearity
    r_max: float

    def __post_init__(self) -> None:
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"diffusion exponent p must be a finite number > 1, got {self.p}")
        n = self.n
        try:
            whole = not isinstance(n, bool) and isinstance(n, numbers.Real) and float(n).is_integer()
        except OverflowError:
            raise ValueError("dimension n is an integer too large for a float") from None
        if not whole:
            raise ValueError(f"dimension n must be an integer, got {n}")
        object.__setattr__(self, "n", int(n))
        if self.n < 2:
            raise ValueError(f"dimension n must be at least 2, got {self.n}")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"gradient exponent alpha must be a finite number >= 0, got {self.alpha}")
        if not 0.0 < self.r_max < math.inf:
            raise ValueError(f"r_max must be a finite number > 0, got {self.r_max}")
        p, alpha = self.p, self.alpha
        if alpha >= p - 1.0:
            raise GradientExponentTooLarge(
                f"gradient exponent alpha={alpha} >= p-1={p - 1.0}: in this regime no "
                "non-constant positive increasing radial solution exists"
            )
        margin = self.existence_margin
        if margin <= 0.0:
            raise ExistenceConditionViolated(
                f"(p-1-alpha)*(p-1-k2) - k1*k3 = {margin} must be strictly positive "
                f"(p={p}, alpha={alpha}, k1={self.k1}, k2={self.k2}, k3={self.k3})"
            )

    @property
    def k1(self) -> float:
        return self.g1.degree

    @property
    def k2(self) -> float:
        return self.g2.degree

    @property
    def k3(self) -> float:
        return self.g3.degree

    @property
    def existence_margin(self) -> float:
        p, alpha = self.p, self.alpha
        return (p - 1.0 - alpha) * (p - 1.0 - self.k2) - self.k1 * self.k3

    @property
    def delta(self) -> float:
        """The weight exponent delta = (n-1)(p-1-alpha)/(p-1) of the first flux."""
        return (self.n - 1) * (self.p - 1.0 - self.alpha) / (self.p - 1.0)


def _config_float(value: object, field: str) -> float:
    """``float(value)`` of a real number, or a ``ValueError`` naming the config field.

    Booleans and strings are not numbers, although ``float`` reads ``true``
    as 1.0 and ``"0.5"``, ``"inf"`` or ``"nan"`` as floats.  An integer too
    large for a float is refused here rather than as an ``OverflowError``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"config field '{field}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"config field '{field}' is an integer too large for a float") from None


def _terms_from_config(raw: object, field: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ValueError(f"config field '{field}' must be a non-empty list of [coeff, expo] pairs")
    pairs = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"config field '{field}' entries must be [coeff, expo] pairs")
        pairs.append((_config_float(item[0], field), _config_float(item[1], field)))
    return tuple(pairs)


def system_from_config(cfg: Mapping) -> ValidatedSystem:
    """Build and validate a system from a plain configuration mapping.

    Expected fields: ``p``, ``n``, ``alpha``, ``r_max`` (numbers) and
    ``f1``, ``f2``, ``g1``, ``g2``, ``g3`` (lists of ``[coeff, expo]`` pairs).
    Raises ``ValueError`` subclasses on missing or malformed fields, on an
    integer too large for a float, and the admissibility errors of
    ``ValidatedSystem`` on inadmissible parameters.
    """
    for field in ("p", "n", "alpha", "r_max", "f1", "f2", "g1", "g2", "g3"):
        if field not in cfg:
            raise ValueError(f"config field '{field}' is missing")
    if type(cfg["n"]) is int:
        _config_float(cfg["n"], "n")  # names the field of an int too large for a float
    return ValidatedSystem(
        p=_config_float(cfg["p"], "p"),
        n=cfg["n"],
        alpha=_config_float(cfg["alpha"], "alpha"),
        f1=CoefficientFunction(_terms_from_config(cfg["f1"], "f1")),
        f2=CoefficientFunction(_terms_from_config(cfg["f2"], "f2")),
        r_max=_config_float(cfg["r_max"], "r_max"),
        g1=Nonlinearity(_terms_from_config(cfg["g1"], "g1")),
        g2=Nonlinearity(_terms_from_config(cfg["g2"], "g2")),
        g3=Nonlinearity(_terms_from_config(cfg["g3"], "g3")),
    )
