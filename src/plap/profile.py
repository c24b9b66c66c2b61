"""Closed-form power-law far-field profile for pure-power instances.

When both radial weights are single powers, ``f_i(r) = c_i * r^(m_i)``, the
pure-power companion system (growth laws replaced by ``s^(k_j)``) admits an
exact solution pair

    u0(r) = C_lam * r^lam,      v0(r) = C_mu * r^mu,

whose exponents solve a 2x2 linear system and whose amplitudes follow from a
matching power balance.  Every positive increasing solution of the original
system approaches this profile in ratio as ``r -> inf``, which is what the
verification module measures.

The algebra rests on one identity: the radial p-Laplacian maps a pure power
to a pure power,

    Lp[C r^lam] = sign(lam C) |lam C|^(p-1) (lam (p-1) + n - p) r^((p-1) lam - p),

implemented by ``_p_laplace_power``.  ``verify.sample_profile_trajectory``
samples the profile on a radial grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ValidatedSystem

__all__ = [
    "NotPurePowerCoefficients",
    "PowerProfile",
    "solve_profile",
    "profile_residual",
]


class NotPurePowerCoefficients(ValueError):
    """A closed-form profile needs single-power radial weights c * r^m."""


@dataclass(frozen=True)
class PowerProfile:
    """Exact far-field solution ``(C_lam r^lam, C_mu r^mu)`` of the companion system.

    The amplitudes are held as their logs, since C_lam leaves the float range
    on steep profiles (e^-1470 at lam ~ 450).  ``b_lam = lam (p-1) + n - p``
    and ``b_mu`` are the p-Laplace factors of the two powers; admissibility
    guarantees ``lam, mu > 1`` and hence both factors are strictly positive.
    """

    lam: float
    mu: float
    log_c_lam: float
    log_c_mu: float
    b_lam: float
    b_mu: float


def _p_laplace_power(coeff: float, lam: float, p: float, n: int) -> tuple[float, float]:
    """Radial p-Laplacian of ``coeff * r^lam`` as a single power of r.

    Returns ``(amplitude, exponent)`` with
    ``amplitude = sign(lam coeff) |lam coeff|^(p-1) (lam (p-1) + n - p)`` and
    ``exponent = (p-1) lam - p``.  The signed power keeps the formula valid
    for decreasing powers (negative ``lam * coeff``), e.g. the p-harmonic
    power ``r^((p-n)/(p-1))`` maps to amplitude zero.
    """
    q = lam * coeff
    amplitude = math.copysign(abs(q) ** (p - 1.0), q) * (lam * (p - 1.0) + n - p)
    exponent = (p - 1.0) * lam - p
    return amplitude, exponent


def _pure_power_weights(system: ValidatedSystem) -> tuple[float, float, float, float]:
    f1, f2 = system.f1, system.f2
    if not (f1.is_pure_power and f2.is_pure_power):
        raise NotPurePowerCoefficients(
            "closed-form profile requires single-term radial weights; got "
            f"{len(f1.terms)} term(s) in f1 and {len(f2.terms)} in f2"
        )
    (c1, m1), = f1.terms
    (c2, m2), = f2.terms
    return c1, m1, c2, m2


def _exponents(system: ValidatedSystem, m1: float, m2: float) -> tuple[float, float]:
    """lam and mu of the profile of the companion system with weights r^m1 and r^m2.

    The one place the exponent formula of ``solve_profile`` is written: the
    2x2 system there, solved by Cramer's rule over the subcriticality margin."""
    p, alpha = system.p, system.alpha
    k1, k2, k3 = system.k1, system.k2, system.k3
    det = system.existence_margin
    lam = ((p - alpha + m1) * (p - 1.0 - k2) + k1 * (p - k3 + m2)) / det
    mu = ((p - 1.0 - alpha) * (p + m2) + k3 * (1.0 + m1)) / det
    return lam, mu


def _linearisation(system: ValidatedSystem) -> tuple[np.ndarray, np.ndarray]:
    """The log rates s on the profile and the log-rate Jacobian J = diag(s) A there.

    On the profile the rates dY/dt of the logs Y = log (u, v, P, S) against
    t = log r are the constants

        s = (lam, mu, delta + (p-1-alpha)(lam-1), n-1 + (p-1)(mu-1)),

    and for pure-power laws the Jacobian of the rates at any state with rates
    rho is diag(rho) A, with

        A = [[-1, 0, 1/(p-1-alpha), 0], [0, -1, 0, 1/(p-1)], [0, k1, -1, 0], [0, k2, k3/(p-1-alpha), -1]].

    -lam is always an eigenvalue of J: u enters no rate.  Both are read from
    the companion pure-power system, the weights' top exponents and the laws'
    degrees, so a multi-term weight, which ``solve_profile`` refuses, gets
    its far field's.  A value beyond the float range gives non-finite
    entries; nothing raises.
    """
    p, n, alpha = system.p, system.n, system.alpha
    grad = p - 1.0 - alpha
    lam, mu = _exponents(system, system.f1.terms[-1][1], system.f2.terms[-1][1])
    s = np.array([lam, mu, system.delta + grad * (lam - 1.0), n - 1.0 + (p - 1.0) * (mu - 1.0)])
    A = np.array(
        [
            [-1.0, 0.0, 1.0 / grad, 0.0],
            [0.0, -1.0, 0.0, 1.0 / (p - 1.0)],
            [0.0, system.k1, -1.0, 0.0],
            [0.0, system.k2, system.k3 / grad, -1.0],
        ]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        return s, s[:, None] * A


def solve_profile(system: ValidatedSystem) -> PowerProfile:
    """Exponents, amplitudes and p-Laplace factors of the far-field profile.

    Matching powers of r on both sides of the two equations gives the
    exponents from the linear system

        (p-1-alpha) lam - k1 mu = p - alpha + m1
        -k3 lam + (p-1-k2) mu   = p - k3 + m2

    whose determinant is the (positive) subcriticality margin.  Both solutions
    exceed 1 strictly for every admissible instance.

    Matching the coefficients then couples the two amplitudes through

        (lam C_lam)^(p-1-alpha) = c1 / (mu^k1 b_lam) * (mu C_mu)^k1
        (mu  C_mu)^(p-1-k2)     = c2 / (mu^k2 b_mu)  * (lam C_lam)^k3

    a linear 2x2 system in the logarithms of ``lam C_lam`` and ``mu C_mu``
    with the same determinant.  The amplitudes are returned as these logs, so
    no amplitude overflows or underflows however small the subcriticality
    margin or extreme the weights.
    """
    c1, m1, c2, m2 = _pure_power_weights(system)
    p, n, alpha = system.p, system.n, system.alpha
    k1, k2, k3 = system.k1, system.k2, system.k3
    det = system.existence_margin
    lam, mu = _exponents(system, m1, m2)
    if not (lam > 1.0 and mu > 1.0):  # guaranteed algebraically; guard anyway
        raise ArithmeticError(f"profile exponents out of range: lam={lam}, mu={mu}")
    b_lam = lam * (p - 1.0) + n - p
    b_mu = mu * (p - 1.0) + n - p
    e1 = math.log(c1) - k1 * math.log(mu) - math.log(b_lam)
    e2 = math.log(c2) - k2 * math.log(mu) - math.log(b_mu)
    log_lc = ((p - 1.0 - k2) * e1 + k1 * e2) / det
    log_mc = ((p - 1.0 - alpha) * e2 + k3 * e1) / det
    return PowerProfile(
        lam=lam,
        mu=mu,
        log_c_lam=log_lc - math.log(lam),
        log_c_mu=log_mc - math.log(mu),
        b_lam=b_lam,
        b_mu=b_mu,
    )


def profile_residual(
    profile: PowerProfile,
    system: ValidatedSystem,
    r_samples: Sequence[float],
) -> float:
    """Worst relative defect of the profile in the companion system.

    For each sample radius and each equation the residual compares the
    p-Laplacian of the profile component against the right-hand side built
    from the profile itself.  Both sides are single signed powers of r, so the
    comparison is done through their logarithms:

        defect = |lhs - rhs| / max(|lhs|, |rhs|) = 1 - exp(-|log lhs - log rhs|)

    which is exact for positive sides.  The amplitudes are read as the logs
    the profile holds, through ``Lp[C r^lam] = C^(p-1) Lp[r^lam]``, so extreme
    amplitudes neither overflow nor underflow.  Both equations' gaps are
    reduced by one ``np.max``, so a NaN gap gives a NaN residual; an operator
    output that is not positive scores ``inf``.  A correct profile scores at
    rounding level; perturbing an amplitude by epsilon moves it to O(epsilon).
    """
    c1, m1, c2, m2 = _pure_power_weights(system)
    p, n, alpha = system.p, system.n, system.alpha
    k1, k2, k3 = system.k1, system.k2, system.k3
    lam, mu, log_c_lam, log_c_mu = profile.lam, profile.mu, profile.log_c_lam, profile.log_c_mu

    amp1, expo1 = _p_laplace_power(1.0, lam, p, n)
    amp2, expo2 = _p_laplace_power(1.0, mu, p, n)
    if not (amp1 > 0.0 and amp2 > 0.0):
        return math.inf  # not even the right sign structure

    log_r = np.log(np.asarray(r_samples, dtype=float))
    log_du0 = math.log(lam) + log_c_lam  # amplitude of u0' = lam C_lam r^(lam-1)
    # first equation: c1 r^m1 * (v0)^k1 * (u0')^alpha
    log_lhs1 = math.log(amp1) + (p - 1.0) * log_c_lam + expo1 * log_r
    log_rhs1 = (
        math.log(c1)
        + k1 * log_c_mu
        + alpha * log_du0
        + (m1 + mu * k1 + (lam - 1.0) * alpha) * log_r
    )
    # second equation: c2 r^m2 * (v0)^k2 * (u0')^k3
    log_lhs2 = math.log(amp2) + (p - 1.0) * log_c_mu + expo2 * log_r
    log_rhs2 = (
        math.log(c2)
        + k2 * log_c_mu
        + k3 * log_du0
        + (m2 + mu * k2 + (lam - 1.0) * k3) * log_r
    )
    gap = np.abs(np.stack((log_lhs1 - log_rhs1, log_lhs2 - log_rhs2)))
    return -math.expm1(-float(np.max(gap)))
