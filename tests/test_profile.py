"""Closed-form far-field profile: exponents, amplitudes, residual checker."""

from __future__ import annotations

import math

import numpy as np
import pytest
import sympy as sp

from plap import (
    NotPurePowerCoefficients,
    PowerProfile,
    p_laplace_power,
    profile_eval,
    profile_residual,
    solve_profile,
    system_from_config,
)
from conftest import P3_CONFIG, sample_profile_system


RESIDUAL_GRID = np.geomspace(1e-2, 1e4, 40)


# ---------------------------------------------------------------------------
# The single-power operator identity, against symbolic differentiation
# ---------------------------------------------------------------------------


def symbolic_radial_operator(coeff, lam, p, n):
    """Apply r^(1-n) (r^(n-1) |w'|^(p-2) w')' to w = coeff * r^lam with sympy."""
    r = sp.symbols("r", positive=True)
    dw = sp.diff(coeff * r**lam, r)
    flux = r ** (n - 1) * sp.Abs(dw) ** (p - 2) * dw
    return sp.simplify(r ** (1 - n) * sp.diff(flux, r)), r


@pytest.mark.parametrize(
    "coeff,lam,p,n",
    [
        (1, 2, 2, 3),
        (1, 2, 3, 2),
        (sp.Rational(3, 4), sp.Rational(7, 3), sp.Rational(5, 2), 3),
        (2, 2, sp.Rational(3, 2), 4),
        (sp.Rational(1, 3), sp.Rational(3, 2), 4, 5),
        (sp.Rational(1, 6), 2, 2, 3),
    ],
)
def test_single_power_operator_matches_sympy(coeff, lam, p, n):
    expr, r = symbolic_radial_operator(coeff, lam, p, n)
    amp, expo = p_laplace_power(float(coeff), float(lam), float(p), int(n))
    ratio = sp.simplify(expr * r ** (-sp.Rational(str(sp.nsimplify(expo)))))
    assert sp.diff(ratio, r) == 0, f"operator output not a pure power: {expr}"
    assert float(ratio) == pytest.approx(amp, rel=1e-12)


def test_single_power_operator_spot_values():
    # classical Laplacian of r^2 in dimension 3
    assert p_laplace_power(1.0, 2.0, 2.0, 3) == (6.0, 0.0)
    # harmonic decreasing power: amplitude exactly zero
    amp, expo = p_laplace_power(1.0, -1.0, 2.0, 3)
    assert amp == 0.0 and expo == -3.0
    # degenerate diffusion, p=3 in the plane
    assert p_laplace_power(1.0, 2.0, 3.0, 2) == (12.0, 1.0)


def test_single_power_operator_signed_amplitudes():
    """Sign handling on decreasing powers, both sides of the harmonic slope."""
    # shallower than harmonic: flux -r^(1/2)/2 still decreasing, amplitude < 0
    assert p_laplace_power(1.0, -0.5, 2.0, 3) == (-0.25, -2.5)
    # steeper than harmonic: r^(-3) is subharmonic away from the origin
    assert p_laplace_power(1.0, -3.0, 2.0, 3) == (6.0, -5.0)


# ---------------------------------------------------------------------------
# Exponents
# ---------------------------------------------------------------------------


def exponent_oracle(system):
    """Solve the 2x2 power-matching system with a generic linear solver."""
    p, alpha = system.p, system.alpha
    k1, k2, k3 = system.k1, system.k2, system.k3
    (_, m1), = system.f1.terms
    (_, m2), = system.f2.terms
    A = np.array([[p - 1.0 - alpha, -k1], [-k3, p - 1.0 - k2]])
    rhs = np.array([p - alpha + m1, p - k3 + m2])
    return np.linalg.solve(A, rhs)


def test_exponents_match_linear_solver_on_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(50):
        system, profile = sample_profile_system(rng)
        lam_o, mu_o = exponent_oracle(system)
        assert profile.lam == pytest.approx(lam_o, rel=1e-12)
        assert profile.mu == pytest.approx(mu_o, rel=1e-12)
        assert profile.lam > 1.0 and profile.mu > 1.0


def test_reference_exponents_exact(p3_profile, poisson_profile):
    assert (p3_profile.lam, p3_profile.mu) == (8.0 / 3.0, 7.0 / 3.0)
    assert (poisson_profile.lam, poisson_profile.mu) == (2.0, 2.0)


def test_profile_carries_operator_factors(p3_profile):
    assert p3_profile.b_lam == pytest.approx(16.0 / 3.0, rel=1e-15)
    assert p3_profile.b_mu == pytest.approx(14.0 / 3.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Amplitudes
# ---------------------------------------------------------------------------


def test_reference_amplitude_cube(p3_profile):
    """Hand value: (lam * C_lam)^3 = 243/175616 for the degenerate instance."""
    assert (p3_profile.lam * math.exp(p3_profile.log_c_lam)) ** 3 == pytest.approx(
        243.0 / 175616.0, rel=1e-12
    )


def test_poisson_amplitudes(poisson_profile):
    assert math.exp(poisson_profile.log_c_lam) == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert math.exp(poisson_profile.log_c_mu) == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert poisson_profile.b_lam == 3.0


def test_amplitudes_satisfy_coupled_equations_on_random_systems():
    """Re-substitute the solved amplitudes into both coupling equations."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        system, profile = sample_profile_system(rng)
        p, alpha = system.p, system.alpha
        k1, k2, k3 = system.k1, system.k2, system.k3
        (c1, _), = system.f1.terms
        (c2, _), = system.f2.terms
        lc = profile.lam * math.exp(profile.log_c_lam)
        mc = profile.mu * math.exp(profile.log_c_mu)
        lhs1 = (p - 1.0 - alpha) * math.log(lc)
        rhs1 = math.log(c1 / (profile.mu**k1 * profile.b_lam)) + k1 * math.log(mc)
        lhs2 = (p - 1.0 - k2) * math.log(mc)
        rhs2 = math.log(c2 / (profile.mu**k2 * profile.b_mu)) + k3 * math.log(lc)
        assert lhs1 == pytest.approx(rhs1, abs=1e-12)
        assert lhs2 == pytest.approx(rhs2, abs=1e-12)


def test_amplitudes_positive(p3_profile):
    """The amplitudes are held as logs: a finite log is a positive amplitude."""
    assert math.isfinite(p3_profile.log_c_lam) and math.isfinite(p3_profile.log_c_mu)


# ---------------------------------------------------------------------------
# Residual checker
# ---------------------------------------------------------------------------


def test_residual_vanishes_on_reference_profiles(
    poisson_system, poisson_profile, p3_system, p3_profile
):
    assert profile_residual(poisson_profile, poisson_system, RESIDUAL_GRID) < 1e-14
    assert profile_residual(p3_profile, p3_system, RESIDUAL_GRID) < 1e-13


def test_residual_detects_amplitude_perturbation(p3_system, p3_profile):
    for eps in (1e-4, 1e-2):
        bent = PowerProfile(
            lam=p3_profile.lam,
            mu=p3_profile.mu,
            log_c_lam=p3_profile.log_c_lam + math.log1p(eps),
            log_c_mu=p3_profile.log_c_mu,
            b_lam=p3_profile.b_lam,
            b_mu=p3_profile.b_mu,
        )
        res = profile_residual(bent, p3_system, RESIDUAL_GRID)
        assert 0.1 * eps < res < 10.0 * eps


def test_residual_detects_exponent_perturbation(p3_system, p3_profile):
    bent = PowerProfile(
        lam=p3_profile.lam * 1.001,
        mu=p3_profile.mu,
        log_c_lam=p3_profile.log_c_lam,
        log_c_mu=p3_profile.log_c_mu,
        b_lam=p3_profile.b_lam,
        b_mu=p3_profile.b_mu,
    )
    assert profile_residual(bent, p3_system, RESIDUAL_GRID) > 1e-3


def test_residual_infinite_for_degenerate_operator_output(poisson_system):
    """A zero operator output, whose log the residual would otherwise take,
    scores inf; a zero amplitude, log C = -inf, does not score as a fit."""
    forged = PowerProfile(lam=-1.0, mu=2.0, log_c_lam=0.0, log_c_mu=0.0, b_lam=0.0, b_mu=3.0)
    assert profile_residual(forged, poisson_system, RESIDUAL_GRID) == math.inf
    forged = PowerProfile(lam=2.0, mu=2.0, log_c_lam=-math.inf, log_c_mu=0.0, b_lam=3.0, b_mu=3.0)
    assert not profile_residual(forged, poisson_system, RESIDUAL_GRID) < 1e-3


def test_multi_term_weights_are_refused():
    cfg = dict(P3_CONFIG)
    cfg["f1"] = [[1.0, 0.0], [1.0, 1.0]]
    system = system_from_config(cfg)
    with pytest.raises(NotPurePowerCoefficients):
        solve_profile(system)


# ---------------------------------------------------------------------------
# Evaluation helper
# ---------------------------------------------------------------------------


def test_profile_eval_values_and_gradients(p3_profile):
    r = 2.5
    u0, v0, du0, dv0 = profile_eval(p3_profile, r)
    assert u0 == pytest.approx(math.exp(p3_profile.log_c_lam) * r**p3_profile.lam, rel=1e-15)
    assert v0 == pytest.approx(math.exp(p3_profile.log_c_mu) * r**p3_profile.mu, rel=1e-15)
    # logarithmic-derivative identities of pure powers
    assert du0 * r / u0 == pytest.approx(p3_profile.lam, rel=1e-13)
    assert dv0 * r / v0 == pytest.approx(p3_profile.mu, rel=1e-13)


def test_profile_eval_vanishes_at_origin(p3_profile):
    u0, v0, du0, dv0 = profile_eval(p3_profile, 0.0)
    assert (u0, v0, du0, dv0) == (0.0, 0.0, 0.0, 0.0)
