"""Shared fixtures: reference systems, their profiles, and parameter samplers."""

from __future__ import annotations

import numpy as np
import pytest

from plap import (
    PowerProfile,
    ValidatedSystem,
    integrate_radial,
    solve_profile,
    system_from_config,
)
from plap import integrator

# The two pinned reference systems.  The first has the classical linear
# Laplacian with constant couplings and the exact solution u = v = 1 + r^2/6
# for unit initial data; the second is a genuinely coupled degenerate system
# with hand-checkable closed-form profile (lambda, mu) = (8/3, 7/3).
POISSON_CONFIG = {
    "p": 2,
    "n": 3,
    "alpha": 0,
    "r_max": 100.0,
    "f1": [[1.0, 0.0]],
    "f2": [[1.0, 0.0]],
    "g1": [[1.0, 0.0]],
    "g2": [[1.0, 0.0]],
    "g3": [[1.0, 0.0]],
}

P3_CONFIG = {
    "p": 3,
    "n": 3,
    "alpha": 0,
    "r_max": 1000.0,
    "f1": [[1.0, 0.0]],
    "f2": [[1.0, 0.0]],
    "g1": [[1.0, 1.0]],
    "g2": [[1.0, 0.0]],
    "g3": [[1.0, 1.0]],
}


# A multi-term f1: u' is a power law only to leading order, and no profile exists.
MULTI_TERM_CONFIG = {
    "p": 2.4,
    "n": 4,
    "alpha": 0.3,
    "r_max": 10.0,
    "f1": [[0.7, 0.0], [1.3, 1.5]],
    "f2": [[2.0, 0.5]],
    "g1": [[1.0, 0.8]],
    "g2": [[1.0, 0.2]],
    "g3": [[1.0, 0.6]],
}


@pytest.fixture(scope="session")
def poisson_system() -> ValidatedSystem:
    return system_from_config(POISSON_CONFIG)


@pytest.fixture(scope="session")
def poisson_profile(poisson_system) -> PowerProfile:
    return solve_profile(poisson_system)


@pytest.fixture(scope="session")
def p3_system() -> ValidatedSystem:
    return system_from_config(P3_CONFIG)


@pytest.fixture(scope="session")
def p3_profile(p3_system) -> PowerProfile:
    return solve_profile(p3_system)


@pytest.fixture(scope="session")
def poisson_traj(poisson_system):
    return integrate_radial(poisson_system, 1.0, 1.0, tol=1e-9, r_max=100.0)


@pytest.fixture(scope="session")
def p3_traj(p3_system):
    return integrate_radial(p3_system, 1.0, 1.0, tol=1e-9, r_max=1000.0)


def sample_profile_system(rng: np.random.Generator):
    """Random admissible parameter set for closed-form profile checks.

    Draws from the full advertised ranges (p in [1.2, 4], n in {2..5},
    exponents in [0, 3]) and rejects draws that are inadmissible or so close
    to the existence boundary that the profile exponents exceed 25 (those
    produce astronomically steep profiles that are pointless at desk scale).
    """
    while True:
        p = rng.uniform(1.2, 4.0)
        n = int(rng.choice([2, 3, 4, 5]))
        alpha = rng.uniform(0.0, min(3.0, 0.9 * (p - 1)))
        k1 = rng.uniform(0.0, 3.0)
        k2 = rng.uniform(0.0, min(3.0, p - 1))
        k3 = rng.uniform(0.0, 3.0)
        if (p - 1 - alpha) * (p - 1 - k2) - k1 * k3 < 0.1:
            continue
        m1 = rng.uniform(0.0, 3.0)
        m2 = rng.uniform(0.0, 3.0)
        cfg = {
            "p": p,
            "n": n,
            "alpha": alpha,
            "r_max": 1e4,
            "f1": [[rng.uniform(0.5, 2.0), m1]],
            "f2": [[rng.uniform(0.5, 2.0), m2]],
            "g1": [[1.0, k1]],
            "g2": [[1.0, k2]],
            "g3": [[1.0, k3]],
        }
        try:
            system = system_from_config(cfg)
            profile = solve_profile(system)
        except (ValueError, ArithmeticError):
            continue
        if profile.lam > 25 or profile.mu > 25:
            continue
        return system, profile


def sample_integration_system(rng: np.random.Generator):
    """Random system suitable for full integration out to r = 1e3.

    Compared with the profile sampler this keeps the couplings bounded away
    from zero (k1, k3 >= 0.25, so every comparison below is strict), keeps a
    healthy existence margin, and caps the profile exponents at 6 so runs
    stay fast and far from overflow.  Lower-order terms are mixed into f1 and
    g1 with 40% probability each to exercise non-pure-power inputs.
    """
    while True:
        p = rng.uniform(1.6, 3.5)
        n = int(rng.choice([2, 3, 4]))
        alpha = rng.uniform(0.0, 0.5 * (p - 1))
        k1 = rng.uniform(0.25, 1.75)
        k2 = rng.uniform(0.0, 0.5 * (p - 1))
        k3 = rng.uniform(0.25, 1.75)
        if (p - 1 - alpha) * (p - 1 - k2) - k1 * k3 < 0.25:
            continue
        m1 = rng.uniform(0.0, 1.0)
        m2 = rng.uniform(0.0, 1.0)
        c1 = rng.uniform(0.5, 2.0)
        c2 = rng.uniform(0.5, 2.0)
        f1 = [[c1, m1]]
        f2 = [[c2, m2]]
        g1 = [[1.0, k1]]
        if rng.random() < 0.4 and k1 > 0.3:
            g1 = [[rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.8) * k1], [1.0, k1]]
        if rng.random() < 0.4:
            low = rng.uniform(0.0, m1) if m1 > 0 else 0.0
            f1 = [[rng.uniform(0.1, 1.0), low], [c1, m1]]
        cfg = {
            "p": p,
            "n": n,
            "alpha": alpha,
            "r_max": 1e3,
            "f1": f1,
            "f2": f2,
            "g1": g1,
            "g2": [[1.0, k2]],
            "g3": [[1.0, k3]],
        }
        try:
            system = system_from_config(cfg)
            profile = solve_profile(system)
        except (ValueError, ArithmeticError):
            continue
        if profile.lam > 6 or profile.mu > 6:
            continue
        return system, profile


def g3_at_log_gradient(traj):
    """g3(u') as sum_i a_i exp(e_i log u'), log u' read from log P; a term of exponent 0 is its coefficient."""
    log_du = traj.logs()[2]
    return sum(a if e == 0.0 else a * np.exp(e * log_du) for a, e in traj.system.g3.terms)


def counting_flux_rhs(monkeypatch):
    """Wrap the callables ``plap.integrator.flux_rhs`` hands out; return the log of the radii they are called at."""
    calls = []
    original = integrator.flux_rhs

    def flux_rhs(system):
        rhs = original(system)

        def counted(r, y):
            calls.append(r)
            return rhs(r, y)

        return counted

    monkeypatch.setattr(integrator, "flux_rhs", flux_rhs)
    return calls
