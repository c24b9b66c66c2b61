"""One sampler of the admissible region, driven by draw callbacks.

``admissible_draw`` holds the distribution; the caller supplies the
randomness.  ``test_admissible_region_reports_or_fails_typed`` draws through
a hypothesis strategy, so a failing draw shrinks, and
``tools/admissible_census.py`` through a seeded ``random.Random``, so a
census of thousands of draws is one command.  Plain module: no pytest or
hypothesis.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from plap import ValidatedSystem, solve_profile, system_from_config

# the largest lambda and mu a draw may have
MAX_EXPONENT = 60.0


def admissible_draw(
    uniform: Callable[[float, float], float],
    integer: Callable[[int, int], int],
    coin: Callable[[], bool],
) -> Optional[tuple[ValidatedSystem, float, float, float]]:
    """An admissible instance and its a, b and tol, or ``None`` past ``MAX_EXPONENT``.

    ``uniform(lo, hi)`` draws a float in [lo, hi], ``integer(lo, hi)`` an
    int in lo..hi and ``coin()`` a bool.  p in [1.2, 4] and n in 2..5.
    alpha is (p-1)(1 - 10^-u) with u in [1, 3] on about half the draws, else
    up to 0.9 (p-1); k1 k3 is within 10^-3 to 10^-1 of the gate
    (p-1-alpha)(p-1-k2) on about half, else up to 0.9 of it.  m1 and m2 lie
    in [0, 2], and g1 and g3 sometimes carry a lower term.  a and b lie in
    [0.1, 10], tol in [1e-9, 1e-6] and the system's r_max in [1e2, 1e4],
    each log-uniform.  A draw whose lambda or mu exceeds ``MAX_EXPONENT``
    gives ``None``.
    """

    def log_uniform(lo, hi):
        return 10.0 ** uniform(math.log10(lo), math.log10(hi))

    def near(share):
        """``share`` pushed to within 10^-3 to 10^-1 of 1 on about half the draws."""
        return 1.0 - 10.0 ** -uniform(1.0, 3.0) if coin() else share

    p = uniform(1.2, 4.0)
    alpha = (p - 1.0) * near(uniform(0.0, 0.9))
    k2 = (p - 1.0) * uniform(0.0, 0.7)
    product = (p - 1.0 - alpha) * (p - 1.0 - k2) * near(uniform(0.0, 0.9))
    split = math.exp(uniform(-0.7, 0.7))
    k1, k3 = math.sqrt(product) * split, math.sqrt(product) / split

    def law(k):
        if k > 0.05 and coin():
            return [[uniform(0.1, 1.0), k * uniform(0.0, 0.8)], [1.0, k]]
        return [[1.0, k]]

    cfg = {
        "p": p,
        "n": integer(2, 5),
        "alpha": alpha,
        "r_max": log_uniform(1e2, 1e4),
        "f1": [[uniform(0.5, 2.0), uniform(0.0, 2.0)]],
        "f2": [[uniform(0.5, 2.0), uniform(0.0, 2.0)]],
        "g1": law(k1),
        "g2": [[1.0, k2]],
        "g3": law(k3),
    }
    system = system_from_config(cfg)
    profile = solve_profile(system)
    if not (profile.lam <= MAX_EXPONENT and profile.mu <= MAX_EXPONENT):
        return None
    a, b = log_uniform(0.1, 10.0), log_uniform(0.1, 10.0)
    return system, a, b, log_uniform(1e-9, 1e-6)
