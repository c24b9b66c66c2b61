"""Seeded instance generator for the benchmark.

Every instance is a plain config document that ``plap.system_from_config``
accepts, plus the initial data ``a``, ``b`` and the tolerance ``tol``.  The
generator evaluates the two admissibility gates and the closed-form profile
exponents itself, so the benchmark can label instances and check the
program's output without asking the program.

Instances are drawn in classes:

* ``bulk``: alpha in [0, 0.9 (p-1)], coupling product k1 k3 at 5-75% of the
  subcriticality gate (p-1-alpha)(p-1-k2);
* ``near_gate``: coupling product at 80-90% of the gate;
* ``near_alpha``: p-1-alpha in [0.012, 0.02], where the startup gradient
  ``u'(r0) ~ r0^(1/(p-1-alpha))`` at r0 = 1e-6 underflows; the program
  currently raises ``StepSizeUnderflow`` at the startup radius;
* ``steep_profile``: p-1-alpha in [0.02, 0.05] and lambda in [44, 48], where
  the profile ``C r^lambda`` underflows at r0; the program currently reports
  non-finite quotients and fails verification.

Only ``tight-coarse`` draws the last two classes.

Otherwise both profile exponents are capped at 12: steeper
profiles converge to their limits too slowly for the battery's r = 1e4
thresholds, and beyond lambda ~ 45 the profile itself underflows at r0.

40% of instances carry multi-term growth laws.  The lower term of a law of
degree k is ``c s^e`` with the decay rate of ``c s^(e-k)`` along the profile
at least 1 per unit of log r, so the quotients settle within the thresholds.
"""

from __future__ import annotations

import math
import random

R_MAX = 1e4
MIN_LOWER_TERM_DECAY = 1.0
MAX_EXPONENT = 12.0
STEEP_LAMBDA = (44.0, 48.0)
NEAR_GATE_SHARE = 0.8  # coupling product / gate at or above this is "near the gate"
NEAR_ALPHA_GAP = 0.05  # p-1-alpha at or below this is "near alpha = p-1"
DESIGN_SEED = 20230703

# Class and multi-term schedules, cycled over a workload's instance pool so
# every pool of a given size has the same mix whatever the seed.
_MULTI = (True, False, False, True, False, True, False, False, True, False)
_PASSING = ("bulk", "bulk", "near_gate", "bulk", "bulk", "near_gate", "bulk", "bulk", "near_gate", "bulk")
_WHOLE_REGION = (
    "bulk", "bulk", "near_alpha", "bulk", "near_gate", "bulk", "bulk", "steep_profile", "bulk", "near_gate",
)


def gate_margin(p: float, alpha: float, k1: float, k2: float, k3: float) -> float:
    """Subcriticality margin (p-1-alpha)(p-1-k2) - k1 k3; admissible when > 0."""
    return (p - 1.0 - alpha) * (p - 1.0 - k2) - k1 * k3


def degrees(cfg: dict) -> tuple[float, float, float]:
    return tuple(max(e for _, e in cfg[g]) for g in ("g1", "g2", "g3"))


def admissible(cfg: dict) -> bool:
    """Both admissibility gates: 0 <= alpha < p-1 and a positive margin."""
    p, alpha = float(cfg["p"]), float(cfg["alpha"])
    return 0.0 <= alpha < p - 1.0 and gate_margin(p, alpha, *degrees(cfg)) > 0.0


def profile_exponents(cfg: dict) -> tuple[float, float]:
    """Far-field exponents (lambda, mu) of the pure-power companion system."""
    p, alpha = float(cfg["p"]), float(cfg["alpha"])
    k1, k2, k3 = degrees(cfg)
    m1, m2 = float(cfg["f1"][0][1]), float(cfg["f2"][0][1])
    det = gate_margin(p, alpha, k1, k2, k3)
    lam = ((p - alpha + m1) * (p - 1.0 - k2) + k1 * (p - k3 + m2)) / det
    mu = ((p - 1.0 - alpha) * (p + m2) + k3 * (1.0 + m1)) / det
    return lam, mu


def is_multi_term(cfg: dict) -> bool:
    return any(len(cfg[g]) > 1 for g in ("g1", "g2", "g3"))


def is_near_alpha(cfg: dict) -> bool:
    return float(cfg["p"]) - 1.0 - float(cfg["alpha"]) <= NEAR_ALPHA_GAP


def is_near_gate(cfg: dict) -> bool:
    p, alpha = float(cfg["p"]), float(cfg["alpha"])
    k1, k2, k3 = degrees(cfg)
    gate = (p - 1.0 - alpha) * (p - 1.0 - k2)
    return admissible(cfg) and k1 * k3 >= NEAR_GATE_SHARE * gate


def _law(rng: random.Random, k: float, growth: float) -> list:
    """Multi-term law of degree k when its lower term can decay fast enough.

    ``growth`` is the exponent of the law's argument along the profile.
    """
    if k * growth > 2.0 * MIN_LOWER_TERM_DECAY:
        gap = rng.uniform(max(MIN_LOWER_TERM_DECAY / growth, 0.5 * k), k)
        return [[rng.uniform(0.1, 2.0), k - gap], [1.0, k]]
    return [[1.0, k]]


def _draw(rng: random.Random, kind: str, multi: bool, tol_range: tuple[float, float]) -> dict:
    p = rng.uniform(1.5, 4.0)
    n = rng.choice((2, 3, 4, 5))
    if kind == "near_alpha":
        alpha = p - 1.0 - rng.uniform(0.012, 0.02)
    elif kind == "steep_profile":
        alpha = p - 1.0 - rng.uniform(0.02, NEAR_ALPHA_GAP)
    else:
        alpha = (p - 1.0) * rng.uniform(0.0, 0.9)
    k2 = (p - 1.0) * rng.uniform(0.0, 0.7)
    if kind == "near_gate":
        share = rng.uniform(NEAR_GATE_SHARE, 0.9)
    elif kind in ("near_alpha", "steep_profile"):
        share = rng.uniform(0.001, 0.05)
    else:
        share = rng.uniform(0.05, 0.75)
    prod = share * (p - 1.0 - alpha) * (p - 1.0 - k2)
    split = math.exp(rng.uniform(-0.7, 0.7))
    k1, k3 = math.sqrt(prod) * split, math.sqrt(prod) / split
    lo, hi = tol_range
    cfg = {
        "p": p,
        "n": n,
        "alpha": alpha,
        "r_max": R_MAX,
        "f1": [[rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)]],
        "f2": [[rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)]],
        "g1": [[1.0, k1]],
        "g2": [[1.0, k2]],
        "g3": [[1.0, k3]],
        "a": rng.uniform(0.5, 2.0),
        "b": rng.uniform(0.5, 2.0),
        "tol": math.exp(rng.uniform(math.log(lo), math.log(hi))),
    }
    if multi:
        lam, mu = profile_exponents(cfg)
        cfg["g1"] = _law(rng, k1, mu)
        cfg["g2"] = _law(rng, k2, mu)
        cfg["g3"] = _law(rng, k3, lam - 1.0)
    return cfg


def draw_instance(
    rng: random.Random,
    kind: str = "bulk",
    multi: bool = False,
    tol_range: tuple[float, float] = (1e-9, 1e-9),
) -> dict:
    """One admissible instance of the given class, with r_max = 1e4.

    Draws repeat until the profile exponents lie in the class's range, so the
    same rng state always yields the same instance.
    """
    lo, hi = {"near_alpha": (1.0, 70.0), "steep_profile": STEEP_LAMBDA}.get(kind, (1.0, MAX_EXPONENT))
    while True:
        cfg = _draw(rng, kind, multi, tol_range)
        lam, mu = profile_exponents(cfg)
        if lo <= lam <= hi and mu <= MAX_EXPONENT:
            return cfg


def jitter(cfg: dict, rng: random.Random) -> dict:
    """The instance with its initial data and weight coefficients scaled by up to 10%.

    Neither changes admissibility, the profile exponents or the degrees.
    """
    out = dict(cfg, a=cfg["a"] * rng.uniform(0.9, 1.1), b=cfg["b"] * rng.uniform(0.9, 1.1))
    for f in ("f1", "f2"):
        (c, m), = cfg[f]
        out[f] = [[c * rng.uniform(0.9, 1.1), m]]
    return out


def instance_pool(seed: int, size: int, tol_range: tuple[float, float], whole_region: bool) -> list[dict]:
    """``size`` instances: a fixed design following the class schedule, jittered by the seed.

    The design (classes, exponents, degrees, tolerances) is drawn from
    ``DESIGN_SEED`` so every seed runs the same mix and about the same amount
    of work; the seed moves initial data and weight coefficients.
    ``whole_region`` adds the ``near_alpha`` and ``steep_profile`` classes,
    on which the program currently fails; otherwise every instance is one
    the battery passes.
    """
    design = random.Random(DESIGN_SEED)
    kinds = _WHOLE_REGION if whole_region else _PASSING
    rng = random.Random(seed)
    return [
        jitter(draw_instance(design, kinds[i % len(kinds)], _MULTI[i % len(_MULTI)], tol_range), rng)
        for i in range(size)
    ]


# The sweep crosses the gate on purpose: with k1 = x sqrt(G) s and
# k3 = y sqrt(G) / s, the coupling product is x*y of the gate G.  Products
# at or above 1 are inadmissible; every admissible product stays <= 0.75.
_SWEEP_FACTORS = (0.25, 0.5, 0.75, 1.5)


def sweep_config(seed: int) -> dict:
    """A 16-point k1 x k3 sweep, 3 points inadmissible, around a ``coupled_p3``-like base.

    The base (p near 3, n = 3, small alpha, constant g2, near-constant
    weights) keeps every point cheap.  Like ``instance_pool``, the design is
    fixed and the seed jitters it.
    """
    rng = random.Random(DESIGN_SEED)
    p, alpha = rng.uniform(2.8, 3.2), rng.uniform(0.0, 0.2)
    root = p - 1.0 - alpha  # sqrt of the gate (p-1-alpha)(p-1-k2) with k2 = 0
    split = math.exp(rng.uniform(-0.3, 0.3))
    base = {
        "p": p,
        "n": 3,
        "alpha": alpha,
        "r_max": R_MAX,
        "f1": [[rng.uniform(0.8, 1.25), rng.uniform(0.0, 0.2)]],
        "f2": [[rng.uniform(0.8, 1.25), rng.uniform(0.0, 0.2)]],
        "g1": [[1.0, root * split]],
        "g2": [[1.0, 0.0]],
        "g3": [[1.0, root / split]],
        "a": rng.uniform(0.8, 1.25),
        "b": rng.uniform(0.8, 1.25),
        "tol": 1e-9,
        "sweep": {
            "k1": [x * root * split for x in _SWEEP_FACTORS],
            "k3": [y * root / split for y in _SWEEP_FACTORS],
        },
    }
    return jitter(base, random.Random(seed))


def sweep_points(cfg: dict) -> list[dict]:
    """Sweep points as standalone configs, in the CLI's row order (sorted keys, product)."""
    out = []
    for k1 in cfg["sweep"]["k1"]:
        for k3 in cfg["sweep"]["k3"]:
            pt = {k: v for k, v in cfg.items() if k != "sweep"}
            pt["g1"], pt["g3"] = [[1.0, k1]], [[1.0, k3]]
            out.append(pt)
    return out


def shares(instances: list[dict]) -> dict[str, float]:
    """Share of instances that are multi-term, near alpha = p-1, near the gate."""
    count = len(instances)
    return {
        "multi_term_share": sum(map(is_multi_term, instances)) / count,
        "near_alpha_share": sum(map(is_near_alpha, instances)) / count,
        "near_gate_share": sum(map(is_near_gate, instances)) / count,
    }
