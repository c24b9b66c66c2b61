"""Parameter model: growth laws, admissibility gates, config ingestion."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plap import (
    CoefficientFunction,
    ExistenceConditionViolated,
    GradientExponentTooLarge,
    MalformedNonlinearity,
    Nonlinearity,
    ValidatedSystem,
    system_from_config,
)
from conftest import P3_CONFIG, POISSON_CONFIG


def make_config(**overrides):
    cfg = dict(P3_CONFIG)
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# CoefficientFunction
# ---------------------------------------------------------------------------


def test_coefficient_function_evaluates_term_sum():
    f = CoefficientFunction(((2.0, 0.0), (3.0, 1.5)))
    assert f(0.0) == 2.0  # r^0 at r=0 is 1 by convention
    assert f(4.0) == pytest.approx(2.0 + 3.0 * 8.0, rel=1e-15)


def test_coefficient_function_merges_and_sorts_terms():
    f = CoefficientFunction(((1.0, 2.0), (0.5, 0.0), (2.0, 2.0), (0.0, 7.0)))
    assert f.terms == ((0.5, 0.0), (3.0, 2.0))
    assert not f.is_pure_power
    assert CoefficientFunction.pure_power(2.0, 1.0).is_pure_power


def test_coefficient_function_rejects_negative_terms():
    with pytest.raises(ValueError):
        CoefficientFunction(((-1.0, 0.0),))
    with pytest.raises(ValueError):
        CoefficientFunction(((1.0, -0.5),))


# ---------------------------------------------------------------------------
# Nonlinearity
# ---------------------------------------------------------------------------


def test_nonlinearity_requires_unit_leading_coefficient():
    with pytest.raises(MalformedNonlinearity):
        Nonlinearity(((2.0, 1.0),))
    # merging may *produce* the unit leading coefficient
    g = Nonlinearity(((0.5, 1.0), (0.5, 1.0)))
    assert g.terms == ((1.0, 1.0),)


def test_nonlinearity_degree_and_constants():
    g = Nonlinearity(((0.3, 0.0), (1.0, 2.0)))
    assert g.degree == 2.0
    assert g.degree != 0.0
    assert Nonlinearity.pure_power(0.0).degree == 0.0
    assert g(2.0) == pytest.approx(0.3 + 4.0, rel=1e-15)
    assert g(0.0) == pytest.approx(0.3)  # only the constant term survives


def test_nonlinearity_rejects_empty_and_negative():
    with pytest.raises(MalformedNonlinearity):
        Nonlinearity(())
    with pytest.raises(MalformedNonlinearity):
        Nonlinearity(((0.0, 2.0),))  # all terms vanish
    with pytest.raises(MalformedNonlinearity):
        Nonlinearity(((1.0, 2.0), (-0.1, 1.0)))


@st.composite
def nonlinearities(draw):
    k = draw(st.floats(min_value=0.1, max_value=3.0))
    terms = [(1.0, k)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        coeff = draw(st.floats(min_value=0.0, max_value=5.0))
        expo = draw(st.floats(min_value=0.0, max_value=0.95)) * k
        terms.append((coeff, expo))
    return Nonlinearity(tuple(terms))


@settings(max_examples=200, deadline=None)
@given(
    g=nonlinearities(),
    s=st.floats(min_value=1e-3, max_value=1e3),
    factor=st.floats(min_value=1.0, max_value=1e3),
)
def test_growth_law_is_nondecreasing(g, s, factor):
    assert g(s * factor) >= g(s) * (1 - 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    g=nonlinearities(),
    s=st.floats(min_value=1e-3, max_value=1e3),
    factor=st.floats(min_value=1.0, max_value=1e3),
)
def test_growth_law_top_power_dominates(g, s, factor):
    """g(s)/s^k never increases: the lower-order terms only help at small s."""
    t = s * factor
    lhs = g(t) / t**g.degree
    rhs = g(s) / s**g.degree
    assert lhs <= rhs * (1 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(g=nonlinearities(), s=st.floats(min_value=1e-3, max_value=1e6))
def test_growth_law_bounded_below_by_top_power(g, s):
    assert g(s) >= s**g.degree * (1 - 1e-12)


# ---------------------------------------------------------------------------
# ValidatedSystem: scalar checks and the admissibility gates
# ---------------------------------------------------------------------------


def constant_system(p=2.0, n=3, alpha=0.0, r_max=1.0):
    """``ValidatedSystem`` with unit weights and constant growth laws (k1 = k2 = k3 = 0)."""
    f, g = CoefficientFunction.pure_power(), Nonlinearity.pure_power(0.0)
    return ValidatedSystem(p=p, n=n, alpha=alpha, f1=f, f2=f, g1=g, g2=g, g3=g, r_max=r_max)


def test_params_validation_rejects_bad_scalars():
    with pytest.raises(ValueError):
        constant_system(p=1.0)
    with pytest.raises(ValueError):
        constant_system(n=1)
    with pytest.raises(ValueError):
        constant_system(n=2.5)
    with pytest.raises(ValueError, match="dimension n must be an integer, got True"):
        constant_system(n=True)
    with pytest.raises(ValueError, match="dimension n is an integer too large for a float"):
        constant_system(n=10**400)
    with pytest.raises(ValueError):
        constant_system(alpha=-0.1)
    with pytest.raises(ValueError):
        constant_system(r_max=0.0)
    # a float-valued integer dimension is coerced
    system = constant_system(n=3.0)
    assert system.n == 3 and isinstance(system.n, int)


@pytest.mark.parametrize(
    "p, n, alpha, expected, rel",
    [
        (2.0, 3, 0.0, 2.0, 0.0),
        (3.0, 3, 0.0, 2.0, 0.0),
        (2.0, 2, 0.5, 0.5, 0.0),
        # direct evaluation: (n-1)(p-1-alpha)/(p-1)
        (2.5, 4, 0.3, 3 * 1.2 / 1.5, 1e-15),
    ],
)
def test_delta_values(p, n, alpha, expected, rel):
    assert constant_system(p=p, n=n, alpha=alpha).delta == pytest.approx(expected, rel=rel, abs=0.0)


def test_validated_system_carries_delta_and_degrees(p3_system):
    assert p3_system.delta == 2.0
    assert (p3_system.k1, p3_system.k2, p3_system.k3) == (1.0, 0.0, 1.0)
    assert p3_system.existence_margin == pytest.approx(3.0)


def test_gradient_exponent_gate():
    with pytest.raises(GradientExponentTooLarge):
        system_from_config(make_config(p=2, alpha=1.0, g1=[[1, 0]], g3=[[1, 0]]))
    with pytest.raises(GradientExponentTooLarge):
        system_from_config(make_config(p=2, alpha=1.5, g1=[[1, 0]], g3=[[1, 0]]))
    # strictly below the threshold is fine
    system_from_config(make_config(p=2, alpha=0.999, g1=[[1, 0]], g3=[[1, 0]], g2=[[1, 0]]))


def test_existence_gate_boundary_is_rejected():
    # p=3, alpha=0, k2=0: threshold at k1*k3 = 4; equality must reject
    with pytest.raises(ExistenceConditionViolated):
        system_from_config(make_config(g1=[[1.0, 2.0]], g3=[[1.0, 2.0]]))
    ok = system_from_config(make_config(g1=[[1.0, 2.0]], g3=[[1.0, 1.99]]))
    assert ok.existence_margin > 0


def test_existence_gate_grid_follows_strict_inequality():
    """Exact-arithmetic 3x3 grid around the threshold (p-1-alpha)(p-1-k2) = 1."""
    decisions = {}
    for k1 in (0.5, 1.0, 2.0):
        for k3 in (0.5, 1.0, 2.0):
            cfg = make_config(
                p=2.5, alpha=0.5, g1=[[1.0, k1]], g2=[[1.0, 0.5]], g3=[[1.0, k3]]
            )
            try:
                system_from_config(cfg)
                decisions[(k1, k3)] = "accept"
            except ExistenceConditionViolated:
                decisions[(k1, k3)] = "reject"
    for (k1, k3), outcome in decisions.items():
        # (p-1-alpha) and (p-1-k2) are both exactly 1.0 here
        expected = "accept" if k1 * k3 < 1.0 else "reject"
        assert outcome == expected, f"k1={k1}, k3={k3}"


def test_constant_couplings_are_accepted(poisson_system):
    assert poisson_system.g1.degree == 0.0 and poisson_system.g2.degree == 0.0
    assert poisson_system.existence_margin == 1.0


def test_direct_construction_equivalent_to_config_path(p3_system):
    f = CoefficientFunction.pure_power()
    direct = ValidatedSystem(
        p=3.0,
        n=3,
        alpha=0.0,
        f1=f,
        f2=f,
        g1=Nonlinearity.pure_power(1.0),
        g2=Nonlinearity.pure_power(0.0),
        g3=Nonlinearity.pure_power(1.0),
        r_max=1000.0,
    )
    assert direct == p3_system
    assert direct.delta == p3_system.delta
    assert direct.existence_margin == p3_system.existence_margin


def test_system_from_config_reports_missing_and_malformed_fields():
    cfg = dict(POISSON_CONFIG)
    del cfg["g3"]
    with pytest.raises(ValueError, match="g3"):
        system_from_config(cfg)
    with pytest.raises(ValueError, match="f1"):
        system_from_config(make_config(f1=[]))
    with pytest.raises(ValueError, match="f2"):
        system_from_config(make_config(f2=[[1.0]]))
    with pytest.raises(ValueError):
        system_from_config(make_config(n="three"))


@pytest.mark.parametrize(
    "field, value",
    [("r_max", 10**400), ("n", 10**400), ("f1", [[10**400, 0]]), ("g2", [[1, 10**400]])],
    ids=["r_max", "n", "f1-coefficient", "g2-exponent"],
)
def test_system_from_config_names_an_int_too_large_for_a_float(field, value):
    with pytest.raises(ValueError, match=f"config field '{field}' is an integer too large for a float"):
        system_from_config(make_config(**{field: value}))


@pytest.mark.parametrize(
    "field, value",
    [("p", math.inf), ("p", math.nan), ("alpha", math.nan), ("alpha", math.inf), ("r_max", math.inf)],
)
def test_params_reject_nonfinite_scalars(field, value):
    """Every comparison with NaN is false, so each range check is written to fail on it."""
    scalars = dict(p=3.0, n=3, alpha=0.0, r_max=1.0)
    scalars[field] = value
    with pytest.raises(ValueError, match="must be a finite number"):
        constant_system(**scalars)


@pytest.mark.parametrize("expo", [math.nan, math.inf])
def test_power_sums_reject_nonfinite_exponents(expo):
    with pytest.raises(ValueError, match="must be a finite number"):
        CoefficientFunction(((1.0, expo),))
    with pytest.raises(MalformedNonlinearity, match="must be a finite number"):
        Nonlinearity(((1.0, expo),))

