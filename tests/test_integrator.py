"""Integration: startup, stepping in log variables, error control, consistency."""

from __future__ import annotations

import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from plap import (
    CoefficientFunction,
    Nonlinearity,
    Overflow,
    StepSizeUnderflow,
    ValidatedSystem,
    flux_consistency,
    flux_rhs,
    geometric_grid,
    integrate_fixed_grid,
    integrate_radial,
    startup_state,
    system_from_config,
)
from plap import integrator
from plap.integrator import _DP_A, _DP_C, _DP_ERR, _step_loop, dormand_prince_step
from conftest import MULTI_TERM_CONFIG, P3_CONFIG, POISSON_CONFIG, sample_integration_system


# ---------------------------------------------------------------------------
# Output grid
# ---------------------------------------------------------------------------


def test_geometric_grid_endpoints_and_density():
    grid = geometric_grid(1e-6, 100.0, points_per_decade=64)
    assert grid[0] == 1e-6 and grid[-1] == 100.0
    assert len(grid) == math.ceil(8 * 64) + 1
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


def test_default_grids_are_shared_and_read_only(poisson_system):
    first = integrate_radial(poisson_system, 1.0, 1.0, r_max=10.0)
    second = integrate_radial(poisson_system, 2.0, 0.5, tol=1e-6, r_max=10.0)
    assert first.r is second.r is geometric_grid(1e-6, 10.0, 64)
    assert not first.r.flags.writeable
    with pytest.raises(ValueError):
        first.r[0] = 0.5


def test_geometric_grid_rejects_bad_ranges():
    with pytest.raises(ValueError):
        geometric_grid(1.0, 1.0)
    with pytest.raises(ValueError):
        geometric_grid(-1.0, 10.0)


# ---------------------------------------------------------------------------
# Startup state at the inner radius
# ---------------------------------------------------------------------------


def _leading_order_oracle(system, b, r0):
    """P(r0) and S(r0) as quadratures of the leading-order integrands.

    v is held at b.  S's integrand is s^(n-1) f2(s) g3(u'(s)) with u'(s)
    taken from the leading-order first flux P(s) at every s, not frozen at
    u'(r0).  ``epsabs=0``: the fluxes lie far below quad's default absolute
    tolerance.
    """
    p, n, alpha, delta = system.p, system.n, system.alpha, system.delta
    coef = (p - 1 - alpha) / (p - 1) * system.g1(b)

    def flux(s):
        return coef * sum(c * s ** (delta + m + 1) / (delta + m + 1) for c, m in system.f1.terms)

    def gradient(s):
        return (flux(s) / s**delta) ** (1 / (p - 1 - alpha))

    P_ref = coef * quad(lambda s: s**delta * system.f1(s), 0.0, r0, epsabs=0, epsrel=1e-13)[0]
    S_ref = quad(lambda s: s ** (n - 1) * system.f2(s) * system.g3(gradient(s)), 0.0, r0, epsabs=0, epsrel=1e-13)[0]
    return P_ref, system.g2(b) * S_ref


def test_startup_matches_quadrature_oracle():
    """A multi-term f1: u' is a power law only to leading order, so the
    exponent taken at r0 leaves an error in S that grows with r0 (4.8e-11
    at 1e-6, 2.5e-7 at 3e-4); freezing g3 at u'(r0) is 11% off."""
    system = system_from_config(MULTI_TERM_CONFIG)
    p, n, alpha, delta = system.p, system.n, system.alpha, system.delta
    b = 1.7
    for r0, S_limit in ((1e-6, 1e-10), (3e-4, 1e-6)):
        st = startup_state(system, 1.2, b, r0)
        P_ref, S_ref = _leading_order_oracle(system, b, r0)
        assert st.P == pytest.approx(P_ref, rel=1e-12, abs=0)
        assert abs(st.S / S_ref - 1.0) <= S_limit
        assert st.u == 1.2 and st.v == b
        assert st.du == pytest.approx((st.P / r0**delta) ** (1 / (p - 1 - alpha)), rel=1e-15, abs=0)
        assert st.dv == pytest.approx((st.S / r0 ** (n - 1)) ** (1 / (p - 1)), rel=1e-15, abs=0)


@pytest.mark.parametrize(
    "config",
    [P3_CONFIG, dict(P3_CONFIG, g3=[[0.5, 0.25], [1.0, 1.0]])],
    ids=["coupled_p3", "two_term_g3"],
)
@pytest.mark.parametrize("r0", [1e-6, 3e-4])
def test_startup_second_flux_is_the_leading_order_integral(config, r0):
    """A pure-power f1 makes u' an exact power law at leading order, so S(r0)
    is its integral to rounding; freezing g3 at u'(r0) makes it 7/6 too
    large on coupled_p3."""
    system = system_from_config(config)
    st = startup_state(system, 1.0, 1.0, r0)
    P_ref, S_ref = _leading_order_oracle(system, 1.0, r0)
    assert st.P == pytest.approx(P_ref, rel=1e-12, abs=0)
    assert st.S == pytest.approx(S_ref, rel=1e-12, abs=0)


def test_startup_gradient_scaling_under_radius_halving():
    """u'(r0) ~ r0^((m_min+1)/(p-1-alpha)) near the origin."""
    system = system_from_config(MULTI_TERM_CONFIG)
    p, alpha = system.p, system.alpha
    st1 = startup_state(system, 1.2, 1.7, 1e-6)
    st2 = startup_state(system, 1.2, 1.7, 5e-7)
    m_min = system.f1.terms[0][1]
    expected = 2.0 ** (-(m_min + 1.0) / (p - 1.0 - alpha))
    assert st2.du / st1.du == pytest.approx(expected, rel=1e-8)


def test_startup_poisson_exact(poisson_system):
    """Constant weights integrate exactly: P = r^3/3, u' = r/3."""
    st = startup_state(poisson_system, 1.0, 1.0, 1e-6)
    assert st.P == pytest.approx((1e-6) ** 3 / 3.0, rel=1e-15, abs=0)
    assert st.du == pytest.approx(1e-6 / 3.0, rel=1e-15, abs=0)


def test_startup_rejects_nonpositive_inputs(poisson_system):
    with pytest.raises(ValueError):
        startup_state(poisson_system, 0.0, 1.0, 1e-6)
    with pytest.raises(ValueError):
        startup_state(poisson_system, 1.0, -1.0, 1e-6)
    with pytest.raises(ValueError):
        startup_state(poisson_system, 1.0, 1.0, 0.0)
    # infinite initial data is invalid input, not a state that overflows
    with pytest.raises(ValueError, match="initial data must be finite"):
        startup_state(poisson_system, math.inf, 1.0, 1e-6)
    with pytest.raises(ValueError, match="initial data must be finite"):
        startup_state(poisson_system, 1.0, math.inf, 1e-6)


# ---------------------------------------------------------------------------
# Single embedded step and fixed-grid order
# ---------------------------------------------------------------------------


def test_embedded_step_error_estimate_on_scalar_problem():
    """y' = y from y(0)=1: one step must beat its own error estimate's order."""
    f = lambda r, y: y
    y0 = np.array([1.0])
    for h in (0.1, 0.05):
        y5, err, _ = dormand_prince_step(f, 0.0, y0, h, f(0.0, y0))
        true_err = abs(y5[0] - math.exp(h))
        assert true_err < 1e-8 * h  # fifth order leaves almost nothing at h=0.1
        assert abs(err[0]) < 1e-4  # estimate is of the lower-order defect size
        assert true_err < abs(err[0])  # estimate is conservative here


def test_fixed_grid_reproduces_polynomial_flux_exactly(poisson_system):
    """Constant-weight fluxes are low-degree polynomials in r; the stage
    quadratures of the embedded pair integrate them without truncation error,
    so the classical solution u = 1 + r^2/6 is reproduced to rounding on any
    step size."""
    f = flux_rhs(poisson_system)
    r_start = 0.25
    base = 1.0 + r_start**2 / 6.0
    y0 = np.array([base, base, r_start**3 / 3.0, r_start**3 / 3.0])
    for n_steps in (4, 64):
        ys = integrate_fixed_grid(f, np.linspace(r_start, 1.0, n_steps + 1), y0)
        assert abs(ys[-1][0] - 7.0 / 6.0) < 1e-13


def test_fixed_grid_self_convergence_order(poisson_system):
    """Order study on the same right-hand side with perturbed initial fluxes.

    The perturbation adds a smooth 1/r^2 component to the gradients, so the
    solution is no longer a polynomial and the truncation error is visible;
    successive step halvings must then contract at fifth order (>= 4 within
    measurement noise)."""
    f = flux_rhs(poisson_system)
    r_start = 0.25
    base = 1.0 + r_start**2 / 6.0
    y0 = np.array([base, base, 1.05 * r_start**3 / 3.0, 1.05 * r_start**3 / 3.0])
    finals = []
    sizes = (8, 16, 32, 64, 128)
    for n_steps in sizes:
        ys = integrate_fixed_grid(f, np.linspace(r_start, 1.0, n_steps + 1), y0)
        finals.append(ys[-1][0])
    diffs = np.abs(np.diff(finals))
    assert np.all(diffs[:-1] > 0)
    orders = np.log2(diffs[:-1] / diffs[1:])
    assert np.all(orders >= 4.0), f"observed orders {orders}"


def test_fixed_grid_on_one_component_problem():
    """y' = y on [0, 1]: the stepper generated for one component."""
    f = lambda r, y: (y[0],)
    ys = integrate_fixed_grid(f, np.linspace(0.0, 1.0, 21), [1.0])
    assert ys.shape == (21, 1)
    assert abs(ys[-1, 0] - math.e) < 1e-8


# ---------------------------------------------------------------------------
# Adaptive integration on the reference systems
# ---------------------------------------------------------------------------


def test_poisson_value_and_curve(poisson_traj):
    r = poisson_traj.r
    exact = 1.0 + r**2 / 6.0
    i1 = int(np.argmin(np.abs(r - 1.0)))
    assert r[i1] == pytest.approx(1.0, rel=1e-12)
    assert abs(poisson_traj.u[i1] - 7.0 / 6.0) < 1e-9
    assert np.max(np.abs(poisson_traj.u / exact - 1.0)) < 1e-10
    assert np.max(np.abs(poisson_traj.v / exact - 1.0)) < 1e-10
    assert np.max(np.abs(poisson_traj.du - r / 3.0)) < 1e-10


def test_trajectory_state_accessors(poisson_traj):
    assert len(poisson_traj) == len(poisson_traj.r)


def assert_trajectory_increasing(traj):
    """u, v never decrease (increments can round to zero near the origin,
    where they sit far below the resolution of values close to 1); the
    gradients and fluxes carry no additive offset and must grow strictly."""
    for name in ("u", "v"):
        series = getattr(traj, name)
        assert np.all(series > 0.0), name
        assert np.all(np.diff(series) >= 0.0), f"{name} must not decrease"
        resolved = traj.r >= 1e-2
        assert np.all(np.diff(series[resolved]) > 0.0), f"{name} flat at large r"
    for name in ("du", "dv", "P", "S"):
        series = getattr(traj, name)
        assert np.all(series > 0.0), name
        assert np.all(np.diff(series) > 0.0), f"{name} must increase"


def test_trajectory_monotone_increasing_components(p3_traj):
    assert_trajectory_increasing(p3_traj)


def test_monotonicity_holds_on_random_systems():
    rng = np.random.default_rng(42)
    for _ in range(5):
        system, _ = sample_integration_system(rng)
        traj = integrate_radial(system, 1.0, 1.0, tol=1e-9, r_max=100.0)
        assert_trajectory_increasing(traj)


def test_gradient_columns_consistent_with_value_columns(p3_traj):
    """Finite differences of u on the output grid approximate the stored u'."""
    r, u, du = p3_traj.r, p3_traj.u, p3_traj.du
    window = (r > 1e-3) & (r < 500.0)
    fd = np.gradient(u, r)
    rel = np.abs(fd[window] / du[window] - 1.0)
    assert np.max(rel) < 5e-3  # second-order differencing on 64 pts/decade


def test_tolerance_controls_agreement():
    system = system_from_config(
        {
            "p": 3,
            "n": 3,
            "alpha": 0,
            "r_max": 10.0,
            "f1": [[1.0, 0.0]],
            "f2": [[1.0, 0.0]],
            "g1": [[1.0, 1.0]],
            "g2": [[1.0, 0.0]],
            "g3": [[1.0, 1.0]],
        }
    )
    loose = integrate_radial(system, 1.0, 1.0, tol=1e-6)
    tight = integrate_radial(system, 1.0, 1.0, tol=1e-9)
    rel = abs(loose.u[-1] / tight.u[-1] - 1.0)
    assert rel < 1e-5
    assert loose.meta["steps_accepted"] < tight.meta["steps_accepted"]


def test_integrate_radial_validates_inputs(poisson_system):
    with pytest.raises(ValueError):
        integrate_radial(poisson_system, 1.0, 1.0, tol=1e-2)
    with pytest.raises(ValueError):
        integrate_radial(poisson_system, 1.0, 1.0, tol=1e-14)
    with pytest.raises(ValueError):
        integrate_radial(poisson_system, -1.0, 1.0)


def test_integrate_radial_meta(poisson_traj):
    meta = poisson_traj.meta
    assert meta["a"] == 1.0 and meta["b"] == 1.0
    assert meta["rtol"] == 1e-9
    assert meta["r0"] == pytest.approx(1e-6)
    assert meta["steps_accepted"] > 0


def _counting_flux_rhs(monkeypatch):
    """Wrap the callables ``plap.integrator.flux_rhs`` hands out; return the call log."""
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


def test_meta_counts_rhs_evaluations(monkeypatch, p3_system):
    calls = _counting_flux_rhs(monkeypatch)
    rejected = 0
    # the second run rejects steps, which cost six evaluations each as well
    for tol, ppd in ((1e-9, 64), (1e-6, 1)):
        calls.clear()
        meta = integrate_radial(p3_system, 1.0, 1.0, tol, r_max=1e4, points_per_decade=ppd).meta
        steps = meta["steps_accepted"] + meta["steps_rejected"]
        assert meta["rhs_evals"] == len(calls) == 1 + 6 * steps
        rejected += meta["steps_rejected"]
    assert rejected > 0


def test_meta_records_rejections_by_cause(p3_system):
    meta = integrate_radial(p3_system, 1.0, 1.0, 1e-6, r_max=1e4, points_per_decade=1).meta
    causes = meta["rejections"]
    assert set(causes) == {"error", "nonfinite"}
    assert sum(causes.values()) == meta["steps_rejected"] > 0
    assert causes["error"] > 0


def _seventh_power_drop(r, y):
    """y' = -7 r^6, so y = 1 - r^7 from y(0) = 1."""
    r3 = r * r * r
    return [-7.0 * r3 * r3]


def _burst(r, y):
    """y' = 3000 y (1.1 - r) / r up to r = 1.1, then y' = 0."""
    return [3000.0 * y[0] * max(0.0, 1.1 - r) / r]


@pytest.mark.parametrize(
    "f, grid, y0, expected",
    [
        # positivity without a reject branch: one step of log r =
        # log(1 - 1e-6) - log(0.5) overshoots the root of 1 - r^7 in flux
        # form; in log variables it lands on a positive state, unrejected
        (_seventh_power_drop, [0.5, 1.0 - 1e-6], 1.0 - 0.5**7, (1, 0)),
        # a whole unit of log r puts stage 5 at log y = 886, past the range of
        # floats: one non-finite rejection, then two steps
        (_burst, [1.0, math.e], 1.0, (2, 1)),
    ],
    ids=["overshoot", "nonfinite"],
)
def test_rejection_causes_on_overshooting_first_step(f, grid, y0, expected):
    """A huge tolerance keeps the error estimate out of the decision.  No
    state can leave (0, inf) in log variables, so nothing is rejected on
    positivity; a stage that leaves the range of floats is a non-finite
    rejection, never an exception."""
    ys, accepted, rejections, *_ = _step_loop(f, np.array(grid), [y0], 1e6)
    assert (accepted, rejections) == (expected[0], {"error": 0, "nonfinite": expected[1]})
    assert 0.0 < ys[-1, 0] < math.inf


def test_benchmark_hooks_accept_numpy_states(monkeypatch, p3_system):
    """The benchmark calls the public stepper pieces on ndarray states and
    counts evaluations by patching ``plap.integrator.flux_rhs``."""
    f = flux_rhs(p3_system)
    y = np.array([1.0, 1.0, 1e-6, 2e-6])
    assert f(0.5, y) == f(0.5, y.tolist())
    y5, err, k7 = dormand_prince_step(f, 0.5, y, 1e-3)
    assert (y5, err, k7) == dormand_prince_step(f, 0.5, y.tolist(), 1e-3)
    assert len(y5) == len(err) == len(k7) == 4
    calls = _counting_flux_rhs(monkeypatch)
    integrate_radial(p3_system, 1.0, 1.0, r_max=10.0)
    assert len(calls) > 0


# ---------------------------------------------------------------------------
# Bit identity with the numpy references, accuracy against DOP853
# ---------------------------------------------------------------------------


def _reference_rhs(system):
    """``flux_rhs`` as written by hand, calling the system's power sums."""
    p, n, alpha, delta = system.p, system.n, system.alpha, system.delta
    inv_grad = 1.0 / (p - 1.0 - alpha)
    inv_p1 = 1.0 / (p - 1.0)
    coef = (p - 1.0 - alpha) / (p - 1.0)
    n1 = float(n - 1)

    def rhs(r, y):
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
            coef * rd * system.f1(r) * system.g1(v),
            rn * system.f2(r) * system.g2(v) * system.g3(du),
        )

    return rhs


def _bits(values):
    """The IEEE bits of a float sequence: -0.0 differs from 0.0, and NaN equals NaN."""
    return struct.pack(f"<{len(values)}d", *values)


_COEFFS = st.just(1.0) | st.floats(min_value=1e-3, max_value=1e100)


@st.composite
def _admissible_systems(draw):
    """Systems with 1-3 terms per law, constant laws and coefficients up to 1e100."""
    p = draw(st.floats(min_value=1.2, max_value=4.0))
    alpha = (p - 1.0) * draw(st.floats(min_value=0.0, max_value=0.95))
    k2 = (p - 1.0) * draw(st.just(0.0) | st.floats(min_value=0.01, max_value=0.9))
    k1, k3 = (draw(st.just(0.0) | st.floats(min_value=0.01, max_value=3.0)) for _ in range(2))
    budget = (p - 1.0 - alpha) * (p - 1.0 - k2)
    if k1 * k3 >= budget:
        k3 = 0.9 * budget / k1

    def law(degree):
        if degree == 0.0:
            return Nonlinearity.pure_power(0.0)
        lower = draw(st.lists(st.tuples(_COEFFS, st.floats(min_value=0.0, max_value=0.95)), max_size=2))
        return Nonlinearity(tuple((c, degree * frac) for c, frac in lower) + ((1.0, degree),))

    weight = st.lists(st.tuples(_COEFFS, st.floats(min_value=0.0, max_value=3.0)), min_size=1, max_size=3)
    return ValidatedSystem(
        p=p,
        n=draw(st.integers(min_value=2, max_value=5)),
        alpha=alpha,
        f1=CoefficientFunction(tuple(draw(weight))),
        f2=CoefficientFunction(tuple(draw(weight))),
        g1=law(k1),
        g2=law(k2),
        g3=law(k3),
        r_max=1.0,
    )


def _outcome(f, r, y):
    try:
        return _bits(f(r, y))
    except ArithmeticError as exc:
        return type(exc)


_SIGNED = st.floats(min_value=-1e3, max_value=1e3) | st.sampled_from([0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(
    system=_admissible_systems(),
    r=st.floats(min_value=1e-6, max_value=1e4),
    u=st.floats(min_value=0.0, max_value=1e6),
    v=st.floats(min_value=-10.0, max_value=1e6) | st.sampled_from([0.0, -0.0]),
    P=_SIGNED,
    S=_SIGNED,
)
def test_generated_rhs_matches_power_sum_rhs_bit_for_bit(system, r, u, v, P, S):
    """States include v < 0 (clamped), P <= 0 and S <= 0 (zero gradients)."""
    expected = _outcome(_reference_rhs(system), r, [u, v, P, S])
    f = flux_rhs(system)
    assert _outcome(f, r, [u, v, P, S]) == expected
    assert _outcome(f, r, np.array([u, v, P, S])) == expected


@pytest.mark.parametrize("dim", [1, 2, 4, 7])
def test_stepper_matches_numpy_reference_in_any_dimension(dim):
    def f(r, y):
        return [r * y[(m + 1) % dim] - 0.3 * y[m] * y[m] + 0.1 * m for m in range(dim)]

    y = np.linspace(0.5, 1.5, dim)
    for h in (1e-3, 0.25):
        expected = _reference_step(f, 0.7, y, h, np.asarray(f(0.7, y)))
        for k1 in (None, f(0.7, y.tolist())):
            got = dormand_prince_step(f, 0.7, y, h, k1)
            assert [_bits(part) for part in got] == [_bits(part) for part in expected]


def _reference_step(f, r, y, h, k1):
    k = [k1]
    for i in range(1, 7):
        acc = _DP_A[i][0] * k[0]
        for j in range(1, i):
            if _DP_A[i][j] != 0.0:
                acc = acc + _DP_A[i][j] * k[j]
        y_new = y + h * acc
        k.append(np.asarray(f(r + _DP_C[i] * h, y_new), dtype=float))
    err = _DP_ERR[0] * k[0]
    for j in range(1, 7):
        if _DP_ERR[j] != 0.0:
            err = err + _DP_ERR[j] * k[j]
    return y_new, h * err, k[6]


def _log_rates(f, r, logs):
    """r f(r, x) / x at x = exp(logs), as the step loop forms them: NaN where
    ``exp`` overflows or a state that underflowed to 0 is divided by."""
    try:
        x = [math.exp(v) for v in logs]
    except OverflowError:
        x = [math.nan] * len(logs)
    try:
        return np.array([r * d / v for d, v in zip(f(r, x), x)])
    except (OverflowError, ZeroDivisionError):
        return np.full(len(logs), math.nan)


def _reference_propagate(f, grid, y0, tol):
    """The step loop on numpy arrays: log y against log r, landing on every grid radius."""
    times = np.log(np.asarray(grid, dtype=float))
    x = np.asarray(y0, dtype=float)
    y = np.array([math.log(v) if v != 0.0 else -math.inf for v in x])
    out = np.empty((len(grid), len(y)))
    out[0] = x
    r, t = float(grid[0]), float(times[0])

    def rates(t, logs):
        return _log_rates(f, math.exp(t), logs)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = rates(t, y)
        h = float(times[1] - times[0])
        accepted = rejected = 0
        for i in range(1, len(grid)):
            target = float(times[i])
            while (remaining := target - t) > abs(t) * 1e-15:
                h_try = min(h, remaining)
                y_new, err, k_last = _reference_step(rates, t, y, h_try, k1)
                enorm = math.inf
                if np.all(np.isfinite(y_new)) and np.all(np.isfinite(err)):
                    enorm = float(np.max(np.abs(err))) / tol
                if enorm <= 1.0:
                    if h_try == remaining:
                        r, t = float(grid[i]), target
                    else:
                        r, t = math.exp(t + h_try), t + h_try
                    y, k1, x = y_new, k_last, np.array([math.exp(v) for v in y_new])
                    accepted += 1
                    if np.any(y > math.log(1e250)):
                        raise Overflow(r)
                    h = h_try * max(0.2, 5.0 if enorm == 0.0 else min(5.0, 0.8 * enorm**-0.2))
                else:
                    rejected += 1
                    h = h_try * (max(0.1, 0.8 * enorm**-0.2) if math.isfinite(enorm) else 0.2)
                    if h < 1e-14:
                        raise (StepSizeUnderflow if np.all(y <= math.log(1e200)) else Overflow)(r)
            out[i] = x
    return out, accepted, rejected


def _reference_trajectory(system, tol, r_max, points_per_decade):
    """States, accepted and rejected steps of ``integrate_radial(system, 1, 1, ...)`` from the numpy loop."""
    grid = geometric_grid(1e-6 * min(1.0, r_max), r_max, points_per_decade)
    start = startup_state(system, 1.0, 1.0, float(grid[0]))
    return _reference_propagate(_reference_rhs(system), grid, [start.u, start.v, start.P, start.S], tol)


def _dop853_states(system, grid):
    """(u, v, P, S) on ``grid`` from scipy's DOP853 at rtol 1e-13, on ``_reference_rhs``."""
    start = startup_state(system, 1.0, 1.0, float(grid[0]))
    y0 = np.array([start.u, start.v, start.P, start.S])
    sol = solve_ivp(
        _reference_rhs(system), (grid[0], grid[-1]), y0, method="DOP853", rtol=1e-13, atol=1e-16 * y0, t_eval=grid
    )
    assert sol.status == 0
    return sol.y


@pytest.mark.parametrize(
    "config, tol, r_max, points_per_decade, limit",
    [
        # the flux form integrated Poisson's polynomial fluxes exactly (8.7e-15);
        # in log variables the 64-per-decade grid sets the step, and the error
        # falls as h^5 (1.2e-12 at 128 per decade), whatever the tolerance
        (POISSON_CONFIG, 1e-9, 100.0, 64, 4e-11),
        (P3_CONFIG, 1e-9, 1e4, 64, 3.4e-10),
        (MULTI_TERM_CONFIG, 1e-9, 10.0, 64, 6e-10),
        (P3_CONFIG, 1e-6, 1e4, 1, 7.8e-7),  # rejects steps
        (dict(P3_CONFIG, g2=[[1.0, -0.0]]), 1e-9, 100.0, 64, 3.3e-10),
    ],
    ids=["poisson", "coupled_p3", "multi_term", "rejections", "negative_zero_exponent"],
)
def test_step_loop_accuracy_against_dop853(config, tol, r_max, points_per_decade, limit):
    """Largest relative error of u, v, P and S on the output grid, no larger
    than the flux-form loop's on the same case, except on Poisson."""
    system = system_from_config(config)
    traj = integrate_radial(system, 1.0, 1.0, tol, r_max=r_max, points_per_decade=points_per_decade)
    ours = np.vstack([traj.u, traj.v, traj.P, traj.S])
    err = float(np.max(np.abs(ours / _dop853_states(system, traj.r) - 1.0)))
    assert err < limit, f"rel err {err:.3e}"
    if points_per_decade == 1:
        assert traj.meta["steps_rejected"] > 0


def test_step_count_on_tight_coarse_run(p3_system):
    """Error control, not the 8-per-decade grid, sets the steps here."""
    meta = integrate_radial(p3_system, 1.0, 1.0, 1e-12, r_max=1e4, points_per_decade=8).meta
    assert meta["steps_accepted"] + meta["steps_rejected"] <= 950


def test_one_point_per_decade_keeps_stages_in_range():
    """The first step spans a decade.  From the exact leading-order start no
    stage leaves the range of floats; a start with g3 frozen at u'(r0) sets
    off a transient that pushes one out on coupled_p3.  The non-finite
    rejection itself is covered by
    ``test_rejection_causes_on_overshooting_first_step``."""
    for config in (P3_CONFIG, POISSON_CONFIG):
        system = system_from_config(config)
        meta = integrate_radial(system, 1.0, 1.0, 1e-9, r_max=1e4, points_per_decade=1).meta
        assert meta["rejections"]["nonfinite"] == 0


# p - 1 - alpha = 0.02: the startup gradient underflows at r0 = 1e-6
NEAR_ALPHA_CONFIG = dict(P3_CONFIG, alpha=1.98, r_max=1e4, g1=[[1.0, 0.001]], g3=[[1.0, 0.001]])


def test_step_loop_matches_numpy_reference_on_underflow():
    system = system_from_config(NEAR_ALPHA_CONFIG)
    with pytest.raises(StepSizeUnderflow) as expected:
        _reference_trajectory(system, 1e-9, 1e4, 64)
    with pytest.raises(StepSizeUnderflow) as info:
        integrate_radial(system, 1.0, 1.0, 1e-9, r_max=1e4)
    assert info.value.radius == expected.value.radius


def _toy_rates(dim, drift=False):
    """A coupled toy system; ``drift`` drives the last component to zero."""

    def f(r, y):
        rates = [0.5 * y[(m + 1) % dim] - 0.05 * y[m] * y[m] + 0.1 * m * r for m in range(dim)]
        if drift:
            rates[-1] = -1.0
        return rates

    return f


@pytest.mark.parametrize("dim", [1, 2, 4, 7])
def test_step_loop_matches_numpy_reference_in_any_dimension(dim):
    """The loop is generated per dimension; each one is the reference loop."""
    y0 = np.linspace(0.5, 1.5, dim)
    f = _toy_rates(dim)
    # the coarse grid's first steps are too long and rejected on the error
    for grid, tol in ((np.linspace(1.0, 5.0, 41), 1e-12), (np.array([1.0, 3.0, 7.0]), 1e-7)):
        expected, accepted, rejected = _reference_propagate(f, grid, y0, tol)
        ys, got_accepted, rejections, *_ = _step_loop(f, grid, y0, tol)
        assert np.array_equal(ys, expected)
        assert (got_accepted, sum(rejections.values())) == (accepted, rejected)
        assert rejected > 0
    # the last component reaches zero at r = 1 + y0[-1]: the step shrinks to underflow
    drift, grid = _toy_rates(dim, drift=True), np.array([1.0, 4.0])
    with pytest.raises(StepSizeUnderflow) as expected_failure:
        _reference_propagate(drift, grid, y0, 1e-10)
    with pytest.raises(StepSizeUnderflow) as failure:
        _step_loop(drift, grid, y0, 1e-10)
    assert failure.value.radius == expected_failure.value.radius


def test_step_size_record_on_known_steps():
    """y = r^2 is a straight line in log variables, so the error estimate is
    at rounding level and each step in log r is five times the last unless
    it lands on the grid: 1, 0.5 (lands), 2.5 and 6.  The record is in r."""
    grid = np.exp([0.0, 1.0, 1.5, 10.0])
    _, accepted, _, h_min, h_max, r_at_h_min = _step_loop(lambda r, y: [2.0 * y[0] / r], grid, [1.0], 1e-9)
    assert accepted == 4 and r_at_h_min == 1.0
    assert h_min == pytest.approx(math.e - 1.0, rel=1e-12)
    assert h_max == pytest.approx(grid[-1] - math.exp(4.0), rel=1e-12)


def test_step_size_record_in_meta(p3_system):
    for ppd in (64, 1):  # the second run rejects steps
        traj = integrate_radial(p3_system, 1.0, 1.0, 1e-6, r_max=1e4, points_per_decade=ppd)
        meta = traj.meta
        assert 0.0 < meta["h_min"] <= meta["h_max"] < traj.r[-1]
        assert traj.r[0] <= meta["r_at_h_min"] < traj.r[-1]


@pytest.mark.parametrize(
    "config, failure",
    [
        (NEAR_ALPHA_CONFIG, StepSizeUnderflow),
        (dict(P3_CONFIG, r_max=100.0, f2=[[1e300, 0.0]]), Overflow),
    ],
    ids=["underflow", "huge_weight"],
)
def test_failures_carry_last_state_and_step(config, failure):
    """Both fail before any step is accepted, so the state is the startup state."""
    system = system_from_config(config)
    r0 = 1e-6 * min(1.0, config["r_max"])
    with pytest.raises(failure) as info:
        integrate_radial(system, 1.0, 1.0, 1e-9, r_max=config["r_max"])
    exc = info.value
    start = startup_state(system, 1.0, 1.0, r0)
    assert exc.radius == r0
    assert exc.state == (start.u, start.v, start.P, start.S)
    assert all(type(x) is float for x in exc.state)
    # the last attempted step, which the controller then shrank below 1e-14 * r
    assert 0.1 * exc.h < 1e-14 * exc.radius <= exc.h
    what = "step size underflow" if failure is StepSizeUnderflow else "state overflow"
    assert str(exc) == f"{what} at r={exc.radius!r}"
    assert exc.args == (str(exc),)
    copy = pickle.loads(pickle.dumps(exc))
    assert (type(copy), copy.radius, copy.state, copy.h, str(copy)) == (failure, r0, exc.state, exc.h, str(exc))


@pytest.mark.parametrize(
    "override",
    [
        dict(f1=[[math.inf, 0.0]]),
        dict(g1=[[math.nan, 0.5], [1.0, 1.0]]),
        dict(f2=[[1e300, 0.0]]),
    ],
    ids=["infinite_weight", "nan_growth_term", "huge_weight"],
)
def test_nonfinite_and_extreme_parameters_overflow_at_startup(override):
    system = system_from_config(dict(P3_CONFIG, r_max=100.0, **override))
    with pytest.raises(Overflow) as expected:
        _reference_trajectory(system, 1e-9, 100.0, 64)
    with pytest.raises(Overflow) as info:
        integrate_radial(system, 1.0, 1.0, 1e-9, r_max=100.0)
    assert info.value.radius == expected.value.radius == 1e-6


# ---------------------------------------------------------------------------
# Failure taxonomy
# ---------------------------------------------------------------------------


def test_overflow_reports_radius():
    system = system_from_config(
        {
            "p": 2,
            "n": 3,
            "alpha": 0,
            "r_max": 1e9,
            "f1": [[1.0, 30.0]],
            "f2": [[1.0, 0.0]],
            "g1": [[1.0, 0.0]],
            "g2": [[1.0, 0.0]],
            "g3": [[1.0, 0.0]],
        }
    )
    with pytest.raises(Overflow) as info:
        integrate_radial(system, 1.0, 1.0, tol=1e-5, r_max=1e9)
    # u ~ r^32/1056 crosses the overflow guard around r ~ 4e7
    assert 1e6 < info.value.radius < 1e9
    assert isinstance(info.value, RuntimeError)
    # raised on accepting the state that crossed it
    state = info.value.state
    assert len(state) == 4 and all(map(math.isfinite, state))
    assert max(map(abs, state)) > 1e250
    assert 0.0 < info.value.h < info.value.radius


def test_underflow_when_positivity_cannot_be_maintained():
    """A forced negative drift rejects every step; h collapses to underflow."""
    f = lambda r, y: np.full_like(y, -1e300)
    grid = np.array([1.0, 2.0])
    with pytest.raises(StepSizeUnderflow) as info:
        _step_loop(f, grid, np.ones(4), 1e-9)
    assert info.value.radius == 1.0


def test_underflow_on_vanishing_gradient_scale():
    """Near-critical gradient exponent: u'(r0) underflows to zero, the second
    flux starts at exactly zero, and no positive step exists."""
    system = system_from_config(
        {
            "p": 2,
            "n": 3,
            "alpha": 0.99,
            "r_max": 100.0,
            "f1": [[1.0, 0.0]],
            "f2": [[1.0, 0.0]],
            "g1": [[1.0, 0.05]],
            "g2": [[1.0, 0.0]],
            "g3": [[1.0, 0.1]],
        }
    )
    with pytest.raises(StepSizeUnderflow):
        integrate_radial(system, 1.0, 1.0, tol=1e-9, r_max=100.0)


def test_underflow_on_vanishing_first_flux():
    """The weight r^300 makes P(r0) underflow to 0, so the startup has no
    local exponent to take; the run fails at r0 as StepSizeUnderflow, not
    with a ZeroDivisionError."""
    system = system_from_config(dict(P3_CONFIG, f1=[[1.0, 300.0]]))
    start = startup_state(system, 1.0, 1.0, 1e-6)
    assert start.P == start.S == 0.0
    with pytest.raises(StepSizeUnderflow) as info:
        integrate_radial(system, 1.0, 1.0, tol=1e-9, r_max=10.0)
    assert info.value.radius == 1e-6


def test_underflow_when_the_startup_powers_of_r0_underflow():
    """In dimension 60 both r0^(n-1) and the flux integrals underflow to 0 at
    r0 = 1e-6; the gradients are 0, as ``flux_rhs`` makes them, and the run
    fails at r0 as StepSizeUnderflow, not with a ZeroDivisionError."""
    system = system_from_config(dict(P3_CONFIG, n=60))
    start = startup_state(system, 1.0, 1.0, 1e-6)
    assert start.P == start.S == start.du == start.dv == 0.0
    with pytest.raises(StepSizeUnderflow) as info:
        integrate_radial(system, 1.0, 1.0, tol=1e-9)
    assert info.value.radius == 1e-6


# ---------------------------------------------------------------------------
# Flux consistency (independent quadrature cross-check)
# ---------------------------------------------------------------------------


def test_flux_consistency_reference_runs(poisson_traj, p3_traj, poisson_system, p3_system):
    assert flux_consistency(poisson_traj, poisson_system) < 1e-10
    assert flux_consistency(p3_traj, p3_system) < 1e-6


def test_flux_consistency_detects_corruption(p3_traj, p3_system):
    bent = dataclasses.replace(p3_traj, P=p3_traj.P * 1.001)
    assert flux_consistency(bent, p3_system) > 1e-4
