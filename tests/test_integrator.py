"""Flux-form integration: startup, stepping, error control, consistency."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from plap import (
    Overflow,
    StepSizeUnderflow,
    flux_consistency,
    flux_rhs,
    geometric_grid,
    integrate_fixed_grid,
    integrate_radial,
    startup_state,
    system_from_config,
)
from plap import integrator
from plap.integrator import _DP_A, _DP_C, _DP_ERR, _propagate, dormand_prince_step
from conftest import P3_CONFIG, POISSON_CONFIG, sample_integration_system


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
    # an explicit grid is used as given
    grid = np.geomspace(1e-3, 10.0, 40)
    own = integrate_radial(poisson_system, 1.0, 1.0, grid=grid)
    assert own.r.flags.writeable and np.array_equal(own.r, grid)


def test_geometric_grid_rejects_bad_ranges():
    with pytest.raises(ValueError):
        geometric_grid(1.0, 1.0)
    with pytest.raises(ValueError):
        geometric_grid(-1.0, 10.0)


# ---------------------------------------------------------------------------
# Startup state at the inner radius
# ---------------------------------------------------------------------------


def test_startup_matches_quadrature_oracle():
    system = system_from_config(MULTI_TERM_CONFIG)
    prm = system.params
    p, n, alpha, delta = prm.p, prm.n, prm.alpha, system.delta
    b = 1.7
    for r0 in (1e-6, 3e-4):
        st = startup_state(system, 1.2, b, r0)
        P_ref = (
            (p - 1 - alpha)
            / (p - 1)
            * system.g1(b)
            * quad(lambda s: s**delta * prm.f1(s), 0.0, r0)[0]
        )
        S_ref = (
            system.g2(b)
            * system.g3(st.du)
            * quad(lambda s: s ** (n - 1) * prm.f2(s), 0.0, r0)[0]
        )
        assert st.P == pytest.approx(P_ref, rel=1e-9)
        assert st.S == pytest.approx(S_ref, rel=1e-9)
        assert st.u == 1.2 and st.v == b
        assert st.du == pytest.approx((st.P / r0**delta) ** (1 / (p - 1 - alpha)))
        assert st.dv == pytest.approx((st.S / r0 ** (n - 1)) ** (1 / (p - 1)))


def test_startup_gradient_scaling_under_radius_halving():
    """u'(r0) ~ r0^((m_min+1)/(p-1-alpha)) near the origin."""
    system = system_from_config(MULTI_TERM_CONFIG)
    p, alpha = system.params.p, system.params.alpha
    st1 = startup_state(system, 1.2, 1.7, 1e-6)
    st2 = startup_state(system, 1.2, 1.7, 5e-7)
    m_min = system.params.f1.terms[0][1]
    expected = 2.0 ** (-(m_min + 1.0) / (p - 1.0 - alpha))
    assert st2.du / st1.du == pytest.approx(expected, rel=1e-8)


def test_startup_poisson_exact(poisson_system):
    """Constant weights integrate exactly: P = r^3/3, u' = r/3."""
    st = startup_state(poisson_system, 1.0, 1.0, 1e-6)
    assert st.P == pytest.approx((1e-6) ** 3 / 3.0, rel=1e-15)
    assert st.du == pytest.approx(1e-6 / 3.0, rel=1e-15)


def test_startup_rejects_nonpositive_inputs(poisson_system):
    with pytest.raises(ValueError):
        startup_state(poisson_system, 0.0, 1.0, 1e-6)
    with pytest.raises(ValueError):
        startup_state(poisson_system, 1.0, -1.0, 1e-6)
    with pytest.raises(ValueError):
        startup_state(poisson_system, 1.0, 1.0, 0.0)


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
# Bit identity with the step loop as it ran on numpy arrays
# ---------------------------------------------------------------------------


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


def _reference_propagate(f, grid, y0, rtol, atol):
    y = np.asarray(y0, dtype=float).copy()
    out = np.empty((len(grid), len(y)))
    out[0] = y
    r = float(grid[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1 = np.asarray(f(r, y), dtype=float)
        h = float(grid[1] - grid[0])
        accepted = rejected = 0
        for i in range(1, len(grid)):
            target = float(grid[i])
            while (remaining := target - r) > abs(r) * 1e-15:
                h_try = min(h, remaining)
                y_new, err, k_last = _reference_step(f, r, y, h_try, k1)
                finite = bool(np.all(np.isfinite(y_new)))
                enorm = math.inf
                if finite:
                    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
                    enorm = float(np.sqrt(np.mean((err / scale) ** 2)))
                if finite and enorm <= 1.0 and bool(np.all(y_new > 0.0)):
                    r = target if h_try == remaining else r + h_try
                    y, k1 = y_new, k_last
                    accepted += 1
                    if float(np.max(np.abs(y))) > 1e250:
                        raise Overflow(r)
                    h = h_try * max(0.2, 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm**-0.2))
                else:
                    rejected += 1
                    if not math.isfinite(enorm):
                        h = h_try * 0.2
                    else:
                        h = h_try * (0.5 if enorm <= 1.0 else max(0.1, min(0.9, 0.9 * enorm**-0.2)))
                    if h < 1e-14 * max(abs(r), 1e-300):
                        if not finite or float(np.max(np.abs(y))) > 1e200:
                            raise Overflow(r)
                        raise StepSizeUnderflow(r)
            out[i] = y
    return out, accepted, rejected


def _reference_trajectory(system, tol, r_max, points_per_decade):
    """Trajectory arrays of ``integrate_radial(system, 1, 1, ...)`` from the numpy loop."""
    grid = geometric_grid(1e-6 * min(1.0, r_max), r_max, points_per_decade)
    start = startup_state(system, 1.0, 1.0, float(grid[0]))
    y0 = np.array([start.u, start.v, start.P, start.S])
    atol = (tol * 1e-3) * np.maximum(np.abs(y0), 1e-300)
    f = flux_rhs(system)
    ys, accepted, rejected = _reference_propagate(lambda r, y: np.array(f(r, y)), grid, y0, tol, atol)
    prm = system.params
    u, v, P, S = ys.T
    du = (P / grid**system.delta) ** (1.0 / (prm.p - 1.0 - prm.alpha))
    dv = (S / grid ** (prm.n - 1)) ** (1.0 / (prm.p - 1.0))
    return dict(r=grid, u=u, v=v, du=du, dv=dv, P=P, S=S), accepted, rejected


@pytest.mark.parametrize(
    "config, tol, r_max, points_per_decade",
    [
        (POISSON_CONFIG, 1e-9, 100.0, 64),
        (P3_CONFIG, 1e-9, 1e4, 64),
        (MULTI_TERM_CONFIG, 1e-9, 10.0, 64),
        (P3_CONFIG, 1e-6, 1e4, 1),  # rejects steps
    ],
    ids=["poisson", "coupled_p3", "multi_term", "rejections"],
)
def test_step_loop_matches_numpy_reference_bit_for_bit(config, tol, r_max, points_per_decade):
    system = system_from_config(config)
    expected, accepted, rejected = _reference_trajectory(system, tol, r_max, points_per_decade)
    traj = integrate_radial(system, 1.0, 1.0, tol, r_max=r_max, points_per_decade=points_per_decade)
    for name, values in expected.items():
        assert np.array_equal(getattr(traj, name), values), name
    assert (traj.meta["steps_accepted"], traj.meta["steps_rejected"]) == (accepted, rejected)
    if points_per_decade == 1:
        assert rejected > 0


def test_step_loop_matches_numpy_reference_on_underflow():
    """p - 1 - alpha = 0.02: the startup gradient underflows at r0 = 1e-6."""
    system = system_from_config(
        dict(P3_CONFIG, alpha=1.98, r_max=1e4, g1=[[1.0, 0.001]], g3=[[1.0, 0.001]])
    )
    with pytest.raises(StepSizeUnderflow) as expected:
        _reference_trajectory(system, 1e-9, 1e4, 64)
    with pytest.raises(StepSizeUnderflow) as info:
        integrate_radial(system, 1.0, 1.0, 1e-9, r_max=1e4)
    assert info.value.radius == expected.value.radius


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


def test_underflow_when_positivity_cannot_be_maintained():
    """A forced negative drift rejects every step; h collapses to underflow."""
    f = lambda r, y: np.full_like(y, -1e300)
    grid = np.array([1.0, 2.0])
    with pytest.raises(StepSizeUnderflow) as info:
        _propagate(f, grid, np.ones(4), 1e-9, np.full(4, 1e-12))
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


# ---------------------------------------------------------------------------
# Flux consistency (independent quadrature cross-check)
# ---------------------------------------------------------------------------


def test_flux_consistency_reference_runs(poisson_traj, p3_traj, poisson_system, p3_system):
    assert flux_consistency(poisson_traj, poisson_system) < 1e-10
    assert flux_consistency(p3_traj, p3_system) < 1e-6


def test_flux_consistency_detects_corruption(p3_traj, p3_system):
    bent = dataclasses.replace(p3_traj, P=p3_traj.P * 1.001)
    assert flux_consistency(bent, p3_system) > 1e-4
