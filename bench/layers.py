"""Per-layer metrics of a traced run, one layer per plap module.

Times come from the spans of the traced operations, plus microbenchmarks of
single public functions on the run's own instances.  Every metric is present
for every workload; a layer a workload does not use reads 0.  The RHS
evaluation count is ``None`` (absent) when the integrator took steps without
calling the callable that ``plap.integrator.flux_rhs`` returns.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import plap
from spans import self_times

R_MAX = 1e4
MICRO_INSTANCES = 4
CLI_RESIDUAL_GRID = np.geomspace(1e-2, 1e4, 25)  # the grid ``plap profile`` uses


def _median(values, scale: float = 1.0) -> float:
    values = list(values)
    return statistics.median(values) * scale if values else 0.0


def _durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def _per_call(fn, repeats: int) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def _micro(workload) -> dict[str, float]:
    """Single public functions timed on a few of the run's trajectories."""
    rhs, dp, resid, pchip = [], [], [], []
    instances = workload.instances()
    for key, traj in list(workload.trajs.items())[:MICRO_INSTANCES]:
        system = plap.system_from_config(instances[key])
        f = plap.flux_rhs(system)
        idx = np.linspace(0, len(traj.r) - 2, 64).astype(int)
        states = [(float(traj.r[j]), np.array([traj.u[j], traj.v[j], traj.P[j], traj.S[j]]), float(traj.r[j + 1] - traj.r[j])) for j in idx]
        rhs.append(_per_call(lambda: [f(r, y) for r, y, _ in states], 5) / len(states))
        dp.append(_per_call(lambda: [plap.dormand_prince_step(f, r, y, h) for r, y, h in states], 2) / len(states))
        profile = plap.solve_profile(system)
        resid.append(_per_call(lambda: plap.profile_residual(profile, system, CLI_RESIDUAL_GRID), 20))
        other = plap.sample_profile_trajectory(profile, system, plap.geometric_grid(traj.r[0], traj.r[-1], 8))
        pchip.append(_per_call(lambda: plap.check_ordering(traj, other), 3))
    return {
        "integrator.rhs_us": _median(rhs, 1e6),
        "integrator.dp_step_us": _median(dp, 1e6),
        "profile.profile_residual_us": _median(resid, 1e6),
        "verify.check_ordering_pchip_us": _median(pchip, 1e6),
    }


def _flux_consistency(workload, spans: list[dict], outcomes) -> tuple[float, float]:
    """(seconds per call, worst defect): from the operations when they call it, else measured here."""
    calls = _durations(spans, "integrator.flux_consistency")
    if calls:
        defects = [o.details["flux_defect"] for o in outcomes if o.details.get("flux_defect") is not None]
        return _median(calls), max(defects, default=0.0)
    times, defects = [], []
    instances = workload.instances()
    for key, traj in list(workload.trajs.items())[:MICRO_INSTANCES]:
        system = plap.system_from_config(instances[key])
        t0 = time.perf_counter()
        defects.append(plap.flux_consistency(traj, system))
        times.append(time.perf_counter() - t0)
    return _median(times), max(defects, default=0.0)


def _grid_forced_share(workload) -> float:
    """Share of steps the output grid forces: 1 - steps on a 1-per-decade grid / steps on the run's grid."""
    ours = coarse = 0
    instances = workload.instances()
    for key, traj in workload.trajs.items():
        cfg = instances[key]
        one = plap.integrate_radial(plap.system_from_config(cfg), cfg["a"], cfg["b"], cfg["tol"], r_max=R_MAX, points_per_decade=1)
        ours += traj.meta["steps_accepted"] + traj.meta["steps_rejected"]
        coarse += one.meta["steps_accepted"] + one.meta["steps_rejected"]
    return 1.0 - coarse / ours if ours else 0.0


def per_layer(workload, tracer, outcomes, traced, extra: dict, imports: dict[str, float]) -> dict[str, tuple]:
    spans = [s for s in tracer.spans if "end" in s]
    # integrations that raised carry no step counts; they show in failures.*
    integ = [s for s in spans if s["name"] == "integrator.integrate_radial" and "steps_accepted" in s]
    acc = sum(s["steps_accepted"] for s in integ)
    rej = sum(s["steps_rejected"] for s in integ)
    evals = sum(s["rhs_evals"] for s in integ)
    integ_time = sum(s["end"] - s["start"] for s in integ)
    op_time = sum(_durations(spans, "op"))
    mains = [s for s in spans if s["name"] == "cli.main"]
    selfs = self_times(mains + [s for s in spans if s.get("parent") in {m["id"] for m in mains}]) if mains else {}
    threads: dict = {}
    for s in spans:
        if s["name"] == "verify.run_verification" and s.get("parent") is not None:
            threads.setdefault(s["op"], set()).add(s["thread"])
    sweep_threads = max((len(t) for t in threads.values()), default=1)
    n_int = max(1, len(integ))
    pairs = list(zip(outcomes, traced))
    all_ops = outcomes + traced
    fc_time, fc_defect = _flux_consistency(workload, spans, all_ops)
    metrics = {
        **{k: (v, "s") for k, v in imports.items()},
        "model.system_from_config_us": (_median(_durations(spans, "model.system_from_config"), 1e6), "us"),
        "profile.solve_profile_us": (_median(_durations(spans, "profile.solve_profile"), 1e6), "us"),
        "integrator.integrate_s": (_median(s["end"] - s["start"] for s in integ), "s"),
        # share of the operations' thread time, counting every sweep thread as busy throughout
        "integrator.share": (integ_time / (op_time * sweep_threads) if op_time else 0.0, "ratio"),
        "integrator.steps_accepted": (acc / n_int, "count"),
        "integrator.steps_rejected": (rej / n_int, "count"),
        "integrator.accept_ratio": (acc / (acc + rej) if acc + rej else 0.0, "ratio"),
        "integrator.rhs_evals": (evals / n_int if evals or not acc else None, "count"),
        "integrator.grid_points": (sum(s["grid_points"] for s in integ) / n_int, "count"),
        "integrator.step_us": (1e6 * integ_time / (acc + rej) if acc + rej else 0.0, "us"),
        "integrator.flux_consistency_s": (fc_time, "s"),
        "integrator.flux_defect_max": (fc_defect, "ratio"),
        "integrator.failures.underflow": (sum(o.failure == "underflow" for o in all_ops), "count"),
        "integrator.failures.overflow": (sum(o.failure == "overflow" for o in all_ops), "count"),
        "verify.quotient_series_s": (_median(_durations(spans, "verify.quotient_series")), "s"),
        "verify.checks_s": (_median(_durations(spans, "verify.checks")), "s"),
        "cli.main_s": (_median(m["end"] - m["start"] for m in mains), "s"),
        "cli.self_s": (selfs.get("cli.main", 0.0) / len(mains) if mains else 0.0, "s"),
        "cli.sweep_threads": (sweep_threads if workload.name == "sweep" else 0, "count"),
        **{
            f"cli.sweep_rows.{status}": (_median(o.details.get(status, 0) for o in all_ops), "count")
            for status in ("ok", "rejected", "error", "verify_failed")
        },
        "yardstick.dop853_s": (_median(extra["yardstick"]), "s"),
        "trace.overhead_s": (statistics.mean(t.latency - u.latency for u, t in pairs) if pairs else 0.0, "s"),
        "gen.grid_forced_step_share": (_grid_forced_share(workload), "ratio"),
    }
    metrics.update({k: (v, "us") for k, v in _micro(workload).items()})
    return metrics
