"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import plap  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from run import SPEED_WINDOW, scaled_latencies, tail  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_generator_is_deterministic_per_seed():
    for seed in (0, 7, 123):
        assert gen.instance_pool(seed, 10, (1e-12, 1e-11), True) == gen.instance_pool(seed, 10, (1e-12, 1e-11), True)
        assert gen.sweep_config(seed) == gen.sweep_config(seed)
    assert gen.instance_pool(1, 10, (1e-9, 1e-9), False) != gen.instance_pool(2, 10, (1e-9, 1e-9), False)


def test_generator_mix_follows_the_schedule():
    passing = gen.shares(gen.instance_pool(5, 20, (1e-9, 1e-9), False))
    assert passing["near_alpha_share"] == 0.0 and passing["near_gate_share"] == 0.3
    # a law whose lower term could not decay fast enough stays single-term
    assert 0.3 <= passing["multi_term_share"] <= 0.4
    whole = gen.shares(gen.instance_pool(5, 10, (1e-12, 1e-11), True))
    assert whole["near_alpha_share"] == 0.2 and whole["near_gate_share"] == 0.2


def _label_matches_program(cfg: dict) -> None:
    try:
        plap.system_from_config(cfg)
        accepted = True
    except (plap.GradientExponentTooLarge, plap.ExistenceConditionViolated):
        accepted = False
    assert gen.admissible(cfg) == accepted, cfg


def test_admissibility_labels_match_validate_system():
    rng = random.Random(3)
    for seed in range(6):
        for pt in gen.sweep_points(gen.sweep_config(seed)):
            _label_matches_program(pt)
        for cfg in gen.instance_pool(seed, 10, (1e-9, 1e-9), seed % 2 == 0):
            _label_matches_program(cfg)
            # push each instance across both gates
            over_alpha = dict(cfg, alpha=cfg["p"] - 1.0 + rng.uniform(0.0, 0.5))
            _label_matches_program(over_alpha)
            k1, k2, k3 = gen.degrees(cfg)
            scale = rng.uniform(0.5, 2.0)
            _label_matches_program(dict(cfg, g1=[[1.0, k1 * scale]], g3=[[1.0, k3 * scale]]))


def test_reference_solves_poisson_exactly():
    assert reference.poisson_error() <= reference.POISSON_LIMIT


def test_corrupted_state_fails_the_operation(tmp_path):
    work = workloads.FineGrid(4, str(tmp_path))
    job = work.reference_jobs()[0]
    grid = plap.geometric_grid(1e-6, 1e4, work.ppd)
    work.refs[job["key"]] = reference.integrate(job["cfg"], grid, reference.REF_RTOL)
    out = work.run(job["key"])
    assert out.failure is None
    work.check(job["key"], out)  # the clean run passes

    fresh = workloads.FineGrid(4, str(tmp_path))
    fresh.refs = work.refs
    out.traj.u[len(grid) // 2] *= 1.1
    with pytest.raises(workloads.OutputMismatch):
        fresh.check(job["key"], out)


def test_replay_matches_run_verification_and_names_are_valid(tmp_path):
    work = workloads.TightCoarse(6, str(tmp_path))
    tracer = Tracer()
    outcomes, traced = [], []
    for k in (0, 1):
        outcomes.append(work.run(k))
        work.check(k, outcomes[-1])
        tracer.op = k
        traced.append(work.run_traced(k, tracer))
        work.check(k, traced[-1])  # raises unless the replayed report is identical
    imports = {f"import.{k}_s": 0.1 for k in ("python", "numpy", "scipy_interpolate", "plap")}
    metrics = layers.per_layer(work, tracer, outcomes, traced, {"yardstick": [0.01]}, imports)

    spec = _benchmark_json()
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
    for w in spec["workloads"]:
        assert w["name"] in workloads.WORKLOADS
    assert metrics["integrator.rhs_evals"][0] > 0


def test_tail_percentile_leaves_ten_samples_above():
    samples = [float(i) for i in range(30)]
    value, pct = tail(samples)
    assert sum(x > value for x in samples) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_speed_comes_from_the_calibrations_around_each_operation():
    ops = [workloads.Outcome(latency=1.0) for _ in range(2 * SPEED_WINDOW + 2)]
    # one batch caught a state twice as fast; the median around each operation ignores it
    calibration = [[0.02]] * len(ops) + [[0.02]]
    calibration[1] = [0.01]
    assert scaled_latencies(ops, calibration, 0.02) == [1.0] * len(ops)
    # a slowdown that lasts shows in the operations it surrounds, and only there
    slow = [[0.02]] * (SPEED_WINDOW + 1) + [[0.04]] * (len(ops) - SPEED_WINDOW)
    scaled = scaled_latencies(ops, slow, 0.02)
    assert scaled[0] == 1.0 and scaled[-1] == 0.5
    assert gc.isenabled()
    workloads.stepper_seconds(1)
    assert gc.isenabled()
