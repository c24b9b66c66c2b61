"""Benchmark of plap: one workload, one seed, one result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a plap source checkout: the package is imported from
``./src``, never from an installed copy, and the run fails (exit 2, no
result) when ``./src/plap`` is missing.  Scratch files go to ``.bench_work/``.

The run builds its instances from the seed, measures set-up time (fresh
interpreters importing plap), computes the DOP853 accuracy reference in a
child process, warms up with one untimed operation, then runs operations
back to back for ``--seconds`` (then to the end of the current pass over
the instance pool) and checks every output.  Between operations it times a
few runs of the workload's calibration (``workloads.py``); each latency is
scaled by the calibration's time on the machine of record against its median
around that operation (``scaled_latencies``), so drift in the machine's
speed cancels.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).  The
line before it states the sample count, the highest latency percentile with
10 samples above it, the instance mix and the speed factor.  A wrong output
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
SPEED_WINDOW = 3  # an operation's speed comes from the calibrations this many operations around it
IMPORT_REPEATS = 3


def fail(message: str, code: int = 2) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def locate_plap() -> None:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "plap", "__init__.py")):
        fail("no ./src/plap here; run from the root of a plap checkout")
    sys.path[:0] = [src, HERE]
    import plap

    if not os.path.abspath(plap.__file__).startswith(src + os.sep):
        fail(f"imported plap from {plap.__file__}, not from {src}")


def wall(args: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(args, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter running ``import plap``."""
    args = [sys.executable, "-c", "import plap"]
    return statistics.median(wall(args, env) for _ in range(SETUP_REPEATS))


def import_layers(env: dict) -> dict[str, float]:
    bare = statistics.median(wall([sys.executable, "-c", "pass"], env) for _ in range(IMPORT_REPEATS))
    runs = []
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "imports"], env=env, check=True, capture_output=True, text=True)
        runs.append(json.loads(res.stdout))
    return {
        "import.python_s": bare,
        **{f"import.{k}_s": statistics.median(r[k] for r in runs) for k in ("numpy", "scipy_interpolate", "plap")},
    }


def load_references(workload, workdir: str, env: dict) -> dict:
    import numpy as np

    jobs = workload.reference_jobs()
    jobs_path = os.path.join(workdir, "jobs.json")
    out_path = os.path.join(workdir, "refs.npz")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    res = subprocess.run([sys.executable, os.path.join(HERE, "reference.py"), jobs_path, out_path], env=env, capture_output=True, text=True)
    if res.returncode != 0:
        fail(f"reference failed: {res.stderr.strip()}", 1)
    with np.load(out_path) as data:
        for pos, job in enumerate(jobs):
            if f"ref{pos}" in data:
                workload.refs[job["key"]] = data[f"ref{pos}"]
        return {"yardstick": [float(data[f"yardstick{pos}"]) for pos in range(len(jobs))]}


def speed_sample(workload) -> list[float]:
    """A batch of calibration times, taken between two operations."""
    return [workload.calibration_seconds() for _ in range(workload.calibration_repeats)]


def scaled_latencies(outcomes: list, calibration: list[list[float]], nominal: float) -> list[float]:
    """Each operation's latency at the speed of the machine of record.

    ``calibration[i]`` is the batch taken before operation ``i`` and
    ``calibration[i + 1]`` the one after it.  The machine's speed around an
    operation is the median of the batches within ``SPEED_WINDOW`` operations
    of it, before and after: the machine switches between a slow and a fast
    state for fractions of a second at a time, so one batch can catch a
    state the operation hardly saw.
    """
    out = []
    for i, o in enumerate(outcomes):
        near = [x for batch in calibration[max(0, i + 1 - SPEED_WINDOW) : i + 1 + SPEED_WINDOW] for x in batch]
        out.append(o.latency * nominal / statistics.median(near))
    return out


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples above it.

    With 10 samples or fewer no percentile qualifies; the maximum is reported.
    """
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    locate_plap()
    import gen
    import layers
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    env = workloads.child_env()
    workdir = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_s = setup_seconds(env)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        extra = load_references(workload, workdir, env)

        tracer = Tracer() if args.trace else None
        outcomes, traced, keys = [], [], []
        workload.run(0)  # warm-up, not counted
        calibration = [speed_sample(workload)]
        deadline = time.perf_counter() + args.seconds
        i = 0
        while True:
            k = i % len(workload.pool)
            out = workload.run(k)
            calibration.append(speed_sample(workload))
            workload.check(k, out)
            outcomes.append(out)
            keys.append(k)
            if tracer is not None:
                tracer.op = i
                t_out = workload.run_traced(k, tracer)
                workload.check(k, t_out)
                traced.append(t_out)
            i += 1
            # whole passes over the pool, so every instance weighs the same
            if i % len(workload.pool) == 0 and time.perf_counter() >= deadline:
                break
    except workloads.OutputMismatch as exc:
        print(f"bench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, len(outcomes)), "failed": max(1, len(outcomes)), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    scaled = scaled_latencies(outcomes, calibration, workload.calibration_nominal_s)
    # Repeats of an instance are checked to agree, so each instance counts once,
    # at the median of its latencies: one noisy repeat cannot move a quantile.
    runs: dict[int, list] = {}
    for k, o, t in zip(keys, outcomes, scaled):
        runs.setdefault(k, []).append((o, t))
    passed = {k: os_[0][0].failure is None for k, os_ in runs.items()}
    typical = {k: statistics.median(t for _, t in os_) for k, os_ in runs.items()}
    verified = sum(os_[0][0].verified for os_ in runs.values())
    speed = workload.calibration_nominal_s / statistics.median(x for batch in calibration for x in batch)
    if len(runs) == 1:  # one instance (sweep): quantiles over its operations
        spread_over = [t for o, t in zip(outcomes, scaled) if o.failure is None]
    else:
        spread_over = [typical[k] for k in runs if passed[k]]
    failed = sum(o.failure is not None for o in outcomes)
    good = [o.latency for o in outcomes if o.failure is None]
    if not good:
        fail("no operation succeeded", 1)
    tail_value, tail_pct = tail(good)
    errors = list(workload.errors.values())
    if not errors:
        fail("no passing operation had a reference to check against", 1)
    if args.workload == "cold-verify":
        rss_mb = statistics.median(o.rss_kb for o in outcomes) / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    mix = ", ".join(f"{k} {v:.2f}" for k, v in gen.shares(workload.instances()).items())
    print(
        f"{args.workload} seed {args.seed}: {attempted} operations, {failed} failed; "
        f"latency over {len(good)} successful operations, highest percentile with 10 above: "
        f"p{tail_pct:.1f} = {tail_value:.4g} s; instances: {mix}"
        + f"; raw p50 {statistics.median(good):.4g} s, machine speed factor {speed:.4g}"
        + (f"; traced run {len(traced)} operations" if traced else "")
    )
    if args.trace:
        metrics = layers.per_layer(workload, tracer, outcomes, traced, extra, import_layers(env))
        os.makedirs(".bench_work", exist_ok=True)
        tracer.dump(os.path.join(".bench_work", f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "instances_per_s": (verified / sum(typical.values()), "1/s"),
            "latency_s.p50": (statistics.median(spread_over), "s"),
            "accuracy_digits": (-math.log10(max(errors)), "digits"),
            "verified_fraction": (verified / (len(runs) * workload.points_per_instance), "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
