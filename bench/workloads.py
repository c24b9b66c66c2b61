"""The four workloads: what one operation is, and how its output is checked.

Each workload holds a seeded pool of instances and cycles through it, one
operation at a time from one client (a closed loop).  ``run`` performs an
operation untraced; ``run_traced`` performs the same operation with spans
(``spans.Tracer``) around plap's public calls.  Both return an ``Outcome``;
``check`` raises ``OutputMismatch`` when the output is wrong.  An operation
fails when it raises, when its report does not pass, or when a check fails.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import plap
import plap.cli
import gen
from spans import Tracer

R_MAX = 1e4
ACCURACY_FACTOR = 1e4  # a passing trajectory must match the reference within this many tol


class OutputMismatch(Exception):
    """An operation's output disagrees with what the benchmark expects."""


@dataclass
class Outcome:
    latency: float
    verified: int = 0  # instances verified by the operation (sweep: its ok rows)
    failure: Optional[str] = None  # None, or why the operation failed
    traj: Optional[plap.Trajectory] = None
    report: Optional[str] = None  # canonical JSON of the report
    rss_kb: int = 0
    details: dict = field(default_factory=dict)  # flux defect, or sweep row counts


def report_json(report: plap.VerificationReport) -> str:
    """The report exactly as ``plap verify --out`` writes it."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def rel_error(traj: plap.Trajectory, ref: np.ndarray) -> float:
    """Largest relative error of (u, v, P, S) against a (4, N) reference."""
    ours = np.vstack([traj.u, traj.v, traj.P, traj.S])
    if ours.shape != ref.shape:
        return float("inf")
    with np.errstate(all="ignore"):
        err = np.abs(ours - ref) / np.abs(ref)
    return float(np.max(err)) if np.all(np.isfinite(err)) else float("inf")


def accuracy_ok(err: float, tol: float) -> bool:
    return err <= ACCURACY_FACTOR * tol


# A fixed-step Dormand-Prince 5th-order stepper on a fixed four-component
# power-law system, written in the same style as plap's step loop: a Python
# right-hand side that unpacks the state, takes powers and builds a small
# numpy array, and stage sums over 4-vectors.
_CAL_NODES = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_CAL_STAGES = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_CAL_WEIGHTS = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
CALIBRATION_STEPS = 300


def _cal_rhs(r: float, y: np.ndarray) -> np.ndarray:
    u, v, P, S = y.tolist()
    rd, rn = r**1.5, r**2.0
    du = (P / rd) ** 0.7 if P > 0.0 else 0.0
    dv = (S / rn) ** 0.5 if S > 0.0 else 0.0
    return np.array((du, dv, 0.8 * rd * (1.0 + v) ** 0.3, rn * (1.0 + u) ** 0.2 * (1.0 + du) ** 0.1))


def _cal_steps(steps: int) -> None:
    y, r, h = np.array([1.0, 1.0, 1e-9, 1e-9]), 1e-3, 1e-3
    for _ in range(steps):
        k = [_cal_rhs(r, y)]
        for i in range(1, 6):
            acc = _CAL_STAGES[i][0] * k[0]
            for j in range(1, i):
                acc = acc + _CAL_STAGES[i][j] * k[j]
            k.append(_cal_rhs(r + _CAL_NODES[i] * h, y + h * acc))
        acc = _CAL_WEIGHTS[0] * k[0]
        for j in range(2, 6):
            acc = acc + _CAL_WEIGHTS[j] * k[j]
        y, r = y + h * acc, r + h


def stepper_seconds(threads: int) -> float:
    """Time of ``CALIBRATION_STEPS`` steps of the benchmark's own fixed-step stepper.

    Its mix of interpreter work and small numpy arrays is plap's hot path, so
    it slows down with the machine as plap does; it is the benchmark's own
    code, so no change to plap moves it.  With ``threads`` > 1 the steps are
    split over that many threads, which then contend for the interpreter
    lock as the sweep's workers do.  The garbage collector is off while it
    runs: the stepper makes no reference cycles, so a collection would time
    the garbage of the operation before it.
    """
    workers = [threading.Thread(target=_cal_steps, args=(CALIBRATION_STEPS // threads,)) for _ in range(threads)]
    gc.disable()
    try:
        t0 = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def child_env() -> dict:
    """The environment for child interpreters: plap from ./src first."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [os.path.abspath("src"), os.environ.get("PYTHONPATH")])))


def _failure_name(exc: BaseException) -> str:
    if isinstance(exc, plap.StepSizeUnderflow):
        return "underflow"
    if isinstance(exc, plap.Overflow):
        return "overflow"
    return "raised:" + type(exc).__name__


class InProcessVerify:
    """``run_verification`` on one instance, optionally followed by ``flux_consistency``."""

    name = ""
    ppd = 64
    pool_size = 12
    tol_range = (1e-9, 1e-9)
    whole_region = False
    with_flux_check = False
    points_per_instance = 1  # instances one operation verifies when it succeeds
    calibration_nominal_s = 0.022  # calibration_seconds() on the machine of record
    calibration_repeats = 3  # calibration runs between two operations

    def __init__(self, seed: int, workdir: str) -> None:
        self.pool = gen.instance_pool(seed, self.pool_size, self.tol_range, self.whole_region)
        self.refs: dict[int, np.ndarray] = {}
        self.seen: dict[int, tuple] = {}
        self.errors: dict[int, float] = {}
        self.trajs: dict[int, plap.Trajectory] = {}

    def reference_jobs(self) -> list[dict]:
        """Instances that get a DOP853 reference (near alpha = p-1 is out of its reach)."""
        return [{"key": i, "cfg": c, "ppd": self.ppd} for i, c in enumerate(self.pool) if not gen.is_near_alpha(c)]

    def instances(self) -> list[dict]:
        return self.pool

    def calibration_seconds(self) -> float:
        return stepper_seconds(1)

    def _finish(self, t0: float, report, traj, defect: Optional[float]) -> Outcome:
        out = Outcome(latency=time.perf_counter() - t0, traj=traj, report=report_json(report))
        out.details["flux_defect"] = defect
        if not report.passed:
            out.failure = "not_passed"
        elif defect is not None and not defect < 1e-6:
            out.failure = "flux_defect"
        else:
            out.verified = 1
        return out

    def run(self, i: int) -> Outcome:
        cfg = self.pool[i]
        t0 = time.perf_counter()
        try:
            system = plap.system_from_config(cfg)
            report, traj, _ = plap.run_verification(
                system, cfg["a"], cfg["b"], cfg["tol"], r_max=R_MAX, points_per_decade=self.ppd
            )
            defect = plap.flux_consistency(traj, system) if self.with_flux_check else None
            return self._finish(t0, report, traj, defect)
        except Exception as exc:  # every raise is a failed operation, counted by type
            return Outcome(latency=time.perf_counter() - t0, failure=_failure_name(exc), report=repr(exc))

    def run_traced(self, i: int, tracer: Tracer) -> Outcome:
        cfg = self.pool[i]
        t0 = time.perf_counter()
        with tracer.span("op", workload=self.name), tracer.patch(cli=False):
            try:
                with tracer.span("model.system_from_config"):
                    system = plap.system_from_config(cfg)
                with tracer.span("verify.run_verification"):
                    report, traj, _ = tracer.replay_verification(
                        system, cfg["a"], cfg["b"], cfg["tol"], r_max=R_MAX, points_per_decade=self.ppd
                    )
                defect = None
                if self.with_flux_check:
                    with tracer.span("integrator.flux_consistency"):
                        defect = plap.flux_consistency(traj, system)
                out = self._finish(t0, report, traj, defect)
            except Exception as exc:  # same accounting as the untraced operation
                return Outcome(latency=time.perf_counter() - t0, failure=_failure_name(exc), report=repr(exc))
        out.latency = time.perf_counter() - t0
        return out

    def check(self, i: int, out: Outcome) -> None:
        """Repeats of an instance must agree exactly; passing runs must match the reference."""
        key = (out.failure, out.report)
        if i in self.seen:
            if self.seen[i] != key:
                raise OutputMismatch(f"{self.name}: instance {i} gave a different result on a repeat")
            if out.traj is not None and i in self.refs and rel_error(out.traj, self.refs[i]) != self.errors[i]:
                raise OutputMismatch(f"{self.name}: instance {i} gave a different trajectory on a repeat")
            return
        self.seen[i] = key
        if out.traj is not None:
            self.trajs[i] = out.traj
        if out.failure is None and i in self.refs:
            err = rel_error(out.traj, self.refs[i])
            self.errors[i] = err
            if not accuracy_ok(err, self.pool[i]["tol"]):
                raise OutputMismatch(f"{self.name}: instance {i} rel err {err:.3e} vs tol {self.pool[i]['tol']:.1e}")


class FineGrid(InProcessVerify):
    name = "fine-grid"
    ppd = 256
    pool_size = 10
    tol_range = (1e-9, 1e-6)
    with_flux_check = True


class TightCoarse(InProcessVerify):
    name = "tight-coarse"
    ppd = 8
    pool_size = 10
    tol_range = (1e-12, 1e-11)
    whole_region = True


class ColdVerify(InProcessVerify):
    """A fresh ``python -m plap.cli verify`` process per operation."""

    name = "cold-verify"
    ppd = 64
    pool_size = 6
    tol_range = (1e-10, 1e-8)
    calibration_nominal_s = 0.19
    calibration_repeats = 1

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.workdir = workdir
        self.env = child_env()
        self.expected: dict[int, str] = {}
        for i, cfg in enumerate(self.pool):
            with open(self._path(i, "json"), "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            # the artifact the CLI must reproduce byte for byte, computed in-process
            report, traj, _ = plap.run_verification(plap.system_from_config(cfg), cfg["a"], cfg["b"], cfg["tol"], r_max=R_MAX)
            self.expected[i] = report_json(report)
            self.trajs[i] = traj

    def calibration_seconds(self) -> float:
        """Wall time of a fresh interpreter importing numpy: start-up work plap cannot change."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env, check=True)
        return time.perf_counter() - t0

    def _path(self, i: int, ext: str) -> str:
        return os.path.join(self.workdir, f"instance{i}.{ext}")

    def _spawn(self, i: int, prefix: list[str]) -> Outcome:
        out_path = self._path(i, "report.json")
        if os.path.exists(out_path):
            os.remove(out_path)
        args = prefix + ["verify", "--config", self._path(i, "json"), "--rmax", "1e4", "--out", out_path]
        t0 = time.perf_counter()
        with open(self._path(i, "stderr"), "wb") as err:
            proc = subprocess.Popen(args, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out = Outcome(latency=latency, rss_kb=usage.ru_maxrss, traj=self.trajs[i])
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                out.report = fh.read()
        if code != 0:
            out.failure = f"exit:{code}"
        elif out.report != self.expected[i]:
            out.failure = "artifact"
        else:
            out.verified = 1
        return out

    def run(self, i: int) -> Outcome:
        return self._spawn(i, [sys.executable, "-m", "plap.cli"])

    def run_traced(self, i: int, tracer: Tracer) -> Outcome:
        spans_path = self._path(i, "spans.jsonl")
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
        with tracer.span("op", workload=self.name) as op:
            out = self._spawn(i, [sys.executable, child, "cli", spans_path])
        offset = len(tracer.spans)
        with open(spans_path, encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                span["parent"] = op["id"] if span["parent"] is None else span["parent"] + offset
                span["id"] += offset
                span["op"] = tracer.op
                tracer.spans.append(span)
        return out

    def check(self, i: int, out: Outcome) -> None:
        if out.failure == "artifact":
            raise OutputMismatch(f"cold-verify: report of instance {i} differs from the in-process report")
        if i not in self.errors and i in self.refs:
            self.errors[i] = err = rel_error(self.trajs[i], self.refs[i])
            if not accuracy_ok(err, self.pool[i]["tol"]):
                raise OutputMismatch(f"cold-verify: instance {i} rel err {err:.3e}")


class Sweep:
    """In-process ``plap.cli.main(["sweep", ...])`` on one seeded 16-point sweep."""

    name = "sweep"
    ppd = 64
    calibration_nominal_s = 0.024
    calibration_repeats = 3

    def __init__(self, seed: int, workdir: str) -> None:
        self.cfg = gen.sweep_config(seed)
        self.points = gen.sweep_points(self.cfg)
        self.config_path = os.path.join(workdir, "sweep.json")
        self.out_path = os.path.join(workdir, "sweep.csv")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.cfg, fh)
        self.refs: dict[int, np.ndarray] = {}
        self.errors: dict[int, float] = {}
        self.expected: Optional[str] = None
        self.trajs: dict[int, plap.Trajectory] = {}
        for k, pt in enumerate(self.points):
            if gen.admissible(pt):
                self.trajs[k] = plap.integrate_radial(plap.system_from_config(pt), pt["a"], pt["b"], pt["tol"])
        self.points_per_instance = len(self.trajs)

    def reference_jobs(self) -> list[dict]:
        return [{"key": k, "cfg": self.points[k], "ppd": self.ppd} for k in self.trajs]

    def instances(self) -> list[dict]:
        return self.points

    def calibration_seconds(self) -> float:
        return stepper_seconds(min(4, os.cpu_count() or 1))  # the CLI's default sweep pool

    @property
    def pool(self) -> list:
        return [self.cfg]

    def _outcome(self, latency: float, code: int) -> Outcome:
        with open(self.out_path, encoding="utf-8") as fh:
            text = fh.read()
        rows = list(csv.DictReader(io.StringIO(text)))
        counts = {s: sum(r["status"] == s for r in rows) for s in ("ok", "rejected", "error", "verify_failed")}
        out = Outcome(latency=latency, report=text, details=counts, verified=counts["ok"])
        states = [self._row_state(k, row) for k, row in enumerate(rows)] if len(rows) == len(self.points) else ["wrong"]
        if "wrong" in states:
            out.failure = "rows:" + ",".join(str(k) for k, s in enumerate(states) if s == "wrong")
        elif code != 0 or "failed" in states:
            out.failure = f"exit:{code}, {states.count('failed')} points not verified"
        return out

    def _row_state(self, k: int, row: dict) -> str:
        """'wrong' when the status disagrees with the gates, or lambda and mu with
        the closed form; 'failed' when an admissible point did not verify."""
        pt = self.points[k]
        if not gen.admissible(pt):
            ok = row["status"] == "rejected" and row["reason"] == "ExistenceConditionViolated"
            return "ok" if ok else "wrong"
        if row["status"] == "rejected":
            return "wrong"
        if row["status"] != "ok":
            return "failed"
        lam, mu = gen.profile_exponents(pt)
        close = abs(float(row["lambda"]) - lam) <= 1e-12 * lam and abs(float(row["mu"]) - mu) <= 1e-12 * mu
        return "ok" if close else "wrong"

    def run(self, i: int) -> Outcome:
        t0 = time.perf_counter()
        code = plap.cli.main(["sweep", "--config", self.config_path, "--out", self.out_path])
        return self._outcome(time.perf_counter() - t0, code)

    def run_traced(self, i: int, tracer: Tracer) -> Outcome:
        t0 = time.perf_counter()
        with tracer.span("op", workload=self.name), tracer.span("cli.main"), tracer.patch():
            code = plap.cli.main(["sweep", "--config", self.config_path, "--out", self.out_path])
        return self._outcome(time.perf_counter() - t0, code)

    def check(self, i: int, out: Outcome) -> None:
        if out.failure is not None and out.failure.startswith("rows:"):
            raise OutputMismatch(f"sweep: rows {out.failure[5:]} disagree with the gates or the closed form")
        if self.expected is None:
            self.expected = out.report
            for k, traj in self.trajs.items():
                if k in self.refs:
                    self.errors[k] = err = rel_error(traj, self.refs[k])
                    if not accuracy_ok(err, self.points[k]["tol"]):
                        raise OutputMismatch(f"sweep: point {k} rel err {err:.3e}")
        elif out.report != self.expected:
            raise OutputMismatch("sweep: summary differs from the first run's")


WORKLOADS = {w.name: w for w in (ColdVerify, FineGrid, TightCoarse, Sweep)}
