"""Spans recorded from outside plap, around calls to its public functions.

A span carries a name, start and end (``time.perf_counter`` seconds), the
index of its parent span, the operation id and the thread that ran it.  Spans
are kept in memory; ``Tracer.dump`` writes them as JSON lines at the end.

``replay_verification`` makes the same public calls as
``plap.run_verification``, in the same order, each inside a span, and
assembles the same report; the benchmark asserts that the two reports agree.
``Tracer.patch`` swaps timed wrappers into plap's module namespaces so calls
made inside the CLI (including the sweep's worker threads) are traced too,
and counts right-hand-side evaluations, per thread, by wrapping the callable
that ``plap.integrator.flux_rhs`` returns.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Callable, Optional

import plap
import plap.cli
import plap.integrator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {
            "name": name,
            "op": self.op,
            "parent": stack[-1] if stack else getattr(self._local, "root", None),
            "thread": threading.get_ident(),
            **attrs,
        }
        with self._lock:
            index = record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        # Worker threads start with an empty stack; they inherit the span that
        # was open where the wrapper was created (the CLI's main span).
        creator = getattr(self._local, "stack", None)
        root = creator[-1] if creator else None

        def traced(*args, **kwargs):
            if getattr(self._local, "stack", None) in (None, []):
                self._local.root = root
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def counting_flux_rhs(self, original: Callable) -> Callable:
        def flux_rhs(system):
            rhs = original(system)

            def counted(r, y):
                self._local.rhs_evals = getattr(self._local, "rhs_evals", 0) + 1
                return rhs(r, y)

            return counted

        return flux_rhs

    @contextlib.contextmanager
    def patch(self, cli: bool = True):
        """Swap traced wrappers into plap's modules for the duration of the block."""
        targets = [(plap.integrator, "flux_rhs", self.counting_flux_rhs(plap.integrator.flux_rhs))]
        if cli:
            targets += [
                (plap.cli, "system_from_config", self.wrap("model.system_from_config", plap.cli.system_from_config)),
                (plap.cli, "solve_profile", self.wrap("profile.solve_profile", plap.cli.solve_profile)),
                (plap.cli, "profile_residual", self.wrap("profile.profile_residual", plap.cli.profile_residual)),
                (plap.cli, "run_verification", self.wrap("verify.run_verification", self.replay_verification)),
            ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in targets]
        try:
            for mod, name, value in targets:
                setattr(mod, name, value)
            yield self
        finally:
            for mod, name, value in saved:
                setattr(mod, name, value)

    def replay_verification(self, system, a=1.0, b=1.0, tol=1e-9, *, r0=None, r_max=None, points_per_decade=64):
        """``plap.run_verification`` with its default thresholds, one span per public call."""
        mono_tol = ordering_slack = bounds_tol = 1e-8
        limit_threshold, identity_threshold = 1e-2, 3e-2
        with self.span("profile.solve_profile"):
            profile = plap.solve_profile(system)
        with self.span("integrator.integrate_radial") as sp:
            evals0 = getattr(self._local, "rhs_evals", 0)
            traj = plap.integrate_radial(
                system, a, b, tol, r0=r0, r_max=r_max, points_per_decade=points_per_decade
            )
            sp["steps_accepted"] = traj.meta["steps_accepted"]
            sp["steps_rejected"] = traj.meta["steps_rejected"]
            sp["grid_points"] = len(traj.r)
        sp["rhs_evals"] = getattr(self._local, "rhs_evals", 0) - evals0
        with self.span("verify.quotient_series"):
            qs = plap.quotient_series(traj, profile)
        with self.span("verify.checks"):
            with self.span("verify.check_monotone_quotients"):
                mono = plap.check_monotone_quotients(qs, mono_tol)
            with self.span("verify.check_quotient_ordering"):
                ordering = plap.check_quotient_ordering(qs, ordering_slack)
            with self.span("verify.check_convexity_bounds"):
                bounds = plap.check_convexity_bounds(traj, system, bounds_tol)
            limits = identities = None
            try:
                with self.span("verify.estimate_limits"):
                    limits = plap.estimate_limits(qs)
                with self.span("verify.check_limit_identities"):
                    identities = plap.check_limit_identities(limits, system)
            except plap.InsufficientRange:
                pass
        limits_asserted = limits is not None and float(traj.r[-1]) >= 9999.0
        limits_passed = identities_passed = None
        if limits is not None:
            limits_passed = all(abs(est.value - 1.0) <= limit_threshold for est in limits.values())
            identities_passed = identities.first <= identity_threshold and identities.second <= identity_threshold
        passed = mono.passed and ordering.passed and bounds.passed
        if limits_asserted:
            passed = passed and bool(limits_passed) and bool(identities_passed)
        report = plap.VerificationReport(
            monotonicity=mono,
            ordering=ordering,
            convexity_bounds=bounds,
            limits=limits,
            limit_identities=identities,
            limits_asserted=limits_asserted,
            limits_passed=limits_passed,
            identities_passed=identities_passed,
            tolerances={
                "integration_rtol": tol,
                "integration_atol_floor": tol * 1e-3,
                "monotonicity_slack": mono_tol,
                "ordering_slack": ordering_slack,
                "bounds_slack": bounds_tol,
                "limit_threshold": limit_threshold,
                "identity_threshold": identity_threshold,
                "limit_window_decades": 2.0,
            },
            passed=bool(passed),
        )
        return report, traj, qs

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out: dict[str, float] = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for lo, hi in sorted(children.get(span["id"], [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["name"]] = out.get(span["name"], 0.0) + (span["end"] - span["start"]) - covered
    return out
