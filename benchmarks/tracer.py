"""In-memory span recorder that times the package's layers from outside.

The package binds most collaborators with ``from ... import``, so each
function is wrapped at the name its caller looks up (``paswipt.sweep.
estimate``, not ``paswipt.montecarlo.estimate``).  A span is
``[name, start_ns, end_ns, parent_index, op_id, attrs]``; spans stay in
memory and are written out once, when the run ends.  Stdlib only, so the
traced cold-CLI shim adds no import of its own to the measured process.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name).  A dotted attribute names a method on a
# class in that module.  Every entry must exist: a missing name raises.
WRAPS = (
    ("paswipt.cli", "main", "cli.main"),
    ("paswipt.cli", "load_config", "config.load"),
    ("paswipt.cli", "avg_energy_lm_closed", "energy.closed"),
    ("paswipt.cli", "avg_energy_nlm_bound", "energy.closed"),
    ("paswipt.cli", "avg_energy_quadrature", "energy.quad"),
    ("paswipt.cli", "avg_rate_closed", "rate.closed"),
    ("paswipt.cli", "avg_rate_quadrature", "rate.quad"),
    ("paswipt.cli", "emit_cdf_table", "distributions.cdf_table"),
    ("paswipt.cli", "estimate", "montecarlo.estimate"),
    ("paswipt.sweep", "run_power_sweep", "sweep.run"),
    ("paswipt.sweep", "run_tradeoff", "sweep.run"),
    ("paswipt.sweep", "emit_outputs", "sweep.emit"),
    ("paswipt.sweep", "avg_energy_lm_closed", "energy.closed"),
    ("paswipt.sweep", "avg_energy_nlm_bound", "energy.closed"),
    ("paswipt.sweep", "avg_energy_quadrature", "energy.quad"),
    ("paswipt.sweep", "avg_rate_closed", "rate.closed"),
    ("paswipt.sweep", "avg_rate_quadrature", "rate.quad"),
    ("paswipt.sweep", "estimate", "montecarlo.estimate"),
    ("paswipt.distributions", "SquaredDistanceDistribution.expect", "distributions.expect"),
    ("paswipt.montecarlo", "optimal_squared_distance", "geometry.distance"),
    ("paswipt.montecarlo", "logistic_harvest_power", "energy.logistic"),
)


def _estimate_attrs(bound: inspect.BoundArguments):
    a = bound.arguments
    return [a["metric"], getattr(a["scheme"], "value", str(a["scheme"])), a["n"]]


class Tracer:
    """Wraps package functions, records spans and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> "Tracer":
        for module, attr, name in WRAPS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = inspect.getattr_static(owner, leaf, None)
            if orig is None:
                raise LookupError(f"traced name {module}.{attr} is missing")
            fn = self._count_integrand(orig) if name == "distributions.expect" else orig
            attrs = _estimate_attrs if name == "montecarlo.estimate" else None
            setattr(owner, leaf, self._wrap(fn, orig, name, attrs))
            self._patched.append((owner, leaf, orig))
        return self

    def restore(self) -> None:
        for owner, leaf, orig in reversed(self._patched):
            setattr(owner, leaf, orig)
        self._patched.clear()

    def _count_integrand(self, expect):
        """expect(self, g, ...) with g wrapped to count integrand evaluations."""
        counts = self.counts

        def counted_expect(dist, g, *args, **kwargs):
            def counted(l):
                counts["distributions.integrand_evals"] += 1
                return g(l)
            return expect(dist, counted, *args, **kwargs)
        return counted_expect

    def _open(self, name: str, extra) -> list:
        stack = self._stack
        rec = [name, 0, 0, stack[-1] if stack else -1, self.op, extra]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, orig, name, attrs):
        sig = inspect.signature(orig) if attrs else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            extra = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = attrs(bound)
            rec = self._open(name, extra)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around arbitrary code."""
        rec = self._open(name, None)
        try:
            yield
        finally:
            self._close(rec)

    def extend(self, spans: list[list], op: int) -> None:
        """Append spans recorded by another process, re-basing parents."""
        base = len(self.spans)
        for name, start, end, parent, _op, extra in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, extra])

    def write(self, path: str | Path) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")
            f.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def load_spans(path: str | Path) -> tuple[list[list], dict]:
    spans, counts = [], {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if isinstance(rec, dict):
                counts = rec["counts"]
            else:
                spans.append(rec)
    return spans, counts


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total ns, and self ns (total minus the time
    covered by direct child spans)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op, _extra in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _parent, _op, _extra) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        s["calls"] += 1
        s["total_ns"] += end - start
        s["self_ns"] += end - start - child_ns[i]
    return out
