"""Span recording for the traced run, kept inside the benchmark.

``Tracer.instrument()`` wraps, for the current process only, the public
functions at driftcal's layer boundaries: the simcore names that
``driftcal.circuits`` calls, ``CircuitFamily.gate_unitary`` (the gates layer),
and every call the feedback loop makes.  Each call becomes a span (name, parent,
start, end) in flat in-memory arrays; a span's self time is its duration
minus its children's.  Spans are grouped by phase ("setup", "loop",
"finish"); per-shot figures use the loop phase only.
"""
from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from driftcal import analytics, circuits, drift

import feedback

# (owner, attribute, span name)
SPANS = (
    (circuits, "zero_state", "simcore.zero_state"),
    (circuits, "apply_unitary", "simcore.apply_unitary"),
    (circuits, "apply_depolarizing", "simcore.apply_depolarizing"),
    (circuits, "measure_computational", "simcore.measure_computational"),
    (circuits.CircuitFamily, "gate_unitary", "gates.build"),
    (circuits, "run_circuit", "circuits.run_circuit"),
    (circuits, "pseudoinverse_estimate", "circuits.pseudoinverse_estimate"),
    (circuits, "build_jacobian", "circuits.build_jacobian"),
    (drift.DriftBatch, "step", "drift.step"),
    (analytics.TrajectoryRecord, "append", "analytics.record_append"),
    (analytics, "summarize", "analytics.summarize"),
    (feedback.FeedbackLoop, "step", "bench.driver"),
)


def expected_spans(wl: feedback.Workload) -> set[str]:
    """Spans this workload must record; one with zero calls is reported missing."""
    spans = {"simcore.zero_state", "simcore.apply_unitary", "simcore.measure_computational",
             "gates.build", "circuits.run_circuit", "drift.step", "analytics.summarize",
             "bench.driver"}
    if wl.p > 0 or wl.p_spam > 0:
        spans.add("simcore.apply_depolarizing")
    if wl.family == "cz":
        spans |= {"circuits.pseudoinverse_estimate", "circuits.build_jacobian"}
    if wl.log_records:
        spans.add("analytics.record_append")
    return spans


# Per-layer metric -> (unit, the end-to-end metric it should move, on which workload).
# A name ending in .calls_per_shot, .self_us_per_shot, .self_us_per_step or .s
# is read from the span named by the rest of it.
LAYER_METRICS = {
    "simcore.apply_unitary.calls_per_shot": (
        "count", "shots_per_s, step_ms_p50 on gx21_noisy_long and cz_pinv; little on gx1_wide"),
    "simcore.apply_unitary.self_us_per_shot": (
        "us", "shots_per_s, step_ms_p50 on gx21_noisy_long and cz_pinv; little on gx1_wide"),
    "simcore.measure_computational.self_us_per_shot": ("us", "shots_per_s on gx1_wide"),
    "simcore.zero_state.self_us_per_shot": ("us", "shots_per_s on gx1_wide"),
    "simcore.apply_depolarizing.calls_per_shot": ("count", "shots_per_s on gx21_noisy_long only"),
    "simcore.apply_depolarizing.self_us_per_shot": ("us", "shots_per_s on gx21_noisy_long only"),
    "simcore.apply_depolarizing.fired_frac": ("fraction", "shots_per_s on gx21_noisy_long only"),
    "rng.draws_per_shot": ("count", "shots_per_s on gx21_noisy_long only"),
    "gates.build.calls_per_shot": ("count", "shots_per_s on cz_pinv and gx21_noisy_long"),
    "gates.build.self_us_per_shot": ("us", "shots_per_s on cz_pinv and gx21_noisy_long"),
    "circuits.run_circuit.self_us_per_shot": ("us", "shots_per_s on all three workloads"),
    "circuits.pseudoinverse_estimate.self_us_per_step": ("us", "shots_per_s on cz_pinv only"),
    "circuits.build_jacobian.s": ("s", "setup_s on cz_pinv only"),
    "drift.step.self_us_per_step": ("us", "step_ms_p50 on gx21_noisy_long"),
    "analytics.record_append.self_us_per_shot": (
        "us", "shots_per_s, step_ms_p90, peak_rss_mb on gx1_wide and cz_pinv; none on gx21_noisy_long"),
    "analytics.record_bytes_per_shot": (
        "B", "shots_per_s, step_ms_p90, peak_rss_mb on gx1_wide and cz_pinv; none on gx21_noisy_long"),
    "analytics.summarize.s": ("s", "none named; end-of-run cost"),
    "bench.driver.self_us_per_shot": ("us", "the harness's own share; not a target"),
    "trace.overhead_frac": ("fraction", "traced against untraced shots_per_s"),
}


class CountingRng:
    """Passes every call through to a Generator and counts the variates drawn."""

    def __init__(self, gen):
        self._gen = gen
        self.draws = 0

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.draws += np.size(out)
            return out
        return counted


class Tracer:
    """Spans, the fired-depolarization count and the rng proxies of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._phases: list[tuple[str, int]] = []     # (phase, first span index)
        self.fired = 0
        self.rngs: list[CountingRng] = []

    def phase(self, name: str) -> None:
        """Spans opened from now on belong to ``name``."""
        self._phases.append((name, len(self._start)))

    def counting_rng(self, gen) -> CountingRng:
        proxy = CountingRng(gen)
        self.rngs.append(proxy)
        return proxy

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        start, end, stack = self._start, self._end, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            self._name.append(nid)
            self._parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
        return traced

    @contextmanager
    def instrument(self):
        """Wrap every function in SPANS; restores the originals on exit."""
        saved = []
        try:
            for owner, attr, name in SPANS:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                traced = self.wrap(name, original)
                if attr == "apply_depolarizing":
                    traced = self._count_fired(traced)
                setattr(owner, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _count_fired(self, fn):
        def depolarize(state, *args, **kwargs):
            out = fn(state, *args, **kwargs)
            self.fired += out is not state
            return out
        return depolarize

    def totals(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per phase, per span name: calls, self seconds and total seconds."""
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        out = {}
        bounds = [i for _, i in self._phases[1:]] + [len(dur)]
        for (phase, lo), hi in zip(self._phases, bounds):
            sl = slice(lo, hi)
            calls = np.bincount(name[sl], minlength=k)
            selfs = np.bincount(name[sl], weights=self_s[sl], minlength=k)
            tot = np.bincount(name[sl], weights=dur[sl], minlength=k)
            out[phase] = {self.names[j]: {"calls": int(calls[j]), "self_s": float(selfs[j]),
                                          "total_s": float(tot[j])} for j in range(k)}
        return out

    def layer_metrics(self, wl: feedback.Workload, shots: int, steps: int,
                      record_bytes: int | None) -> tuple[dict[str, float], list[str]]:
        """Every per-layer metric this process can give, and the ones missing.

        A metric whose span is expected on ``wl`` but recorded no call in the
        phase it is read from is missing; one not expected reads 0.
        """
        totals = self.totals()
        loop = totals.get("loop", {})
        expected = expected_spans(wl)
        values, missing = {}, []

        def span_metric(metric, span, field):
            if field == "s":
                calls = sum(p.get(span, {}).get("calls", 0) for p in totals.values())
                value = sum(p.get(span, {}).get("total_s", 0.0) for p in totals.values())
            else:
                calls = loop.get(span, {}).get("calls", 0)
                per = shots if field.endswith("_per_shot") else steps
                key = "calls" if field.startswith("calls") else "self_s"
                scale = 1.0 if key == "calls" else 1e6
                value = scale * loop.get(span, {}).get(key, 0) / per
            if calls == 0 and span in expected:
                missing.append(metric)
            else:
                values[metric] = value

        for metric in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if field in ("calls_per_shot", "self_us_per_shot", "self_us_per_step", "s"):
                span_metric(metric, span, field)
        depol = loop.get("simcore.apply_depolarizing", {}).get("calls", 0)
        if depol:
            values["simcore.apply_depolarizing.fired_frac"] = self.fired / depol
        elif "simcore.apply_depolarizing" in expected:
            missing.append("simcore.apply_depolarizing.fired_frac")
        else:
            values["simcore.apply_depolarizing.fired_frac"] = 0.0
        values["rng.draws_per_shot"] = sum(r.draws for r in self.rngs) / shots
        if record_bytes is not None:
            values["analytics.record_bytes_per_shot"] = record_bytes / shots
        elif "analytics.record_append" in expected:
            missing.append("analytics.record_bytes_per_shot")
        else:
            values["analytics.record_bytes_per_shot"] = 0.0
        return values, missing


def retained_bytes(objs) -> int:
    """Bytes held by ``objs`` and everything they reach through lists and attributes.

    Objects reached twice (cached small ints, one-letter strings, a shared
    gain) count once.
    """
    seen, total, stack = set(), 0, list(objs)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return total
