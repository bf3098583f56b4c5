"""Traced runs: spans at layer boundaries, collector pauses, profiler self time.

A traced run first times one untraced round, the baseline its overhead is
stated against, then repeats pairs of traced rounds until ``--seconds``
are spent (at least one pair).  The first round of a pair

- wraps the public entry points in :data:`ENTRY_POINTS` with spans that
  record name, start, end and parent; a generator entry point (a proxy
  request, a transport delivery, a client connect) gets one span per
  resumption, so simulated waiting is never counted as host time;
- registers a ``gc.callbacks`` hook that sums collector pauses;

and the second runs under :mod:`cProfile`, whose self time is grouped by
``repro.<package>``, for layers whose work has no entry point the
benchmark could wrap (the event loop, routing, coherence, telemetry).
``trace.overhead`` is the span round's host time over the untraced
round's.

Spans stay in memory and are written, one JSON object a line, when the
run ends (``run.py`` puts them in ``.perfbench/`` under the repository
root).  Untraced runs import nothing from here: they install
no wrapper and no ``gc`` callback.
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import inspect
import json
import os
import pstats
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from checks import percentile

#: spans kept for export; aggregates count every span
SPAN_CAP = 50_000

#: (module, attribute path, span name)
ENTRY_POINTS = (
    ("repro.planner.planner", "Planner.plan", "planner.plan"),
    ("repro.planner.planner", "Planner.replan_incremental", "planner.replan"),
    ("repro.smock.runtime", "SmockRuntime.client_connect", "smock.bind"),
    ("repro.smock.runtime", "SmockRuntime.deploy_manual", "smock.bind"),
    ("repro.smock.proxy", "ServiceProxy.request", "smock.request"),
    ("repro.smock.transport", "RuntimeTransport.deliver", "smock.deliver"),
    ("repro.network.topology", "Network.path", "network.path"),
    ("repro.services.mail.components", "encrypt", "mail.crypto"),
    ("repro.services.mail.components", "decrypt", "mail.crypto"),
    ("repro.faults.injector", "FaultInjector.apply", "faults.apply"),
)

#: (name, unit) of the per-layer metrics, in BENCHMARK.json's order
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.events_per_op", "events/op"),
    ("sim.self_s", "s"),
    ("network.route_calls", "count"),
    ("network.self_s", "s"),
    ("planner.calls", "count"),
    ("planner.busy_s", "s"),
    ("planner.plan_cache_hit_ratio", "ratio"),
    ("planner.ctx_cache_hit_ratio", "ratio"),
    ("smock.binds", "count"),
    ("smock.bind_busy_s", "s"),
    ("smock.bind_ms", "sim_ms"),
    ("smock.messages", "count"),
    ("smock.bytes", "bytes"),
    ("smock.self_s", "s"),
    ("smock.overload_self_s", "s"),
    ("smock.retries", "count"),
    ("smock.rebinds", "count"),
    ("smock.replan_rounds", "count"),
    ("smock.lookup_failovers", "count"),
    ("smock.send_p50_ms", "sim_ms"),
    ("smock.send_p99_ms", "sim_ms"),
    ("smock.fetch_p50_ms", "sim_ms"),
    ("coherence.syncs", "count"),
    ("coherence.invalidations", "count"),
    ("coherence.reconciled", "count"),
    ("coherence.self_s", "s"),
    ("mail.self_s", "s"),
    ("mail.crypto_busy_s", "s"),
    ("mail.crypto_cache_hit_ratio", "ratio"),
    ("obs.self_s", "s"),
    ("obs.samples", "count"),
    ("autonomic.signals", "count"),
    ("autonomic.actions", "count"),
    ("autonomic.self_s", "s"),
    ("autonomic.scale_out_ms", "sim_ms"),
    ("faults.injected", "count"),
    ("faults.self_s", "s"),
    ("faults.recovery_ms", "sim_ms"),
    ("gc.pause_s", "s"),
    ("gc.collections", "count"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
)


class SpanRecorder:
    """Spans in memory, plus per-layer busy time.

    A layer's busy time is the summed duration of its outermost spans
    (a planner span inside another planner span adds nothing).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.count = 0
        self.calls: Dict[str, int] = {}
        self.busy: Dict[str, float] = {}
        self._stack: List[int] = []
        self._depth: Dict[str, int] = {}
        self._next = 0

    def open(self, name: str) -> Tuple[int, Optional[int], str, float]:
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._next)
        self._depth[name] = self._depth.get(name, 0) + 1
        return self._next, parent, name, time.perf_counter()

    def close(self, span: Tuple[int, Optional[int], str, float]) -> None:
        end = time.perf_counter()
        span_id, parent, name, start = span
        self._stack.pop()
        self.count += 1
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.busy[name] = self.busy.get(name, 0.0) + (end - start)
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, name, start, end))

    def note_call(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({
                "run": self.run_id, "spans": self.count,
                "kept": len(self.spans),
            }) + "\n")
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def _function_wrapper(fn: Callable, name: str, rec: SpanRecorder) -> Callable:
    def traced(*args, **kwargs):
        rec.note_call(name)
        span = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)
    return traced


def _generator_wrapper(fn: Callable, name: str, rec: SpanRecorder) -> Callable:
    def traced(*args, **kwargs):
        rec.note_call(name)
        return _timed_resumptions(fn(*args, **kwargs), name, rec)
    return traced


def _timed_resumptions(gen, name: str, rec: SpanRecorder):
    """Delegate to ``gen`` like ``yield from``, one span per resumption."""
    value, error = None, None
    while True:
        span = rec.open(name)
        try:
            out = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.close(span)
        try:
            value, error = (yield out), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # handed on to the wrapped generator
            value, error = None, exc


class Instrumentation:
    """Install and remove the span wrappers and the ``gc`` hook."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._undo: List[Tuple[Any, str, Any]] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def _on_gc(self, phase: str, _info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def __enter__(self) -> "Instrumentation":
        for module_name, path, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrap = (
                _generator_wrapper if inspect.isgeneratorfunction(fn)
                else _function_wrapper
            )
            setattr(owner, attr, wrap(fn, name, self.rec))
            self._undo.append((owner, attr, fn))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


def self_time_by_layer(profile: cProfile.Profile) -> Dict[str, float]:
    """Profiler self time grouped by ``repro.<package>`` (plus
    ``smock.overload`` on its own, also counted in ``smock``)."""
    out: Dict[str, float] = {}
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    marker = f"{os.sep}repro{os.sep}"
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.items():
        i = filename.rfind(marker)
        if i < 0:
            continue
        parts = filename[i + len(marker):].split(os.sep)
        layer = "mail" if parts[:2] == ["services", "mail"] else parts[0]
        if layer.endswith(".py"):
            layer = "repro"
        out[layer] = out.get(layer, 0.0) + tottime
        if parts[:2] == ["smock", "overload.py"]:
            out["smock.overload"] = out.get("smock.overload", 0.0) + tottime
    return out


def _crypto_cache() -> Tuple[int, int]:
    """(hits, lookups) of the message-level crypto memo caches."""
    from repro.services.mail import crypto

    hits = lookups = 0
    for cache in (crypto._encrypt_cached, crypto._decrypt_cached):
        info = cache.cache_info()
        hits += info.hits
        lookups += info.hits + info.misses
    return hits, lookups


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(workload: Any, seconds: float, out: Path):
    """One untraced round, then traced rounds; returns (rounds, metrics).
    The spans are written to ``out``."""
    start = time.perf_counter()
    gc.collect()
    baseline = workload.run_round()
    rounds, spanned, profiled = [baseline], [], []
    rec = SpanRecorder(f"{workload.name}-{os.getpid()}-{time.time_ns()}")
    while True:
        # Spans and the profiler in separate rounds: cProfile's per-call
        # cost would otherwise inflate every span's duration.
        gc.collect()
        before = _crypto_cache()
        busy0, calls0 = dict(rec.busy), dict(rec.calls)
        with Instrumentation(rec) as inst:
            rounds.append(workload.run_round())
        after = _crypto_cache()
        spanned.append({
            "wall_s": rounds[-1].wall_s,
            "busy": {k: v - busy0.get(k, 0.0) for k, v in rec.busy.items()},
            "calls": {k: v - calls0.get(k, 0) for k, v in rec.calls.items()},
            "crypto": (after[0] - before[0], after[1] - before[1]),
            "gc": (inst.gc_pause_s, inst.gc_collections),
        })
        gc.collect()
        profile = cProfile.Profile()
        profile.enable()
        try:
            rounds.append(workload.run_round())
        finally:
            profile.disable()
        profiled.append(self_time_by_layer(profile))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (len(rounds) - 1) * 2 > seconds:
            break

    def busy(*names: str) -> float:
        return statistics.median(
            sum(s["busy"].get(n, 0.0) for n in names) for s in spanned
        )

    def self_s(layer: str) -> float:
        return statistics.median(p.get(layer, 0.0) for p in profiled)

    first = rounds[1]
    c = first.counters
    calls = spanned[0]["calls"]
    send = sorted(first.send_ms)
    metrics = {
        "sim.events": c["sim.events"],
        "sim.events_per_op": c["sim.events"] / first.attempted,
        "sim.self_s": self_s("sim"),
        "network.route_calls": calls.get("network.path", 0),
        "network.self_s": self_s("network"),
        "planner.calls": calls.get("planner.plan", 0) + calls.get("planner.replan", 0),
        "planner.busy_s": busy("planner.plan", "planner.replan"),
        "planner.plan_cache_hit_ratio": _ratio(
            c.get("planner.plan_hits", 0), c.get("planner.plan_lookups", 0)),
        "planner.ctx_cache_hit_ratio": _ratio(
            c["planner.ctx_hits"], c["planner.ctx_lookups"]),
        "smock.binds": len(first.bind_ms),
        "smock.bind_busy_s": busy("smock.bind"),
        "smock.bind_ms": statistics.fmean(first.bind_ms),
        "smock.messages": c["smock.messages"],
        "smock.bytes": c["smock.bytes"],
        "smock.self_s": self_s("smock"),
        "smock.overload_self_s": self_s("smock.overload"),
        "smock.retries": c["smock.retries"],
        "smock.rebinds": c.get("smock.rebinds", 0),
        "smock.replan_rounds": c.get("smock.replan_rounds", 0),
        "smock.lookup_failovers": c["smock.lookup_failovers"],
        "smock.send_p50_ms": percentile(send, 50),
        "smock.send_p99_ms": percentile(send, 99),
        "smock.fetch_p50_ms": percentile(sorted(first.fetch_ms), 50),
        "coherence.syncs": c["coherence.syncs"],
        "coherence.invalidations": c["coherence.invalidations"],
        "coherence.reconciled": c["coherence.reconciled"],
        "coherence.self_s": self_s("coherence"),
        "mail.self_s": self_s("mail"),
        "mail.crypto_busy_s": busy("mail.crypto"),
        "mail.crypto_cache_hit_ratio": _ratio(*spanned[0]["crypto"]),
        "obs.self_s": self_s("obs"),
        "obs.samples": c.get("obs.samples", 0),
        "autonomic.signals": c.get("autonomic.signals", 0),
        "autonomic.actions": c.get("autonomic.actions", 0),
        "autonomic.self_s": self_s("autonomic"),
        "autonomic.scale_out_ms": _median_or_zero(first.outcomes.get("scale_out_ms")),
        "faults.injected": c.get("faults.injected", 0),
        "faults.self_s": self_s("faults"),
        "faults.recovery_ms": _median_or_zero(first.outcomes.get("recovery_ms")),
        "gc.pause_s": statistics.median(s["gc"][0] for s in spanned),
        "gc.collections": spanned[0]["gc"][1],
        "trace.overhead": (
            statistics.median(s["wall_s"] for s in spanned) / baseline.wall_s
        ),
        "trace.spans": rec.count,
    }
    rec.write(out)
    return rounds, metrics


def _median_or_zero(values: Optional[List[float]]) -> float:
    return statistics.median(values) if values else 0.0
