"""Per-layer spans for the layer benchmark, recorded from outside ``src/``.

:class:`LayerTracer` wraps the public entry point of every layer (the
table in :data:`ENTRY_POINTS`) with a span and restores the originals on
:meth:`LayerTracer.uninstall`.  Spans live on a **thread-local** stack:
the fleet workload runs reconstructions, production instances and
deferred production runs on their own threads, and a process-wide stack
would charge one thread's child span to another thread's parent.

A span's *self* time is its wall time minus the wall time of the child
spans opened on the same thread; ``cpu_s`` is the same split of
``time.thread_time``.  A re-entrant call (a layer already open on this
thread) folds into the outer span, so each layer is counted once per
outermost call.  Spans are kept in memory and exported once, at the end
of the run, as a Perfetto file through :mod:`repro.telemetry.traceexport`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: the layers, in the order the README's table lists them
LAYERS = (
    "solver.evaluator", "solver.search", "solver", "symex.engine",
    "symex.gaps", "solver.incremental", "interp", "trace.encode",
    "trace.decode", "trace.degrade", "core.production", "solver.cache",
    "solver.diskcache", "serve", "core.selection", "core.instrument",
    "core.verify", "core.reconstructor",
)

#: layers only some workloads run: gap recovery (lossy-trace), the disk
#: tier and the service (fleet); elsewhere their times are 0.0
PARTIAL_LAYERS = ("symex.gaps", "solver.incremental", "trace.degrade",
                  "solver.diskcache", "serve")

#: every per-layer metric of a traced run, with its unit
METRIC_UNITS: Dict[str, str] = {}
for _layer in LAYERS:
    METRIC_UNITS.update({f"{_layer}.self_s": "s", f"{_layer}.cpu_s": "s",
                         f"{_layer}.calls": "count"})
METRIC_UNITS.update({
    "solver.timeouts": "count", "solver.unsat": "count",
    "symex.engine.instrs": "count", "symex.gaps.attempts": "count",
    "interp.instrs": "count", "interp.instrs_per_s": "1/s",
    "trace.encode.bytes": "B", "solver.cache.hit_ratio": "ratio",
    "solver.diskcache.hit_ratio": "ratio", "serve.dedup_ratio": "ratio",
    "serve.wait_s": "s", "serve.instance_runs": "count",
    "unattributed_s": "s", "unattributed_cpu_s": "s",
    "tracing.overhead_frac": "ratio",
})


def _symex_result(counts: Counter, layer: str, args, result) -> None:
    counts["symex.engine.instrs"] += result.stats.instrs_executed


def _gap_result(counts: Counter, layer: str, args, result) -> None:
    counts["symex.gaps.attempts"] += result.gap_attempts


def _run_result(counts: Counter, layer: str, args, result) -> None:
    counts["interp.instrs"] += result.instr_count
    tracer = args[0].tracer
    if hasattr(tracer, "bytes_emitted"):
        counts["trace.encode.bytes"] += tracer.bytes_emitted


def _lookup(counts: Counter, layer: str, args, result) -> None:
    counts[f"{layer}.lookups"] += 1
    if result is not None:
        counts[f"{layer}.hits"] += 1


#: (layer, module, attribute path, hook) — ``attribute path`` is a
#: module-level name or ``Class.method``; ``hook``, if any, turns a
#: call's result into counters
ENTRY_POINTS = (
    ("solver.evaluator", "repro.solver.solver", "tv_eval", None),
    ("solver.search", "repro.solver.backend", "ReferenceBackend.search",
     None),
    ("solver", "repro.solver.solver", "Solver.solve", None),
    ("solver", "repro.solver.solver", "Solver.is_feasible", None),
    ("solver", "repro.solver.solver", "Solver.feasible_values", None),
    ("symex.engine", "repro.symex.engine", "ShepherdedSymex.run",
     _symex_result),
    ("symex.gaps", "repro.symex.gaps", "replay_with_gap_recovery",
     _gap_result),
    ("solver.incremental", "repro.solver.incremental",
     "AssumptionStack.align", None),
    ("solver.incremental", "repro.solver.incremental",
     "AssumptionStack.extend", None),
    ("solver.incremental", "repro.solver.incremental",
     "AssumptionStack.retained", None),
    ("interp", "repro.interp.interpreter", "Interpreter.run", _run_result),
    ("trace.encode", "repro.trace.encoder", "PTEncoder.begin_chunk", None),
    ("trace.encode", "repro.trace.encoder", "PTEncoder.on_branch", None),
    ("trace.encode", "repro.trace.encoder", "PTEncoder.on_ptwrite", None),
    ("trace.encode", "repro.trace.encoder", "PTEncoder.end_chunk", None),
    # production.py binds ``decode`` at import; the other two are
    # imported at call time, so their defining modules are patched
    ("trace.decode", "repro.core.production", "decode", None),
    ("trace.degrade", "repro.trace.degrade", "degrade_trace", None),
    ("trace.degrade", "repro.trace.merge", "merge_trace_by_timestamp", None),
    ("core.production", "repro.core.production", "ProductionSite.run_once",
     None),
    # spawns the run's thread (the fleet's instances start every run)
    ("core.production", "repro.core.production", "ProductionSite.start",
     None),
    ("solver.cache", "repro.solver.cache", "SolverCache.lookup_feasible",
     _lookup),
    ("solver.cache", "repro.solver.cache", "SolverCache.peek_feasible",
     _lookup),
    ("solver.cache", "repro.solver.cache", "SolverCache.lookup_subsumed",
     _lookup),
    ("solver.cache", "repro.solver.cache", "SolverCache.superset_model",
     _lookup),
    ("solver.cache", "repro.solver.cache", "SolverCache.lookup_values",
     _lookup),
    ("solver.cache", "repro.solver.cache",
     "SolverCache.lookup_values_persistent", _lookup),
    ("solver.cache", "repro.solver.cache", "SolverCache.store_feasible",
     None),
    ("solver.cache", "repro.solver.cache", "SolverCache.store_values", None),
    ("solver.cache", "repro.solver.cache", "SolverCache.record_model", None),
    ("solver.diskcache", "repro.solver.diskcache",
     "DiskSolverCache.__init__", None),
    ("solver.diskcache", "repro.solver.diskcache", "DiskSolverCache.lookup",
     _lookup),
    ("solver.diskcache", "repro.solver.diskcache",
     "DiskSolverCache.lookup_values", _lookup),
    ("solver.diskcache", "repro.solver.diskcache", "DiskSolverCache.store",
     None),
    ("solver.diskcache", "repro.solver.diskcache",
     "DiskSolverCache.store_values", None),
    # the service's own work: on its thread, deploying and waiting for
    # the fleet to settle; on an instance's, signing a report; on the
    # dispatcher's, routing it; on a job's, waiting for the next one
    ("serve", "repro.serve", "FleetService.run", None),
    ("serve", "repro.serve", "canonical_signature", None),
    ("serve", "repro.serve", "SignatureBucket.offer", None),
    ("serve", "repro.serve", "SignatureBucket.take", None),
    ("core.instrument", "repro.core.reconstructor", "instrument", None),
    ("core.verify", "repro.core.reconstructor",
     "ExecutionReconstructor._verify", None),
    ("core.reconstructor", "repro.core.reconstructor",
     "ExecutionReconstructor.reconstruct", None),
)

#: spans shorter than this stay in the layer table but not on the
#: Perfetto timeline (the evaluator alone opens ~200 K spans per round);
#: a parent always outlasts its children, so the kept spans form a tree
TIMELINE_MIN_S = 1e-4


class _ThreadSpans:
    """One thread's open-span stack and its totals."""

    def __init__(self, index: int):
        self.index = index
        #: open spans: [child wall, child cpu] accumulated by children
        self.stack: List[List[float]] = []
        self.open: set = set()
        #: layer -> [self wall, self cpu, calls]
        self.layers: Dict[str, List[float]] = defaultdict(
            lambda: [0.0, 0.0, 0])
        self.counts: Counter = Counter()
        #: (layer, start, wall) of spans kept for the timeline
        self.spans: List[Tuple[str, float, float]] = []


class LayerTracer:
    """Installs spans around every layer entry point; collects totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadSpans] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer spans are already installed")
        for layer, module_name, path, hook in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = inspect.getattr_static(owner, attr)
            is_static = isinstance(original, staticmethod)
            fn = original.__func__ if is_static else original
            wrapped = self._wrap(layer, fn, hook)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, staticmethod(wrapped) if is_static
                    else wrapped)
        # selection is bound as a keyword default at class definition,
        # so every reconstructor built without an explicit selection —
        # including the fleet's — picks the wrapped one up from here
        from repro.core.reconstructor import ExecutionReconstructor

        defaults = ExecutionReconstructor.__init__.__kwdefaults__
        self._patches.append((defaults, "selection", defaults["selection"]))
        defaults["selection"] = self._wrap("core.selection",
                                           defaults["selection"], None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- spans -----------------------------------------------------------

    def _state(self) -> _ThreadSpans:
        with self._lock:
            state = _ThreadSpans(len(self._threads))
            self._threads.append(state)
        self._local.state = state
        return state

    def _wrap(self, layer: str, fn: Callable,
              hook: Optional[Callable]) -> Callable:
        local = self._local
        new_state = self._state
        perf_counter = time.perf_counter
        thread_time = time.thread_time

        def traced(*args, **kwargs):
            state = getattr(local, "state", None) or new_state()
            if layer in state.open:
                return fn(*args, **kwargs)
            state.open.add(layer)
            children = [0.0, 0.0]
            stack = state.stack
            stack.append(children)
            cpu0 = thread_time()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                state.counts[f"{layer}!{type(exc).__name__}"] += 1
                raise
            finally:
                wall = perf_counter() - start
                cpu = thread_time() - cpu0
                stack.pop()
                state.open.discard(layer)
                totals = state.layers[layer]
                totals[0] += wall - children[0]
                totals[1] += cpu - children[1]
                totals[2] += 1
                if stack:
                    parent = stack[-1]
                    parent[0] += wall
                    parent[1] += cpu
                if wall >= TIMELINE_MIN_S:
                    state.spans.append((layer, start, wall))
            if hook is not None:
                hook(state.counts, layer, args, result)
            return result

        return traced

    # -- results ---------------------------------------------------------

    def totals(self) -> Tuple[Dict[str, List[float]], Counter]:
        """Per-layer [self wall, self cpu, calls] and counters, summed
        over every thread that opened a span."""
        layers: Dict[str, List[float]] = {
            name: [0.0, 0.0, 0] for name in LAYERS}
        counts: Counter = Counter()
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (wall, cpu, calls) in state.layers.items():
                total = layers[name]
                total[0] += wall
                total[1] += cpu
                total[2] += calls
            counts.update(state.counts)
        return layers, counts

    def write_perfetto(self, path: str) -> int:
        """Export the kept spans as Chrome/Perfetto trace-event JSON, one
        track per thread; returns the number of trace records."""
        from repro.telemetry.traceexport import build_trace, validate_trace

        pid = os.getpid()
        events = []
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for layer, start, wall in state.spans:
                events.append({
                    "type": "span", "name": layer, "pid": pid,
                    "ts": start + wall - self.origin, "dur_s": wall,
                    "attrs": {"thread": state.index}})
        doc = build_trace(events)
        for record in doc["traceEvents"]:
            if record["ph"] == "X":
                record["tid"] = record["args"]["thread"]
        problems = validate_trace(doc)
        if problems:
            raise ValueError(f"invalid Perfetto trace: {problems[:3]}")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return len(doc["traceEvents"])


def layer_metrics(layers: Dict[str, List[float]], counts: Counter,
                  rounds: int, traced_wall_s: float, traced_cpu_s: float,
                  traced_round_s: float,
                  untraced_round_s: float) -> Dict[str, float]:
    """The per-round per-layer metrics of one traced run.

    ``traced_wall_s`` is the summed wall time of the ``rounds`` traced
    rounds: what the layers' self times add up to, less
    ``unattributed_s``.  ``traced_cpu_s`` is their process CPU time,
    every thread included: what the layers' ``cpu_s`` add up to, less
    ``unattributed_cpu_s``; where threads overlap (the fleet) only this
    residual is meaningful.  ``traced_round_s``/``untraced_round_s``
    are the median round wall times with spans installed and without;
    their ratio is the tracing overhead.
    """
    out: Dict[str, float] = {}
    self_total = cpu_total = 0.0
    for name in LAYERS:
        wall, cpu, calls = layers[name]
        self_total += wall
        cpu_total += cpu
        out[f"{name}.self_s"] = wall / rounds
        out[f"{name}.cpu_s"] = cpu / rounds
        out[f"{name}.calls"] = calls / rounds
    out["solver.timeouts"] = counts["solver!SolverTimeout"] / rounds
    out["solver.unsat"] = counts["solver!UnsatError"] / rounds
    for name in ("symex.engine.instrs", "symex.gaps.attempts",
                 "interp.instrs", "trace.encode.bytes"):
        out[name] = counts[name] / rounds
    interp_s = layers["interp"][0]
    out["interp.instrs_per_s"] = (counts["interp.instrs"] / interp_s
                                  if interp_s else 0.0)
    for name in ("solver.cache", "solver.diskcache"):
        lookups = counts[f"{name}.lookups"]
        out[f"{name}.hit_ratio"] = (counts[f"{name}.hits"] / lookups
                                    if lookups else 0.0)
    out["unattributed_s"] = (traced_wall_s - self_total) / rounds
    out["unattributed_cpu_s"] = (traced_cpu_s - cpu_total) / rounds
    out["tracing.overhead_frac"] = traced_round_s / untraced_round_s - 1.0
    return out
