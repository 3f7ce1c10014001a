"""Offline analysis of a telemetry JSONL stream (``repro stats``).

Reconstructs the per-iteration cost breakdown of a reconstruction run
from its event log: phase spans emitted by the reconstructor carry an
``iteration`` attribute, deeper spans (trace decode, symex engine runs)
are attributed to the iteration whose ``reconstruct.iteration`` end
event follows them in stream order, and the final ``snapshot`` event
supplies whole-run totals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: span names the reconstructor tags with an ``iteration`` attribute
PHASE_SPANS = {
    "reconstruct.production": "production_s",
    "reconstruct.symex": "symex_s",
    "reconstruct.selection": "selection_s",
}

#: untagged inner spans folded into the enclosing iteration
NESTED_SPANS = {
    "trace.decode": "decode_s",
}

#: coordination-overhead sources: table label -> histogram name.  Queue
#: wait is recorded by each fanned-out task (worker-side, folded into the
#: parent registry), the lock wait by ``DiskSolverCache`` around its
#: ``flock`` calls.
OVERHEAD_SOURCES = (
    ("queue wait", "parallel.queue_wait_seconds"),
    ("cache lock wait", "solver.diskcache.lock_wait_seconds"),
)


def overhead_attribution(metrics: Optional[Dict]) -> Dict[str, Dict]:
    """Coordination-overhead totals from a metric snapshot.

    Every :data:`OVERHEAD_SOURCES` entry is present in the result (zero
    when unrecorded) so downstream consumers — ``BENCH_parallel.json``,
    the fleet-mode scrape — get a stable schema.
    """
    histograms = (metrics or {}).get("histograms", {})
    out: Dict[str, Dict] = {}
    for label, name in OVERHEAD_SOURCES:
        h = histograms.get(name) or {}
        count = int(h.get("count", 0))
        total = float(h.get("sum", 0.0))
        out[name] = {
            "label": label,
            "count": count,
            "total_s": round(total, 6),
            "mean_s": round(total / count, 6) if count else 0.0,
        }
    return out


def _new_row(iteration: int) -> Dict:
    row = {"iteration": iteration, "status": "?", "instrs": 0,
           "trace_bytes": 0, "solver_calls": 0, "modelled_s": 0.0,
           "recorded_bytes": 0}
    for field in list(PHASE_SPANS.values()) + list(NESTED_SPANS.values()):
        row[field] = 0.0
    return row


def iteration_rows(events: Sequence[Dict]) -> List[Dict]:
    """Fold a telemetry event stream into one row per iteration."""
    rows: Dict[int, Dict] = {}
    pending_nested: Dict[str, float] = {}

    def row_for(iteration: int) -> Dict:
        return rows.setdefault(iteration, _new_row(iteration))

    for event in events:
        kind = event.get("type")
        name = event.get("name", "")
        attrs = event.get("attrs", {}) or {}
        if kind == "span" and name in PHASE_SPANS \
                and "iteration" in attrs:
            row = row_for(attrs["iteration"])
            row[PHASE_SPANS[name]] += event.get("dur_s", 0.0)
        elif kind == "span" and name in NESTED_SPANS:
            field = NESTED_SPANS[name]
            pending_nested[field] = (pending_nested.get(field, 0.0)
                                     + event.get("dur_s", 0.0))
        elif kind == "event" and name == "reconstruct.iteration":
            row = row_for(attrs.get("iteration", len(rows) + 1))
            row["status"] = attrs.get("status", row["status"])
            for key in ("instrs", "trace_bytes", "solver_calls",
                        "modelled_s", "recorded_bytes"):
                if key in attrs:
                    row[key] = attrs[key]
            for field, seconds in pending_nested.items():
                row[field] += seconds
            pending_nested.clear()
    return [rows[i] for i in sorted(rows)]


def final_snapshot(events: Sequence[Dict]) -> Optional[Dict]:
    """The last ``snapshot`` event's metrics, if any."""
    metrics = None
    for event in events:
        if event.get("type") == "snapshot":
            metrics = event.get("metrics")
    return metrics


def merge_snapshots(snapshots: Sequence[Optional[Dict]]) -> Dict:
    """Merge per-worker metric snapshots into one aggregate snapshot.

    The batch runner gives every worker process its own registry and
    folds them together afterwards.  Counters sum exactly; gauges are
    last-write-wins per process, so the merge keeps the max (the only
    order-independent choice); histograms merge count/sum/min/max
    exactly, recompute the mean, and count-weight the percentiles
    (approximate — the underlying samples stay in the workers).
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = max(gauges.get(name, value), value)
        for name, h in snap.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = dict(h)
                continue
            total = merged["count"] + h["count"]
            if total:
                for p in ("p50", "p90", "p99"):
                    merged[p] = (merged[p] * merged["count"]
                                 + h[p] * h["count"]) / total
            merged["count"] = total
            merged["sum"] += h["sum"]
            merged["min"] = min(merged["min"], h["min"])
            merged["max"] = max(merged["max"], h["max"])
            merged["mean"] = merged["sum"] / total if total else 0.0
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def render_stats(events: Sequence[Dict]) -> str:
    """Human-readable per-iteration breakdown + whole-run totals."""
    from ..evaluation.formatting import render_table

    parts: List[str] = []
    rows = iteration_rows(events)
    if rows:
        table_rows = []
        for row in rows:
            table_rows.append([
                row["iteration"], row["status"], row["instrs"],
                row["trace_bytes"],
                f"{row['production_s']:.3f}", f"{row['decode_s']:.3f}",
                f"{row['symex_s']:.3f}", f"{row['selection_s']:.3f}",
                row["solver_calls"], f"{row['modelled_s']:.1f}",
                row["recorded_bytes"],
            ])
        parts.append(render_table(
            ["iter", "status", "instrs", "trace B", "production s",
             "decode s", "symex s", "select s", "solver calls",
             "modelled s", "recorded B"],
            table_rows, "Per-iteration cost breakdown"))
    else:
        parts.append("no per-iteration events in this stream "
                     "(not a `repro reproduce --telemetry` log?)")

    metrics = final_snapshot(events)
    if metrics:
        counters = metrics.get("counters", {})
        if counters:
            parts.append(render_table(
                ["counter", "value"],
                sorted(counters.items()), "Counters"))
        hits = counters.get("solver.cache.hits", 0)
        misses = counters.get("solver.cache.misses", 0)
        if hits or misses:
            probes = counters.get("solver.cache.model_probe_hits", 0)
            # a successful model probe is counted as a miss plus
            # model_probe_hits, so fold it back into the answered side;
            # subsumption/disk answers already ride inside `hits`
            rate = (hits + probes) / (hits + misses)
            line = (f"solver cache: {hits} hits / {misses} misses "
                    f"({rate:.1%} hit rate incl. "
                    f"{probes} model-probe hits)")
            subsumed = counters.get("solver.cache.subsumption_hits", 0)
            disk = counters.get("solver.cache.disk_hits", 0)
            if subsumed or disk:
                line += (f", {subsumed} subsumption hits, "
                         f"{disk} disk hits")
                tiers = [
                    (name, counters.get(f"solver.cache.disk_hits_{name}",
                                        0))
                    for name in ("exact", "subsume", "values")]
                if any(value for _, value in tiers):
                    # per-tier disk attribution: `disk_hits` alone folds
                    # exact, subsume, and value-enumeration answers
                    line += (" ("
                             + ", ".join(f"{value} {name}"
                                         for name, value in tiers)
                             + ")")
            parts.append(line)
        inc_queries = counters.get("solver.incremental.queries", 0)
        if inc_queries:
            parts.append(
                f"incremental solving: {inc_queries} session queries, "
                f"{counters.get('solver.incremental.reused_terms', 0)} "
                f"constraints answered from the assumption stack, "
                f"{counters.get('solver.incremental.conflicts_learned', 0)} "
                f"conflicts learned, "
                f"{counters.get('solver.incremental.skipped_candidates', 0)} "
                f"candidates pruned")
        histograms = metrics.get("histograms", {})
        reports = counters.get("serve.reports", 0)
        if reports:
            wait = histograms.get(
                "serve.first_reoccurrence_wait_seconds", {})
            parts.append(
                f"fleet serve: {reports} failure reports over "
                f"{counters.get('serve.instance_runs', 0)} instance "
                f"runs into {counters.get('serve.buckets', 0)} "
                f"signature bucket(s); "
                f"{counters.get('serve.deduplicated_reports', 0)} "
                f"deduplicated, "
                f"{counters.get('serve.stale_reports', 0)} stale, "
                f"{counters.get('serve.redeployments', 0)} "
                f"redeployments, "
                f"{counters.get('serve.instance_errors', 0)} instance "
                f"errors; reoccurrence wait "
                f"{wait.get('sum', 0.0):.3f}s across "
                f"{wait.get('count', 0)} bucket(s)")
        overhead_names = {name for _, name in OVERHEAD_SOURCES}
        span_rows = []
        metric_rows = []
        for name, h in sorted(histograms.items()):
            if name in overhead_names:
                continue  # rendered in the overhead-attribution table
            if name.startswith("span."):
                span_rows.append([name[len("span."):], h["count"],
                                  f"{h['sum']:.3f}", f"{h['mean']:.4f}",
                                  f"{h['p90']:.4f}"])
            else:
                metric_rows.append([name, h["count"], f"{h['min']:.0f}",
                                    f"{h['mean']:.1f}",
                                    f"{h['p90']:.1f}", f"{h['max']:.0f}"])
        if span_rows:
            parts.append(render_table(
                ["span", "count", "total s", "mean s", "p90 s"],
                span_rows, "Span timings"))
        if metric_rows:
            parts.append(render_table(
                ["histogram", "count", "min", "mean", "p90", "max"],
                metric_rows, "Metric histograms"))
        overhead = overhead_attribution(metrics)
        if any(entry["count"] for entry in overhead.values()):
            parts.append(render_table(
                ["source", "count", "total s", "mean s"],
                [[entry["label"], entry["count"],
                  f"{entry['total_s']:.3f}", f"{entry['mean_s']:.4f}"]
                 for entry in overhead.values()],
                "Overhead attribution"))
    return "\n\n".join(parts)
