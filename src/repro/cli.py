"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    The Table-1 workload registry.
``reproduce WORKLOAD``
    Run the full iterative reconstruction for one workload and print
    the report (occurrences, recorded values, generated inputs).
``run FILE.eir``
    Execute a textual-IR program against streams given on the command
    line (``--stream name=hex`` or ``name=@path``).
``trace FILE.eir``
    Execute under the PT tracer and dump the decoded trace.
``report``
    Regenerate every evaluation table/figure into one markdown file.
``bench``
    Batch-reconstruct workloads serially and with a process pool;
    report the speedup and solver-cache hit rates (``repro bench
    --parallel 4 -o BENCH_parallel.json``).
``cache stats|compact|merge|verify``
    Maintain a persistent solver-cache store: show its segment layout
    and droppable-entry counts, seal + compact it in place (``repro
    cache compact --cache-dir DIR``), union two machines' stores
    (``repro cache merge A B -o OUT``), or check manifest/segment
    consistency (``verify`` exits non-zero on a corrupt or
    inconsistent manifest, zero with warnings for tolerated states
    like torn tails and orphan files).
``stats TELEMETRY.jsonl``
    Render the per-iteration cost breakdown of a recorded run —
    including the coordination-overhead attribution table for parallel
    runs; ``--openmetrics`` emits the final snapshot in the
    Prometheus/OpenMetrics text format instead.
``trace-export TELEMETRY.jsonl -o trace.json``
    Convert a recorded (possibly merged) event log into Chrome/Perfetto
    trace-event JSON, one track per worker process.

Diagnostics (every command): ``-v``/``-vv`` or ``--log-level`` turn on
logging to stderr, ``--telemetry OUT.jsonl`` streams structured spans,
events, and a final metric snapshot to a JSONL file, ``--trace-out
TRACE.json`` writes the same stream as a Perfetto-openable trace, and
``--json`` (where offered) switches the output to machine-readable
JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import pathlib
import sys
from typing import Dict, List, Optional

from . import telemetry
from .core import ExecutionReconstructor, ProductionSite
from .errors import ReproError
from .evaluation.formatting import render_table
from .interp.env import Environment
from .interp.interpreter import Interpreter
from .ir import parse_module, verify_module
from .trace.decoder import decode
from .trace.encoder import PTEncoder
from .trace.inspect import format_trace
from .trace.ringbuffer import RingBuffer
from .workloads import all_workloads, get_workload

logger = logging.getLogger(__name__)


def _parse_streams(pairs: List[str]) -> Dict[str, bytes]:
    streams: Dict[str, bytes] = {}
    for pair in pairs or ():
        name, _, value = pair.partition("=")
        if not name or not value:
            raise SystemExit(f"bad --stream {pair!r}: want name=hex or "
                             "name=@file")
        if value.startswith("@"):
            streams[name] = pathlib.Path(value[1:]).read_bytes()
        elif value.startswith("text:"):
            streams[name] = value[len("text:"):].encode() + b"\x00"
        else:
            streams[name] = bytes.fromhex(value)
    return streams


def _load_module(path: str):
    text = pathlib.Path(path).read_text()
    module = parse_module(text)
    verify_module(module)
    return module


# ----------------------------------------------------------------------
# diagnostics wiring

def _setup_logging(args) -> None:
    """Configure the ``repro`` root logger from -v/-vv/--log-level.

    Only the CLI attaches handlers (library code never calls
    ``basicConfig``); rerunning ``main`` replaces the handler instead of
    stacking duplicates.
    """
    verbosity = getattr(args, "verbose", 0)
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    explicit = getattr(args, "log_level", None)
    if explicit:
        level = getattr(logging, explicit.upper())
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_cli", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)-7s %(name)s: %(message)s"))
    handler._repro_cli = True
    root.addHandler(handler)
    root.setLevel(level)


@contextlib.contextmanager
def _telemetry_scope(args):
    """Install a fresh registry for one command invocation.

    ``--telemetry`` streams events to a JSONL sink; ``--trace-out``
    additionally (or alone) buffers them in memory and renders the
    buffer as Chrome/Perfetto trace-event JSON on the way out.  Both at
    once tee into the two sinks.  The final snapshot is emitted before
    either file is finalized.
    """
    path = getattr(args, "telemetry", None)
    trace_out = getattr(args, "trace_out", None)
    if not path and not trace_out:
        yield telemetry.get()
        return
    buffer = telemetry.MemorySink() if trace_out else None
    sinks: List[telemetry.Sink] = []
    if path:
        sinks.append(telemetry.JsonlSink(path))
    if buffer is not None:
        sinks.append(buffer)
    sink = sinks[0] if len(sinks) == 1 else telemetry.TeeSink(*sinks)
    registry = telemetry.Telemetry(sink)
    with telemetry.scoped(registry):
        try:
            yield registry
        finally:
            registry.close()
            if path:
                logger.info("telemetry written to %s", path)
            if buffer is not None:
                records = telemetry.write_trace(buffer.events, trace_out)
                logger.info("trace written to %s (%d records)",
                            trace_out, records)


# ----------------------------------------------------------------------
# commands

def cmd_list(args) -> int:
    rows = []
    for workload in all_workloads():
        rows.append([workload.name, workload.app, workload.bug_type,
                     "Y" if workload.multithreaded else "N",
                     workload.paper_occurrences, workload.work_limit])
    print(render_table(
        ["name", "application", "bug type", "MT", "paper #Occur",
         "work limit"], rows, "Table-1 workloads"))
    return 0


def cmd_reproduce(args) -> int:
    workload = get_workload(args.workload)
    module = workload.fresh_module()
    recovery = bool(args.trace_recovery or args.mapping_loss > 0)
    reconstructor = ExecutionReconstructor(
        module,
        work_limit=args.work_limit or workload.work_limit,
        max_occurrences=args.max_occurrences or workload.max_occurrences,
        trace_recovery=recovery,
        cache_dir=args.cache_dir,
        incremental=args.incremental)
    site = ProductionSite(workload.failing_env,
                          trace_after=args.trace_after,
                          mapping_loss=args.mapping_loss,
                          per_cpu_buffers=args.mapping_loss > 0)
    report = reconstructor.reconstruct(site)

    minimized = None
    if report.success and args.minimize:
        from .core.minimize import minimize_test_case

        minimized = minimize_test_case(workload.fresh_module(),
                                       report.test_case, report.failure)

    if args.json:
        data = report.to_dict(
            telemetry_snapshot=telemetry.get().snapshot())
        data["workload"] = args.workload
        if minimized is not None:
            data["minimized_streams"] = {
                name: stream.hex()
                for name, stream in sorted(minimized.streams.items())}
        print(json.dumps(data, indent=2))
        return 0 if report.success else 1

    print(report.summary())
    if minimized is not None:
        print("\nminimized test case:")
        for stream, data in sorted(minimized.streams.items()):
            print(f"  input {stream!r}: {data!r}")
    return 0 if report.success else 1


def cmd_run(args) -> int:
    module = _load_module(args.file)
    env = Environment(_parse_streams(args.stream), quantum=args.quantum)
    result = Interpreter(module, env).run()
    for stream, data in sorted(result.outputs.items()):
        print(f"output {stream!r}: {data.hex()} ({data!r})")
    print(f"{result.instr_count} instructions, "
          f"{result.branch_count} branches, "
          f"{result.thread_count} thread(s)")
    if result.failure is not None:
        print(f"FAILURE: {result.failure}")
        return 1
    print(f"exit value: {result.return_value}")
    return 0


def cmd_trace(args) -> int:
    module = _load_module(args.file)
    env = Environment(_parse_streams(args.stream), quantum=args.quantum)
    encoder = PTEncoder(RingBuffer())
    result = Interpreter(module, env, tracer=encoder).run()
    trace = decode(encoder.buffer)
    print(format_trace(trace, max_chunks=args.max_chunks))
    print(f"\ntrace bytes: {encoder.bytes_emitted}")
    if result.failure is not None:
        print(f"run failed: {result.failure}")
    return 0


def cmd_report(args) -> int:
    echo = (lambda m: print(m, file=sys.stderr))
    if args.json:
        from .evaluation.report import run_report_sections

        sections = run_report_sections(only=args.only, echo=echo,
                                       parallel=args.parallel)
        text = json.dumps({"sections": sections}, indent=2)
    else:
        from .evaluation.report import run_full_report

        text = run_full_report(only=args.only, echo=echo,
                               parallel=args.parallel)
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _parse_pool_widths(spec: str) -> List[int]:
    """``--parallel`` accepts one width ("4") or a matrix ("1,2,4,8")."""
    try:
        widths = [int(part) for part in str(spec).split(",")
                  if part.strip()]
    except ValueError:
        raise SystemExit(f"bad --parallel {spec!r}: want N or N,M,...")
    if not widths or any(w < 1 for w in widths):
        raise SystemExit(f"bad --parallel {spec!r}: widths must be >= 1")
    return widths


def cmd_bench(args) -> int:
    from .parallel import run_batch, write_merged_jsonl

    names = args.workload or None
    widths = _parse_pool_widths(args.parallel)
    # a live trace needs the workers' event streams shipped back too
    capture = bool(args.merged_telemetry
                   or getattr(args, "trace_out", None))
    echo = (lambda m: print(m, file=sys.stderr))

    echo(f"serial baseline over "
         f"{len(names) if names else 'all'} workload(s) ...")
    serial = run_batch(names, parallel=1, capture_events=capture,
                       cache_dir=args.cache_dir)
    result, speedup = serial, None
    matrix = []
    for width in widths:
        if width == 1:
            leg, leg_speedup = serial, None
        else:
            echo(f"parallel run, {width} worker(s) ...")
            leg = run_batch(names, parallel=width, capture_events=capture,
                            cache_dir=args.cache_dir)
            leg_speedup = (serial.wall_seconds / leg.wall_seconds
                           if leg.wall_seconds > 0 else None)
            result, speedup = leg, leg_speedup
        matrix.append({
            "parallelism": width,
            "wall_seconds": round(leg.wall_seconds, 4),
            "speedup": (round(leg_speedup, 3)
                        if leg_speedup is not None else None),
            "worker_load": leg.worker_load,
        })

    import os

    final_width = widths[-1]
    data = {
        "workloads": [item.workload for item in result.items],
        "parallelism": final_width,
        "cpu_count": os.cpu_count(),
        "serial_wall_seconds": round(serial.wall_seconds, 4),
        "parallel_wall_seconds":
            round(result.wall_seconds, 4) if final_width > 1 else None,
        "speedup": round(speedup, 3) if speedup is not None else None,
        "solver_cache": result.solver_cache_stats,
        "matrix": matrix,
        "serial": serial.to_dict(),
        "parallel": result.to_dict() if final_width > 1 else None,
    }
    data["overhead"] = result.overhead
    if args.ab_incremental:
        from .parallel import measure_incremental_ab
        echo("incremental-solving A/B (scratch vs assumption stack) ...")
        ab = measure_incremental_ab()
        data["incremental_ab"] = ab
        echo(f"  solver work reduction "
             f"{ab['solver_work_reduction']:.1%} "
             f"(verdicts equal: {ab['verdicts_equal']}, "
             f"models equal: {ab['models_equal']})")
    if args.output:
        pathlib.Path(args.output).write_text(json.dumps(data, indent=2))
        echo(f"wrote {args.output}")
    if args.merged_telemetry:
        lines = write_merged_jsonl(result, args.merged_telemetry)
        echo(f"wrote {args.merged_telemetry} ({lines} events)")
    if getattr(args, "trace_out", None):
        # worker streams into the live registry, so the trace written
        # by _telemetry_scope shows one track per pool process
        telemetry.get().forward(event for item in result.items
                                for event in item.events)

    if args.json:
        print(json.dumps(data, indent=2))
    else:
        rows = [[item.workload,
                 "ok" if item.success else (item.error or "FAILED"),
                 item.occurrences, f"{item.wall_seconds:.2f}",
                 f"{item.solver_cache.get('hit_rate', 0.0):.1%}"]
                for item in result.items]
        print(render_table(
            ["workload", "outcome", "#occur", "wall s", "cache hits"],
            rows, "Batch reconstruction"))
        cache = result.solver_cache_stats
        line = (f"\n{result.succeeded}/{len(result.items)} reproduced; "
                f"serial {serial.wall_seconds:.2f} s")
        if speedup is not None:
            line += (f"; parallel({final_width}) "
                     f"{result.wall_seconds:.2f} s; "
                     f"speedup {speedup:.2f}x")
        line += (f"; solver cache {cache['hits']} hits / "
                 f"{cache['misses']} misses "
                 f"({cache['hit_rate']:.1%} incl. "
                 f"{cache['model_probe_hits']} probe, "
                 f"{cache['subsumption_hits']} subsumption, "
                 f"{cache['disk_hits']} disk hits)")
        print(line)
        if len(matrix) > 1:
            for leg in matrix:
                load = ", ".join(
                    f"pid {pid}: {entry['tasks']} tasks "
                    f"{entry['wall_seconds']:.2f} s"
                    for pid, entry in sorted(leg["worker_load"].items()))
                tail = (f"speedup {leg['speedup']:.2f}x"
                        if leg["speedup"] is not None else "baseline")
                print(f"  width {leg['parallelism']}: "
                      f"{leg['wall_seconds']:.2f} s ({tail}) — {load}")
    return 0 if result.succeeded == len(result.items) else 1


def cmd_serve(args) -> int:
    from .serve import FleetService

    echo = (lambda m: print(m, file=sys.stderr))
    service = FleetService(
        args.workload or None,
        instances=args.instances,
        parallel=args.parallel,
        reoccurrence_delay=args.reoccurrence_delay,
        work_limit=args.work_limit,
        max_occurrences=args.max_occurrences,
        cache_dir=args.cache_dir,
        wait_timeout=args.wait_timeout,
        progress=echo)
    summary = service.run()

    data = summary.to_dict()
    data["telemetry"] = telemetry.get().snapshot()
    if args.output:
        pathlib.Path(args.output).write_text(json.dumps(data, indent=2))
        echo(f"wrote {args.output}")
    if args.json:
        print(json.dumps(data, indent=2))
        return 0 if summary.succeeded else 1

    rows = []
    for bucket in summary.buckets:
        rows.append([
            bucket.workload,
            bucket.signature["digest"],
            "ok" if bucket.success else (bucket.error or bucket.status),
            bucket.occurrences_consumed,
            bucket.reports,
            bucket.deduplicated + bucket.stale,
            bucket.instances_reporting,
            f"{bucket.wait_seconds:.2f}",
            f"{bucket.wall_seconds:.2f}",
        ])
    print(render_table(
        ["workload", "signature", "outcome", "#consumed", "#reports",
         "#deduped", "#instances", "wait s", "wall s"],
        rows, f"Fleet serve ({summary.instances} instance(s)/workload)"))
    for name, error in sorted(summary.unserviced.items()):
        print(f"  {name}: unserviced — {error}")
    print(f"\n{sum(1 for b in summary.buckets if b.success)}"
          f"/{len(summary.buckets)} bucket(s) reproduced from "
          f"{summary.reports} report(s) across {summary.instance_runs} "
          f"instance run(s); wall {summary.wall_seconds:.2f} s")
    return 0 if summary.succeeded else 1


def _load_telemetry_log(path) -> Optional[List[Dict]]:
    """Read a telemetry JSONL log for ``stats``/``trace-export``.

    Returns ``None`` — after a one-line stderr message, never a
    traceback — on a missing/unreadable file, non-JSONL content, an
    empty log, or a log with no telemetry events in it; callers exit 2.
    """
    try:
        events = telemetry.read_jsonl(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not a telemetry JSONL log ({exc})",
              file=sys.stderr)
        return None
    if not events:
        print(f"error: {path} is empty — no telemetry events "
              "(was the run started with --telemetry?)", file=sys.stderr)
        return None
    if not any(e.get("type") in ("span", "event", "snapshot")
               for e in events):
        print(f"error: {path} contains no telemetry spans, events, or "
              "snapshots (not a --telemetry log?)", file=sys.stderr)
        return None
    return events


def cmd_cache(args) -> int:
    from .solver import segments

    if args.cache_command == "stats":
        stats = segments.store_stats(args.cache_dir)
        if args.json:
            print(json.dumps(stats, indent=2))
            return 0
        print(f"solver cache at {stats['directory']} "
              f"(generation {stats['generation']})")
        rows = [(seg["name"],
                 "sealed" if seg["sealed"] else "active",
                 seg["bytes"], seg["entries"])
                for seg in stats["segments"]]
        print(render_table(["segment", "state", "bytes", "entries"],
                           rows, "Segments"))
        print(f"{stats['total_entries']} entries in "
              f"{stats['total_bytes']} bytes; compaction would drop "
              f"{stats['droppable_entries']} "
              f"({stats['droppable_duplicates']} duplicates, "
              f"{stats['droppable_subsumed']} subsumed infeasible, "
              f"{stats['droppable_tombstoned']} tombstoned)")
        return 0

    if args.cache_command == "compact":
        manifest, stats = segments.compact_store(args.cache_dir)
        if args.json:
            print(json.dumps(stats.to_dict(), indent=2))
            return 0
        print(f"compacted {args.cache_dir}: {stats.entries_in} -> "
              f"{stats.entries_out} entries "
              f"({stats.bytes_in} -> {stats.bytes_out} bytes, "
              f"{stats.dropped_duplicates} duplicates, "
              f"{stats.dropped_subsumed} subsumed, "
              f"{stats.dropped_tombstoned} tombstoned dropped) "
              f"in {stats.seconds:.3f}s")
        return 0

    if args.cache_command == "merge":
        try:
            stats = segments.merge_caches(args.source_a, args.source_b,
                                          args.output,
                                          compact=args.compact)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(stats, indent=2))
            return 0
        print(f"merged {args.source_a} ({stats['entries_a']} entries) "
              f"+ {args.source_b} ({stats['entries_b']} entries) -> "
              f"{args.output} ({stats['entries_out']} entries in "
              f"{stats['segments_out']} segment(s))")
        return 0

    # verify
    problems, warnings = segments.verify_store(args.cache_dir)
    if args.json:
        print(json.dumps({"problems": problems, "warnings": warnings,
                          "ok": not problems}, indent=2))
        return 1 if problems else 0
    for problem in problems:
        print(f"problem: {problem}")
    for warning in warnings:
        print(f"warning: {warning}")
    if problems:
        print(f"{args.cache_dir}: INCONSISTENT "
              f"({len(problems)} problem(s))")
        return 1
    print(f"{args.cache_dir}: ok ({len(warnings)} warning(s))")
    return 0


def cmd_stats(args) -> int:
    events = _load_telemetry_log(args.file)
    if events is None:
        return 2
    if args.openmetrics:
        metrics = telemetry.final_snapshot(events)
        if metrics is None:
            print(f"error: {args.file} has no metric snapshot to "
                  "export (log truncated before close?)",
                  file=sys.stderr)
            return 2
        print(telemetry.render_openmetrics(metrics), end="")
        return 0
    if args.json:
        print(json.dumps({
            "iterations": telemetry.iteration_rows(events),
            "snapshot": telemetry.final_snapshot(events),
            "overhead": telemetry.overhead_attribution(
                telemetry.final_snapshot(events)),
        }, indent=2))
        return 0
    print(telemetry.render_stats(events))
    return 0


def cmd_trace_export(args) -> int:
    events = _load_telemetry_log(args.file)
    if events is None:
        return 2
    records = telemetry.write_trace(events, args.output)
    print(f"wrote {args.output} ({records} trace records) — open at "
          "https://ui.perfetto.dev", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    diag = argparse.ArgumentParser(add_help=False)
    diag.add_argument("-v", "--verbose", action="count", default=0,
                      help="log to stderr (-v info, -vv debug)")
    diag.add_argument("--log-level", default=None,
                      choices=["debug", "info", "warning", "error"],
                      help="explicit log level (overrides -v)")
    diag.add_argument("--telemetry", metavar="OUT.jsonl", default=None,
                      help="stream spans/events/metrics to a JSONL file")
    diag.add_argument("--trace-out", metavar="TRACE.json", default=None,
                      help="write the run as Chrome/Perfetto trace-"
                           "event JSON (open at https://ui.perfetto.dev)")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Execution Reconstruction (PLDI 2021) — reproduce "
                    "production failures from traces + reoccurrences")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table-1 workloads",
                   parents=[diag])

    p = sub.add_parser("reproduce", parents=[diag],
                       help="reconstruct one workload's failure")
    p.add_argument("workload")
    p.add_argument("--work-limit", type=int, default=None,
                   help="solver budget per query (the 30s-timeout analog)")
    p.add_argument("--max-occurrences", type=int, default=None)
    p.add_argument("--trace-after", type=int, default=0,
                   help="enable tracing only after N untraced failures")
    p.add_argument("--minimize", action="store_true",
                   help="ddmin-shrink the generated test case")
    p.add_argument("--trace-recovery", action="store_true",
                   help="tolerate degraded traces (gap search during "
                        "replay)")
    p.add_argument("--mapping-loss", type=float, default=0.0,
                   metavar="FRACTION",
                   help="simulate lost TNT bits (implies "
                        "--trace-recovery; the paper measures 0.085)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persistent cross-process solver cache "
                        "directory (warm-starts later runs)")
    p.add_argument("--incremental", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="assumption-stack incremental solving across "
                        "sibling gap attempts (--no-incremental "
                        "re-solves every attempt from scratch)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as machine-readable JSON")

    for name, fn_help in (("run", "execute a textual-IR (.eir) program"),
                          ("trace", "execute and dump the decoded PT "
                                    "trace")):
        p = sub.add_parser(name, help=fn_help, parents=[diag])
        p.add_argument("file")
        p.add_argument("--stream", action="append", default=[],
                       metavar="NAME=HEX|NAME=@FILE|NAME=text:STR",
                       help="environment stream contents")
        p.add_argument("--quantum", type=int, default=50)
        if name == "trace":
            p.add_argument("--max-chunks", type=int, default=50)

    p = sub.add_parser("report", parents=[diag],
                       help="regenerate every evaluation table/figure")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--only", action="append", default=None,
                   metavar="KEYWORD",
                   help="run only sections whose title contains KEYWORD")
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="reconstruct Table-1 workloads N at a time")
    p.add_argument("--json", action="store_true",
                   help="emit sections as machine-readable JSON")

    p = sub.add_parser("bench", parents=[diag],
                       help="batch-reconstruct workloads, serial vs "
                            "parallel, and report the speedup")
    p.add_argument("workload", nargs="*",
                   help="workload names (default: all)")
    p.add_argument("--parallel", default="1", metavar="N[,M,...]",
                   help="process-pool width(s); a comma list runs the "
                        "whole matrix (e.g. 1,2,4,8)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persistent solver cache shared by all workers "
                        "and runs")
    p.add_argument("--ab-incremental", action="store_true",
                   help="also run the incremental-solving A/B (scratch "
                        "vs assumption stack on the sqlite gap search) "
                        "and record it in the summary")
    p.add_argument("-o", "--output", default=None, metavar="BENCH.json",
                   help="write the machine-readable benchmark summary")
    p.add_argument("--merged-telemetry", default=None,
                   metavar="OUT.jsonl",
                   help="write all workers' events as one merged "
                        "JSONL log (readable by `repro stats`)")
    p.add_argument("--json", action="store_true",
                   help="print the benchmark summary as JSON")

    p = sub.add_parser("serve", parents=[diag],
                       help="fleet-mode reconstruction service: N "
                            "simulated instances per workload, failure "
                            "reports deduplicated by fault signature, "
                            "one reconstruction per bucket consuming "
                            "reoccurrences from any instance")
    p.add_argument("workload", nargs="*",
                   help="workload names (default: all)")
    p.add_argument("--instances", type=int, default=2, metavar="N",
                   help="simulated production instances per workload "
                        "(default: 2); the wait for each reoccurrence "
                        "ends at the first fleet-wide report")
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="bucket reconstructions to run concurrently "
                        "(default: 1)")
    p.add_argument("--reoccurrence-delay", type=float, default=0.0,
                   metavar="SEC",
                   help="simulated mean delay before each instance's "
                        "failure reoccurrence, jittered per instance "
                        "(affects timing only)")
    p.add_argument("--work-limit", type=int, default=None,
                   help="solver budget per query (the 30s-timeout "
                        "analog)")
    p.add_argument("--max-occurrences", type=int, default=None)
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="persistent solver cache shared by all bucket "
                        "reconstructions")
    p.add_argument("--wait-timeout", type=float, default=600.0,
                   metavar="SEC",
                   help="give up when no instance reports a bucket's "
                        "signature for this long (default: 600)")
    p.add_argument("-o", "--output", default=None, metavar="SERVE.json",
                   help="write the machine-readable serve summary")
    p.add_argument("--json", action="store_true",
                   help="print the serve summary as JSON")

    p = sub.add_parser("cache",
                       help="maintain a persistent solver-cache store "
                            "(stats, compact, merge, verify)")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name, leaf_help in (
            ("stats", "segment layout, sizes, droppable entries"),
            ("compact", "seal the active segment, then rewrite all "
                        "sealed segments dropping duplicates, subsumed "
                        "infeasible sets, and tombstoned entries"),
            ("verify", "check manifest/segment consistency; exits "
                       "non-zero on a corrupt or inconsistent "
                       "manifest")):
        leaf = cache_sub.add_parser(name, parents=[diag],
                                    help=leaf_help)
        leaf.add_argument("--cache-dir", required=True, metavar="DIR",
                          help="the store's directory (the same value "
                               "passed to reproduce/bench/serve)")
        leaf.add_argument("--json", action="store_true",
                          help="machine-readable JSON output")
    leaf = cache_sub.add_parser(
        "merge", parents=[diag],
        help="union two machines' stores into a fresh one "
             "(last-writer-wins on conflicting value enumerations: "
             "the second source wins)")
    leaf.add_argument("source_a", metavar="CACHE_A",
                      help="first source store directory")
    leaf.add_argument("source_b", metavar="CACHE_B",
                      help="second source store directory (wins "
                           "conflicts)")
    leaf.add_argument("-o", "--output", required=True, metavar="OUT",
                      help="destination directory (must not already "
                           "hold a store)")
    leaf.add_argument("--compact", action=argparse.BooleanOptionalAction,
                      default=True,
                      help="compact the union after importing "
                           "(--no-compact keeps the raw union)")
    leaf.add_argument("--json", action="store_true",
                      help="machine-readable JSON output")

    p = sub.add_parser("stats", parents=[diag],
                       help="per-iteration cost breakdown from a "
                            "telemetry JSONL log")
    p.add_argument("file", metavar="TELEMETRY.jsonl")
    p.add_argument("--json", action="store_true",
                   help="emit the breakdown as machine-readable JSON")
    p.add_argument("--openmetrics", action="store_true",
                   help="emit the final metric snapshot in the "
                        "Prometheus/OpenMetrics text format")

    p = sub.add_parser("trace-export", parents=[diag],
                       help="convert a telemetry JSONL log to Chrome/"
                            "Perfetto trace-event JSON")
    p.add_argument("file", metavar="TELEMETRY.jsonl")
    p.add_argument("-o", "--output", required=True,
                   metavar="TRACE.json",
                   help="trace-event JSON output path")

    return parser


COMMANDS = {
    "list": cmd_list,
    "reproduce": cmd_reproduce,
    "run": cmd_run,
    "trace": cmd_trace,
    "report": cmd_report,
    "bench": cmd_bench,
    "serve": cmd_serve,
    "cache": cmd_cache,
    "stats": cmd_stats,
    "trace-export": cmd_trace_export,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args)
    try:
        with _telemetry_scope(args):
            return COMMANDS[args.command](args)
    except (ReproError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
