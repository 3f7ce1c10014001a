"""Layer benchmark for ER: four reconstruction workloads, one command.

Each workload reruns the Table-1 reconstruction loop (13 failures per
round) in its own fresh ``python`` process: a single-threaded
closed-loop driver with one client and no think time.  ``setup_s`` is
the median of three or more launches; everything else comes from one
measured launch.  Times are scaled to a reference host speed by speed
probes around each timed part (``speed.py``).  With ``--trace 1`` the
measured launch alternates untraced and traced rounds: the end-to-end
metrics come from the untraced ones, the per-layer metrics from the
traced ones.  See README.md for why each
workload exists and what every metric means.

Full run (``FULL_ROUNDS`` per workload), written to ``out/<seed>.json``::

    python benchmarks/layers/run.py [--seed S] [--trace 0|1]

One workload, time-bounded, result as one JSON line on stdout::

    python benchmarks/layers/run.py --workload table1 --seed 3 \\
        --seconds 28 --trace 0

Compare two full runs (exit status 1 when a metric regressed)::

    python benchmarks/layers/run.py --compare out/0.json out/1.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import speed
from worker import HERE, OUT, ROOT, WORKLOADS

#: end-to-end metrics: name -> (unit, bound).  The bound is the share of
#: the baseline median by which a metric may worsen before ``--compare``
#: calls it a regression; all are lower-is-better.  The four with bound
#: 0 are deterministic counts: any change is a behaviour change.  Why
#: the times' bounds are wider than 10 %: README.md, Noise.
END_TO_END = {
    "round_s": ("s", 0.25),
    "repro_p50_s": ("s", 0.25),
    "repro_p90_s": ("s", 0.25),
    "occurrences": ("count", 0.0),
    "recorded_bytes": ("B", 0.0),
    "modelled_symex_s": ("s", 0.0),
    "failed_frac": ("ratio", 0.0),
    "setup_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.20),
}

#: the end-to-end metrics of a single-workload ``--trace 0`` report
TIMED = ("round_s", "repro_p50_s", "repro_p90_s", "setup_s", "peak_rss_mb")
#: deterministic counts that a ``--trace 1`` report carries with the
#: per-layer metrics (``failed_frac`` is 0 on most workloads and cannot
#: be end-to-end there); ``modelled_symex_s`` is left out of it, being a
#: modelled time that repeats exactly for a seed
COUNTS = ("occurrences", "recorded_bytes", "failed_frac")

#: untraced rounds per workload in a full run: about 40 s each on a
#: 2-vCPU x86-64 VM
FULL_ROUNDS = {"table1": 24, "lossy-trace": 12, "noisy-production": 10,
               "fleet": 24}
#: ``setup_s`` is the median set-up time of the measured launch and of
#: set-up-only launches before it: at least ``SETUP_SAMPLES`` launches
#: in all, and more while the set-up-only ones have taken less than
#: ``SETUP_SECONDS``.  A serial workload's launch takes ~0.3 s, so it
#: gets several more samples; each ``fleet`` launch runs its
#: several-second cold pass, so it gets the minimum.
SETUP_SAMPLES = 3
SETUP_SECONDS = 2.0
#: a single-workload run must finish within this many seconds
RUN_BUDGET_S = 170.0
#: ... and one workload of a full run within this many
FULL_BUDGET_S = 600.0
#: traced self times must cover all but this share of a traced round
MAX_UNATTRIBUTED = 0.05


class BenchError(RuntimeError):
    """A worker process failed or ran out of time."""


def _launch(workload: str, seed: int, extra: List[str],
            deadline: float) -> Dict:
    launched = time.time()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--launched", repr(launched), *extra]
    # a fixed hash seed: set and dict layouts of the solver's terms
    # otherwise differ per process, which moves round times by ~10 %
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(deadline - time.time(),
                                                     1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, *, rounds: Optional[int] = None,
                 seconds: Optional[float] = None, traced: bool = False,
                 sample_setup: bool = True,
                 budget: float = RUN_BUDGET_S) -> Dict:
    """Set-up-only launches (if ``sample_setup``), then one measured
    launch of ``workload`` (alternating untraced and traced rounds if
    ``traced``)."""
    deadline = time.time() + budget
    samples: List[float] = []
    started = time.time()
    while sample_setup and (len(samples) < SETUP_SAMPLES - 1
                            or time.time() - started < SETUP_SECONDS):
        samples.append(_setup_s(_launch(workload, seed, ["--setup-only"],
                                        deadline)))
    stop = (["--rounds", str(rounds)] if rounds is not None
            else ["--seconds", str(seconds)])
    result = _launch(workload, seed,
                     stop + ["--trace", "1" if traced else "0"], deadline)
    result["setup_samples"] = samples + [_setup_s(result)]
    return result


def _setup_s(launch: Dict) -> float:
    """A launch's set-up time, scaled by its speed probes."""
    return speed.scaled(launch["setup_s"], launch["setup_probe_s"])


def _percentile(values: List[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(result: Dict) -> Dict[str, Dict]:
    """The nine end-to-end metrics, each with its per-round samples.

    Every time is scaled to the reference host speed by the speed probes
    around the part of the round it falls in (``speed.scaled``).  Every
    round repeats the same failures, so ``round_s`` sums the median of
    each part of a round (a failure; the fleet's whole service run), and
    the latency percentiles are taken over each failure's median
    latency: a percentile pooled over all samples lands between two
    failures' latency clusters and jumps with one slow sample.
    """
    rounds = result["rounds"]
    timed = [r for r in rounds if not r["traced"]]
    ok = [[(f["workload"], speed.scaled(f["seconds"], f["probe_s"]))
           for f in r["failures"] if f["error"] is None] for r in timed]
    by_failure: Dict[str, List[float]] = {}
    for per_round in ok:
        for name, seconds in per_round:
            by_failure.setdefault(name, []).append(seconds)
    latencies = [statistics.median(v) for v in by_failure.values()]
    parts = [{name: speed.scaled(part["s"], part["probe_s"])
              for name, part in r["parts"].items()} for r in timed]
    by_part: Dict[str, List[float]] = {}
    for per_round in parts:
        for name, seconds in per_round.items():
            by_part.setdefault(name, []).append(seconds)
    failures = [f for r in rounds for f in r["failures"]]
    failed = sum(f["error"] is not None for f in failures)
    # a pinned failure (worker.EXPECTED_FAILURES) is a failed
    # reconstruction but the right output
    wrong = sum(f["error"] is not None and not f["expected"]
                for f in failures)
    samples = {
        "round_s": [sum(per_round.values()) for per_round in parts],
        "repro_p50_s": [_percentile([s for _, s in per_round], 50)
                        for per_round in ok if per_round],
        "repro_p90_s": [_percentile([s for _, s in per_round], 90)
                        for per_round in ok if per_round],
        "setup_s": result["setup_samples"],
        "failed_frac": [sum(f["error"] is not None for f in r["failures"])
                        / len(r["failures"]) for r in rounds],
    }
    if len(timed) == len(rounds):
        # a traced round's spans would count in the process's peak
        samples["peak_rss_mb"] = [result["peak_rss_mb"]]
    # summed over the reconstructions that returned a report (a raised
    # error leaves no counts; the fleet records no bytes or model time)
    for name, field in (("occurrences", "occurrences"),
                        ("recorded_bytes", "recorded_bytes"),
                        ("modelled_symex_s", "modelled_s")):
        values = [[f[field] for f in r["failures"] if f[field] is not None]
                  for r in rounds]
        if all(values):
            samples[name] = [sum(per_round) for per_round in values]
    out = {}
    for name, (unit, _bound) in END_TO_END.items():
        if name not in samples or not samples[name]:
            continue
        if name == "round_s":
            value = sum(statistics.median(v) for v in by_part.values())
        elif name in ("repro_p50_s", "repro_p90_s"):
            value = _percentile(latencies,
                                50 if name == "repro_p50_s" else 90)
        elif name == "failed_frac":
            value = failed / len(failures)
        else:
            value = statistics.median(samples[name])
        out[name] = {"value": value, "unit": unit, "samples": samples[name]}
        if name.startswith("repro_"):
            out[name]["n"] = sum(len(v) for v in by_failure.values())
    out["attempted"] = len(failures)
    out["failed"] = failed
    out["wrong"] = wrong
    return out


def traced_report_units() -> Dict[str, str]:
    """The metrics of a single-workload ``--trace 1`` report.

    Every per-layer metric except the times of layers that some
    workload never runs: a time reading 0.0 on every run of a workload
    cannot be told from one that was never measured.  Those layers keep
    their call counts, and ``out/<seed>.json`` keeps their times.
    """
    from layers import METRIC_UNITS, PARTIAL_LAYERS

    units = {name: unit for name, unit in METRIC_UNITS.items()
             if unit != "s" or name.rsplit(".", 1)[0] not in PARTIAL_LAYERS}
    units.update({name: END_TO_END[name][0] for name in COUNTS})
    return units


def report_line(result: Dict, traced: bool) -> Dict:
    """The one-line result of a single-workload run; ``failed`` counts
    the reconstructions whose output is wrong, which excludes pinned
    failures (they stay in ``failed_frac``)."""
    metrics = end_to_end(result)
    if traced:
        shown = {}
        for name, unit in traced_report_units().items():
            if name in COUNTS:
                # the fleet records no per-failure recorded bytes
                value = metrics[name]["value"] if name in metrics else 0
            else:
                value = result["layers"][name]
            shown[name] = {"value": value, "unit": unit}
    else:
        shown = {name: {"value": metrics[name]["value"],
                        "unit": metrics[name]["unit"]} for name in TIMED}
    return {"correct": metrics["wrong"] == 0,
            "attempted": metrics["attempted"], "failed": metrics["wrong"],
            "metrics": shown}


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> Dict:
    """The run's machine and program; ``worker_affinity`` (filled per
    workload) is the CPUs each measured worker could use."""
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in (ROOT / "src").rglob("*.py"))
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "worker_affinity": {},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "seed": seed,
        "rounds": FULL_ROUNDS,
        "src_lines": src_lines,
    }


def coverage_problems(result: Dict) -> List[str]:
    """Where a traced run's layers leave more than ``MAX_UNATTRIBUTED``
    of a traced round unaccounted for, in wall time or in CPU time.

    The wall residual binds where one thread runs the layers; where
    threads overlap (``fleet``) their self times add up to more than the
    wall time, and the CPU residual binds instead.
    """
    layers = result["layers"]
    traced = [r for r in result["rounds"] if r["traced"]]
    problems = []
    for name, clock in (("unattributed_s", "wall_s"),
                        ("unattributed_cpu_s", "cpu_s")):
        per_round = statistics.mean(r[clock] for r in traced)
        if layers[name] > MAX_UNATTRIBUTED * per_round:
            problems.append(f"{name} {layers[name]:.3f} s exceeds "
                            f"{MAX_UNATTRIBUTED:.0%} of the traced round "
                            f"({per_round:.3f} s)")
    return problems


def full_run(seed: int, traced: bool) -> int:
    """Every workload for its ``FULL_ROUNDS``, one measured launch each;
    with ``traced``, that launch alternates untraced and traced rounds
    and the end-to-end metrics come from its untraced ones."""
    doc = {"env": environment(seed), "workloads": {}, "layers": {}}
    status = 0
    for workload in WORKLOADS:
        result = run_workload(workload, seed, rounds=FULL_ROUNDS[workload],
                              traced=traced, budget=FULL_BUDGET_S)
        doc["env"]["worker_affinity"][workload] = result["affinity"]
        metrics = end_to_end(result)
        doc["workloads"][workload] = {
            name: metrics[name] for name in END_TO_END if name in metrics}
        _print_metrics(workload, metrics)
        if not traced:
            continue
        doc["layers"][workload] = result["layers"]
        for problem in coverage_problems(result):
            print(f"error: {workload}: {problem}", file=sys.stderr)
            status = 1
    if traced:
        _print_layers(doc["layers"])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return status


def _print_metrics(workload: str, metrics: Dict) -> None:
    cells = [f"{name}={metrics[name]['value']:.6g} {metrics[name]['unit']}"
             for name in END_TO_END if name in metrics]
    print(f"{workload:17s} " + "  ".join(cells), flush=True)


def _print_layers(layers: Dict[str, Dict]) -> None:
    from layers import LAYERS

    names = list(layers)
    print(f"\n{'self s / round':22s}" + "".join(f"{n:>18s}" for n in names))
    for layer in LAYERS:
        print(f"{layer:22s}" + "".join(
            f"{layers[n][layer + '.self_s']:18.4f}" for n in names))
    for extra in ("unattributed_s", "unattributed_cpu_s",
                  "tracing.overhead_frac"):
        print(f"{extra:22s}" + "".join(f"{layers[n][extra]:18.4f}"
                                       for n in names))


def _spread(samples: List[float]) -> float:
    """Distance between the first and third quartile, as a share of
    the median (0 for fewer than two samples)."""
    if len(samples) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def verdict(base: Dict, new: Dict, bound: float) -> str:
    """ok, regressed or unresolved for one (metric, workload) pair."""
    if max(_spread(base["samples"]), _spread(new["samples"])) > bound:
        if max(new["samples"]) < min(base["samples"]):
            return "ok"
        return "unresolved"
    worse = (new["value"] > base["value"] * (1.0 + bound) if base["value"]
             else new["value"] > 0)
    return "regressed" if worse else "ok"


def compare(base_path: str, new_path: str) -> int:
    base = json.loads(pathlib.Path(base_path).read_text(encoding="utf-8"))
    new = json.loads(pathlib.Path(new_path).read_text(encoding="utf-8"))
    regressed = False
    for workload in WORKLOADS:
        if workload not in base["workloads"] or \
                workload not in new["workloads"]:
            continue
        cells = []
        statuses = []
        for name, (_unit, bound) in END_TO_END.items():
            a = base["workloads"][workload].get(name)
            b = new["workloads"][workload].get(name)
            if a is None or b is None:
                continue
            status = verdict(a, b, bound)
            statuses.append(status)
            change = ((b["value"] - a["value"]) / a["value"]
                      if a["value"] else 0.0)
            cells.append(f"{name} {change:+.1%} {status}")
        overall = ("regressed" if "regressed" in statuses else
                   "unresolved" if "unresolved" in statuses else "ok")
        regressed = regressed or overall == "regressed"
        print(f"{workload:17s} {overall:10s} " + "; ".join(cells))
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Layer benchmark for execution reconstruction.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate untraced and traced rounds and "
                             "record the per-layer metrics")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload for --seconds and print one "
                             "JSON line")
    parser.add_argument("--seconds", type=float, default=28.0)
    args = parser.parse_args(argv)
    traced = args.trace == 1
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload is None:
            return full_run(args.seed, traced)
        # a traced report carries no set-up time, so it samples none
        result = run_workload(args.workload, args.seed,
                              seconds=args.seconds, traced=traced,
                              sample_setup=not traced)
        print(json.dumps(report_line(result, traced)))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
