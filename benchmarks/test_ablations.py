"""Ablations for the design choices DESIGN.md calls out.

* **Solver-timeout sensitivity** (the paper's 30 s knob, §4): shorter
  budgets trade more failure occurrences for less per-occurrence solver
  work; longer budgets reproduce in fewer occurrences.
* **Ring-buffer sizing** (§5.3 sensitivity): the paper found no
  statistical overhead difference across 4 KB–64 MB buffers; tracing
  cost depends on bytes *produced*, not retained.
* **Per-access feasibility checks** (§3.2): disabling the per-access
  solver calls defers all work to the final solve.
"""

import pytest

from repro.core import ExecutionReconstructor, ProductionSite
from repro.evaluation.formatting import render_table
from repro.interp.interpreter import Interpreter
from repro.symex.engine import ShepherdedSymex
from repro.trace.decoder import decode
from repro.trace.encoder import PTEncoder
from repro.trace.overhead import OverheadModel
from repro.trace.ringbuffer import RingBuffer
from repro.workloads import get_workload


@pytest.mark.benchmark(group="ablation")
def test_solver_timeout_sensitivity(benchmark, save_artifact):
    workload = get_workload("sqlite-4e8e485")

    def sweep():
        rows = []
        for limit in (10_000, 40_000, 160_000, 640_000):
            er = ExecutionReconstructor(workload.module(),
                                        work_limit=limit,
                                        max_occurrences=15)
            report = er.reconstruct(ProductionSite(workload.failing_env))
            rows.append((limit, report.occurrences,
                         report.total_symex_modelled_seconds))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = render_table(
        ["work limit", "#Occur", "total symbex (modelled s)"],
        [[l, o, f"{s:.1f}"] for l, o, s in rows],
        f"Ablation — solver-timeout sensitivity ({workload.name})")
    save_artifact("ablation_timeout", table)
    occurrences = [o for _, o, _ in rows]
    assert all(o >= 1 for o in occurrences)
    # more budget never needs more occurrences
    assert occurrences == sorted(occurrences, reverse=True) or \
        max(occurrences) - min(occurrences) <= 3


@pytest.mark.benchmark(group="ablation")
def test_ring_buffer_sizing(benchmark, save_artifact):
    workload = get_workload("sqlite-7be932d")
    module = workload.module()
    model = OverheadModel(noise=0.0)

    def measure():
        rows = []
        for capacity in (4 << 10, 64 << 10, 1 << 20, 16 << 20, 64 << 20):
            encoder = PTEncoder(RingBuffer(capacity))
            run = Interpreter(module, workload.benign_env(0),
                              tracer=encoder).run()
            overhead = model.er_sample(run, encoder.bytes_emitted).overhead
            rows.append((capacity, overhead))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = render_table(
        ["buffer", "ER overhead"],
        [[f"{c >> 10} KiB", f"{o * 100:.3f}%"] for c, o in rows],
        "Ablation — ring-buffer sizing (paper: no significant difference)")
    save_artifact("ablation_ringbuffer", table)
    overheads = [o for _, o in rows]
    assert max(overheads) - min(overheads) < 1e-9


@pytest.mark.benchmark(group="ablation")
def test_per_access_feasibility_checks(benchmark, save_artifact):
    """§3.2's per-access solver calls vs deferring to the final solve.

    Uses a symbolic-write-chain program (the Fig. 3 pattern) so symbolic
    memory accesses actually occur; the per-access mode pays solver calls
    during the replay, the deferred mode concentrates them at the end.
    """
    from repro.interp.env import Environment
    from repro.ir.builder import ModuleBuilder

    b = ModuleBuilder("feas-ablation")
    b.global_("V", 512)
    f = b.function("main", [])
    f.block("entry")
    g = f.global_addr("V", dest="%V")
    f.const(0, dest="%k")
    f.jmp("loop")
    f.block("loop")
    done = f.cmp("uge", "%k", 8)
    f.br(done, "chk", "body")
    f.block("body")
    idx = f.input("stdin", 1, dest="%idx")
    p = f.gep("%V", "%idx", 1)
    f.store(p, "%k", 1)
    f.add("%k", 1, dest="%k")
    f.jmp("loop")
    f.block("chk")
    probe = f.input("stdin", 1, dest="%probe")
    q = f.gep("%V", "%probe", 1)
    v = f.load(q, 1, dest="%v")
    bad = f.cmp("eq", "%v", 7, width=8)
    f.br(bad, "boom", "ok")
    f.block("boom")
    f.abort("probe hit the last write")
    f.block("ok")
    f.ret(0)
    module = b.build()
    data = bytes([10, 20, 30, 40, 50, 60, 70, 80, 80])
    encoder = PTEncoder(RingBuffer())
    run = Interpreter(module, Environment({"stdin": data}),
                      tracer=encoder).run()
    assert run.failure is not None
    trace = decode(encoder.buffer)

    def both():
        with_checks = ShepherdedSymex(
            module, trace, run.failure, work_limit=10_000_000,
            check_feasibility=True).run()
        without = ShepherdedSymex(
            module, trace, run.failure, work_limit=10_000_000,
            check_feasibility=False).run()
        return with_checks, without

    with_checks, without = benchmark.pedantic(both, rounds=1, iterations=1)
    table = render_table(
        ["mode", "status", "solver calls", "solver work"],
        [["per-access checks", with_checks.status,
          with_checks.stats.solver_calls, with_checks.stats.solver_work],
         ["final solve only", without.status,
          without.stats.solver_calls, without.stats.solver_work]],
        "Ablation — per-access feasibility checks")
    save_artifact("ablation_feasibility", table)
    assert with_checks.completed and without.completed
    assert with_checks.stats.solver_calls > without.stats.solver_calls
