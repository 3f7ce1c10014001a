"""REPT reverse execution and the random-selection baseline."""

from collections import Counter

import pytest

from repro.baselines.random_selection import random_selection
from repro.baselines.rept import ReptAnalyzer
from repro.core.selection import select_key_values
from repro.interp.env import Environment
from repro.ir.builder import ModuleBuilder
from repro.solver import terms as T
from repro.symex.result import StallInfo
from repro.workloads import get_workload


class TestRept:
    def _failing_module(self, loop_iters=0):
        """Input-dependent values, an optional value-churn loop, abort."""
        b = ModuleBuilder("rept")
        b.global_("G", 64)
        f = b.function("main", [])
        f.block("entry")
        a = f.input("stdin", 1, dest="%a")
        f.add("%a", 5, dest="%x")
        f.mul("%x", 3, dest="%y")
        if loop_iters:
            f.const(0, dest="%i")
            f.jmp("churn")
            f.block("churn")
            done = f.cmp("uge", "%i", loop_iters)
            f.br(done, "fin", "body")
            f.block("body")
            g = f.global_addr("G")
            idx = f.and_("%i", 63)
            p = f.gep(g, idx, 1)
            f.store(p, "%i", 1)           # overwrites destroy history
            f.xor("%y", "%i", dest="%y")
            f.add("%i", 1, dest="%i")
            f.jmp("churn")
            f.block("fin")
            f.nop()
        f.abort("crash")
        return b.build()

    def test_requires_failing_run(self):
        b = ModuleBuilder("ok")
        f = b.function("main", [])
        f.block("entry")
        f.ret(0)
        with pytest.raises(ValueError):
            ReptAnalyzer().analyze(b.build(), Environment({}))

    def test_recovers_values_near_crash(self):
        module = self._failing_module()
        report = ReptAnalyzer().analyze(module,
                                        Environment({"stdin": b"\x07"}))
        assert report.total_defs > 0
        assert report.correct > 0

    def test_error_rate_in_unit_range(self):
        module = self._failing_module(loop_iters=30)
        report = ReptAnalyzer().analyze(module,
                                        Environment({"stdin": b"\x07"}))
        assert 0.0 <= report.error_rate <= 1.0
        assert report.correct + report.incorrect + report.unknown \
            == report.total_defs

    def test_longer_traces_recover_worse_or_equal(self):
        short = ReptAnalyzer().analyze(self._failing_module(5),
                                       Environment({"stdin": b"\x07"}))
        long_ = ReptAnalyzer().analyze(self._failing_module(200),
                                       Environment({"stdin": b"\x07"}))
        assert long_.error_rate >= short.error_rate - 0.05

    def test_works_on_real_workload(self):
        wl = get_workload("bash-108885")
        report = ReptAnalyzer().analyze(wl.module(),
                                        wl.failing_env(1))
        assert report.total_defs > 0


class TestRandomSelection:
    def _stall(self):
        T.clear_term_cache()
        from repro.ir.module import ProgramPoint

        arr = T.array("A", bytes(64))
        node = arr
        counts = Counter()
        for i in range(6):
            v = T.var(f"v{i}")
            v.prov = (ProgramPoint("f", "b", i), f"%v{i}", 1)
            counts[ProgramPoint("f", "b", i)] = 1
            node = T.store(node, v, T.const(1, 8))
        # extra recordable values in the graph (constraints, not chains):
        # the random pool is larger than ER's plan, so picks can differ
        constraints = []
        for i in range(8):
            w = T.var(f"w{i}")
            w.prov = (ProgramPoint("f", "c", i), f"%w{i}", 1)
            counts[ProgramPoint("f", "c", i)] = 1
            constraints.append(T.cmp("ult", w, T.const(200), 8))
        return StallInfo(constraints=constraints, stall_terms=[],
                         chains=[node], exec_counts=counts)

    def test_same_budget_as_er(self):
        stall = self._stall()
        er_plan = select_key_values(stall)
        rand_plan = random_selection(seed=1)(stall)
        assert rand_plan.total_cost >= er_plan.total_cost
        assert rand_plan.items

    def test_seed_determinism(self):
        stall = self._stall()
        a = random_selection(seed=5)(stall)
        b = random_selection(seed=5)(stall)
        assert a.items == b.items

    def test_different_seeds_differ_eventually(self):
        stall = self._stall()
        picks = {tuple(random_selection(seed=s)(stall).items)
                 for s in range(8)}
        assert len(picks) > 1

    def test_respects_already_recorded(self):
        stall = self._stall()
        all_units = {("f", f"%v{i}") for i in range(5)}
        plan = random_selection(seed=3)(stall, frozenset(all_units))
        assert all((i.point.func, i.register) not in all_units
                   for i in plan.items)
