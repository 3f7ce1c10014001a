"""Instrumentation pass + the end-to-end iterative reconstruction loop."""

import pytest

from repro.core.instrument import instrument
from repro.core.production import ProductionSite
from repro.core.reconstructor import ExecutionReconstructor
from repro.core.signature import normalize_failure
from repro.core.selection import RecordingItem
from repro.errors import IRError, ReconstructionError
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.ir import instructions as ins
from repro.ir.builder import ModuleBuilder
from repro.ir.module import ProgramPoint
from repro.ir.printer import format_module
from repro.workloads import get_workload


class TestInstrument:
    def _module(self):
        b = ModuleBuilder("inst")
        f = b.function("main", [])
        f.block("entry")
        f.input("stdin", 1, dest="%a")
        f.add("%a", 1, dest="%x")
        f.add("%x", 2, dest="%y")
        f.ret("%y")
        return b.build()

    def test_inserts_after_point(self):
        module = self._module()
        item = RecordingItem(ProgramPoint("main", "entry", 1), "%x", 8)
        result = instrument(module, [item], next_tag=0)
        instrs = result.module.function("main").block("entry").instrs
        assert isinstance(instrs[2], ins.PtWrite)
        assert instrs[2].value == "%x"

    def test_original_module_untouched(self):
        module = self._module()
        before = module.instruction_count()
        instrument(module, [RecordingItem(
            ProgramPoint("main", "entry", 1), "%x", 8)])
        assert module.instruction_count() == before

    @pytest.mark.parametrize("workload",
                             ["sqlite-7be932d", "memcached-2019-11596"])
    def test_input_unchanged_and_untouched_parts_shared(self, workload):
        module = get_workload(workload).module()
        before = format_module(module)
        items = [RecordingItem(point, instr.dest_register(), 8)
                 for point, instr in module.points()
                 if instr.dest_register() is not None][::7]
        deployed = instrument(module, items).module
        assert format_module(module) == before
        assert format_module(deployed) != before
        touched = {(item.point.func, item.point.block) for item in items}
        assert all(deployed.globals[name] is obj
                   for name, obj in module.globals.items())
        assert list(deployed.functions) == list(module.functions)
        for func_name, func in module.functions.items():
            new = deployed.functions[func_name]
            labels = {label for f, label in touched if f == func_name}
            assert (new is func) == (not labels)
            assert list(new.blocks) == list(func.blocks)
            for label, block in func.blocks.items():
                assert (new.blocks[label] is block) == (label not in labels)

    def test_multiple_insertions_same_block(self):
        module = self._module()
        items = [RecordingItem(ProgramPoint("main", "entry", 1), "%x", 8),
                 RecordingItem(ProgramPoint("main", "entry", 2), "%y", 8)]
        result = instrument(module, items)
        instrs = result.module.function("main").block("entry").instrs
        ptws = [i for i in instrs if isinstance(i, ins.PtWrite)]
        assert len(ptws) == 2
        # each ptwrite directly follows its defining instruction
        assert instrs[2].value == "%x" and instrs[4].value == "%y"

    def test_unique_tags(self):
        module = self._module()
        items = [RecordingItem(ProgramPoint("main", "entry", 1), "%x", 8),
                 RecordingItem(ProgramPoint("main", "entry", 2), "%y", 8)]
        result = instrument(module, items, next_tag=7)
        tags = sorted(result.tag_map)
        assert tags == [7, 8] and result.next_tag == 9

    def test_same_plan_shares_ptwrites_and_their_runs(self, monkeypatch):
        """A second ``instrument`` with the same plan inserts the same
        ``ptwrite`` objects, so running its module generates no run."""
        from repro.interp import interpreter

        workload = get_workload("sqlite-7be932d")
        module = workload.module()
        items = [RecordingItem(point, instr.dest_register(), 8)
                 for point, instr in module.points()
                 if instr.dest_register() is not None][::7]
        first = instrument(module, items).module
        second = instrument(module, items).module

        def ptwrites(deployed):
            return [instr for func in deployed.functions.values()
                    for block in func.blocks.values()
                    for instr in block.instrs
                    if isinstance(instr, ins.PtWrite)]

        shared = ptwrites(first)
        assert len(shared) == len(items)
        assert list(map(id, ptwrites(second))) == list(map(id, shared))
        Interpreter(first, workload.failing_env(1)).run()
        generated = []
        fused_run = interpreter._fused_run

        def counted(instrs):
            generated.append(instrs)
            return fused_run(instrs)

        monkeypatch.setattr(interpreter, "_fused_run", counted)
        Interpreter(second, workload.failing_env(1)).run()
        assert generated == []

    def test_register_mismatch_rejected(self):
        module = self._module()
        item = RecordingItem(ProgramPoint("main", "entry", 1), "%WRONG", 8)
        with pytest.raises(IRError):
            instrument(module, [item])

    def test_out_of_range_rejected(self):
        module = self._module()
        item = RecordingItem(ProgramPoint("main", "entry", 99), "%x", 8)
        with pytest.raises(IRError):
            instrument(module, [item])

    def test_instrumented_module_still_runs(self):
        module = self._module()
        item = RecordingItem(ProgramPoint("main", "entry", 1), "%x", 8)
        result = instrument(module, [item])
        run = Interpreter(result.module,
                          Environment({"stdin": b"\x05"})).run()
        assert run.ptwrite_count == 1
        assert run.return_value == 8


class TestNormalizeFailure:
    def test_discounts_ptwrites(self, abort_module):
        run = Interpreter(abort_module, Environment({"stdin": b"\xff"})).run()
        # instrument a point before the failing one in the same block
        item = RecordingItem(ProgramPoint("main", "entry", 0), "%x", 1)
        inst = instrument(abort_module, [item])
        run2 = Interpreter(inst.module, Environment({"stdin": b"\xff"})).run()
        n1 = normalize_failure(abort_module, run.failure)
        n2 = normalize_failure(inst.module, run2.failure)
        assert n1.matches(n2)


class TestProductionSite:
    def test_retries_until_failure(self, abort_module):
        calls = []

        def factory(occ):
            calls.append(occ)
            data = b"\x01" if occ < 3 else b"\xff"
            return Environment({"stdin": data})

        site = ProductionSite(factory)
        occurrence = site.run_once(abort_module)
        assert occurrence.failure is not None
        assert calls == [1, 2, 3]

    def test_gives_up_eventually(self, abort_module):
        site = ProductionSite(lambda occ: Environment({"stdin": b"\x01"}),
                              max_attempts_per_occurrence=5)
        with pytest.raises(ReconstructionError):
            site.run_once(abort_module)

    def test_trace_matches_run(self, abort_module):
        site = ProductionSite(lambda occ: Environment({"stdin": b"\xff"}))
        occurrence = site.run_once(abort_module)
        assert occurrence.trace.instr_count == occurrence.run.instr_count


class TestReconstructor:
    def test_single_occurrence_case(self, abort_module):
        er = ExecutionReconstructor(abort_module)
        report = er.reconstruct(ProductionSite(
            lambda occ: Environment({"stdin": b"\xc8"})))
        assert report.success and report.verified
        assert report.occurrences == 1
        assert report.test_case.streams["stdin"][0] >= 100

    def test_iterative_case_records_then_completes(self, table_module):
        er = ExecutionReconstructor(table_module, work_limit=150)
        report = er.reconstruct(ProductionSite(
            lambda occ: Environment({"stdin": bytes([9, 9])})))
        assert report.success and report.verified
        if report.occurrences > 1:
            assert report.iterations[0].recorded_items

    def test_report_summary_readable(self, abort_module):
        er = ExecutionReconstructor(abort_module)
        report = er.reconstruct(ProductionSite(
            lambda occ: Environment({"stdin": b"\xc8"})))
        text = report.summary()
        assert "succeeded" in text and "stdin" in text

    def test_gives_up_at_max_occurrences(self, table_module):
        # a selection that never records anything useful
        def useless_selection(stall, already=frozenset()):
            from repro.core.selection import RecordingPlan
            return RecordingPlan(items=[], bottleneck=[], graph_nodes=0,
                                 total_cost=0)

        er = ExecutionReconstructor(table_module, work_limit=10,
                                    max_occurrences=3,
                                    selection=useless_selection)
        with pytest.raises(ReconstructionError):
            er.reconstruct(ProductionSite(
                lambda occ: Environment({"stdin": bytes([9, 9])})))

    def test_failure_signature_filtering(self, abort_module):
        # occurrences alternate between two DIFFERENT failure points:
        # the reconstructor must stick to the first signature
        b = ModuleBuilder("two-bugs")
        f = b.function("main", [])
        f.block("entry")
        x = f.input("stdin", 1, dest="%x")
        c = f.cmp("eq", "%x", 1, width=8)
        f.br(c, "bug1", "chk2")
        f.block("bug1")
        f.abort("first bug")
        f.block("chk2")
        c2 = f.cmp("eq", "%x", 2, width=8)
        f.br(c2, "bug2", "ok")
        f.block("bug2")
        f.abort("second bug")
        f.block("ok")
        f.ret(0)
        module = b.build()

        def factory(occ):
            return Environment({"stdin": bytes([1 if occ % 2 else 2])})

        er = ExecutionReconstructor(module)
        report = er.reconstruct(ProductionSite(factory))
        assert report.success
        assert report.test_case.streams["stdin"][0] == 1
