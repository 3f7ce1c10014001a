"""Module structure, program points, and the builder API."""

import dataclasses

import pytest

from repro.errors import IRError
from repro.ir import format_module, instructions as ins, parse_module
from repro.ir.builder import ModuleBuilder
from repro.ir.module import Function, Module, ProgramPoint
from repro.workloads import get_workload, workload_names


class TestProgramPoint:
    def test_ordering_and_equality(self):
        a = ProgramPoint("f", "entry", 0)
        b = ProgramPoint("f", "entry", 1)
        assert a < b
        assert a == ProgramPoint("f", "entry", 0)

    def test_str(self):
        assert str(ProgramPoint("f", "b", 3)) == "f:b:3"

    def test_usable_as_dict_key(self):
        counts = {ProgramPoint("f", "b", 0): 2}
        assert counts[ProgramPoint("f", "b", 0)] == 2

    def test_hash_repr_and_order_of_its_fields(self):
        point = ProgramPoint("f", "b", 3)
        assert hash(point) == hash(("f", "b", 3))
        assert repr(point) == "ProgramPoint(func='f', block='b', index=3)"
        assert sorted([ProgramPoint("g", "a", 0), ProgramPoint("f", "b", 2),
                       ProgramPoint("f", "b", 1)]) == [
            ProgramPoint("f", "b", 1), ProgramPoint("f", "b", 2),
            ProgramPoint("g", "a", 0)]

    def test_pickled_point_finds_its_key_under_another_hash_seed(self):
        """A point's hash is computed where it is used, never carried
        across a pickle: string hashes differ per process."""
        import os
        import pathlib
        import subprocess
        import sys

        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        dump = ("import pickle, sys\n"
                "from repro.ir.module import ProgramPoint as P\n"
                "sys.stdout.buffer.write(pickle.dumps(\n"
                "    [P('main', 'loop', 4), {P('main', 'loop', 4): 7}]))\n")
        load = ("import pickle, sys\n"
                "from repro.ir.module import ProgramPoint as P\n"
                "point, counts = pickle.loads(sys.stdin.buffer.read())\n"
                "fresh = {P('main', 'loop', 4): 'here'}\n"
                "assert fresh[point] == 'here', point\n"
                "assert counts[P('main', 'loop', 4)] == 7, counts\n"
                "assert point in set(fresh) and point in counts\n")
        blob = subprocess.run(
            [sys.executable, "-c", dump], env=dict(env, PYTHONHASHSEED="1"),
            capture_output=True, check=True).stdout
        subprocess.run([sys.executable, "-c", load], input=blob,
                       env=dict(env, PYTHONHASHSEED="2"), check=True)


class TestModule:
    def test_duplicate_global_rejected(self):
        m = Module()
        m.add_global("g", 8)
        with pytest.raises(IRError):
            m.add_global("g", 8)

    def test_duplicate_function_rejected(self):
        m = Module()
        m.add_function(Function("f"))
        with pytest.raises(IRError):
            m.add_function(Function("f"))

    def test_unknown_function_raises(self):
        with pytest.raises(IRError):
            Module().function("nope")

    def test_global_initial_bytes_zero_fill(self):
        m = Module()
        g = m.add_global("g", 8, b"\x01\x02")
        assert g.initial_bytes() == bytearray(b"\x01\x02" + b"\x00" * 6)

    def test_init_truncated_to_size(self):
        m = Module()
        g = m.add_global("g", 2, b"\x01\x02\x03")
        assert g.initial_bytes() == bytearray(b"\x01\x02")

    def test_points_enumerates_in_order(self, abort_module):
        points = [p for p, _ in abort_module.points()]
        assert points == sorted(points, key=lambda p: (p.func == "main",))\
            or len(points) == abort_module.instruction_count()

    def test_instr_at_roundtrip(self, abort_module):
        for point, instr in abort_module.points():
            assert abort_module.instr_at(point) is instr


class TestFrozen:
    """A built module's instructions, blocks and globals are values."""

    def test_every_instruction_type_frozen(self):
        types = [cls for cls in vars(ins).values() if isinstance(cls, type)
                 and issubclass(cls, ins.Instr)]
        assert {ins.Instr, ins.Call, ins.PtWrite} <= set(types)
        assert all(cls.__dataclass_params__.frozen for cls in types)

    @pytest.mark.parametrize("name", workload_names())
    def test_fields_cannot_be_assigned(self, name):
        built = get_workload(name).module()
        for module in (built, parse_module(format_module(built))):
            blocks = [block for func in module.functions.values()
                      for block in func.blocks.values()]
            values = ([instr for block in blocks for instr in block.instrs]
                      + blocks + list(module.globals.values()))
            for value in values:
                for field in dataclasses.fields(value):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(value, field.name,
                                getattr(value, field.name))
            assert all(type(block.instrs) is tuple for block in blocks)
            assert all(type(instr.args) is tuple
                       for block in blocks for instr in block.instrs
                       if isinstance(instr, (ins.Call, ins.Spawn)))


class TestBuilder:
    def test_registers_get_percent_prefix(self):
        b = ModuleBuilder()
        f = b.function("main", ["x"])
        assert f.func.params == ["%x"]

    def test_fresh_names_unique(self):
        b = ModuleBuilder()
        f = b.function("main", [])
        assert f.fresh() != f.fresh()

    def test_emit_requires_block(self):
        b = ModuleBuilder()
        f = b.function("main", [])
        with pytest.raises(IRError):
            f.const(1)

    def test_no_emission_after_terminator(self):
        b = ModuleBuilder()
        f = b.function("main", [])
        f.block("entry")
        f.ret(0)
        with pytest.raises(IRError):
            f.const(1)

    def test_at_switches_back_to_block(self):
        b = ModuleBuilder()
        f = b.function("main", [])
        f.block("one")
        f.jmp("two")
        f.block("two")
        f.ret(0)
        with pytest.raises(IRError):
            f.at("one").nop()  # already terminated

    def test_build_verifies(self):
        b = ModuleBuilder()
        f = b.function("main", [])
        f.block("entry")
        f.jmp("nowhere")
        with pytest.raises(IRError):
            b.build()

    def test_string_global_nul_terminated(self):
        b = ModuleBuilder()
        b.string("s", "hi")
        f = b.function("main", [])
        f.block("entry")
        f.ret(0)
        m = b.build()
        assert m.globals["s"].init == b"hi\x00"

    def test_operands_accept_ints_and_registers(self):
        b = ModuleBuilder()
        f = b.function("main", [])
        f.block("entry")
        x = f.add(1, 2)
        y = f.add(x, "x" if False else x)
        f.ret(y)
        m = b.build()
        assert m.instruction_count() == 3
