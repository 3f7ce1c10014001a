"""The case-folding table the SQLite workloads share."""

from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.ir.builder import ModuleBuilder
from repro.workloads.lib import CASE_TABLE, add_case_table, case_fold_bytes


def run_with(setup, main_body, streams=None):
    b = ModuleBuilder("libtest")
    setup(b)
    f = b.function("main", [])
    f.block("entry")
    main_body(f)
    module = b.build()
    return Interpreter(module, Environment(streams or {})).run()


class TestCaseTable:
    def test_folds_upper_to_lower(self):
        table = case_fold_bytes()
        assert table[ord("A")] == ord("a")
        assert table[ord("Z")] == ord("z")

    def test_other_bytes_identity(self):
        table = case_fold_bytes()
        for ch in (0, ord("a"), ord("0"), ord("@"), 0xFF):
            assert table[ch] == ch

    def test_install_as_global(self):
        def setup(b):
            add_case_table(b)

        def body(f):
            t = f.global_addr(CASE_TABLE)
            p = f.gep(t, ord("Q"), 1)
            v = f.load(p, 1)
            f.output("o", v, 1)
            f.ret(0)

        result = run_with(setup, body)
        assert result.outputs["o"] == b"q"
