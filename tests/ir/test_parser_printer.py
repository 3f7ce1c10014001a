"""Textual IR: parsing, printing, and the round-trip property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IRParseError
from repro.ir import format_module, parse_module, verify_module
from repro.ir import instructions as ins
from repro.ir.builder import ModuleBuilder

SAMPLE = """
module sample

global V 1024
global msg 3 = 686900

func helper(%a, %b) {
entry:
  %x = add.32 %a, %b
  %c = cmp ult.32 %x, 256
  br %c, yes, no
yes:
  ret %x
no:
  ret 0
}

func main() {
entry:
  %i = input stdin, 2
  %r = call helper(%i, 7)
  output stdout, %r, 4
  assert %r, 'must be nonzero'
  ret
}
"""


class TestParser:
    def test_parses_sample(self):
        m = parse_module(SAMPLE)
        verify_module(m)
        assert m.name == "sample"
        assert set(m.functions) == {"helper", "main"}
        assert m.globals["V"].size == 1024
        assert m.globals["msg"].init == b"hi\x00"

    def test_comments_ignored(self):
        m = parse_module("module m\nfunc main() {\nentry:\n"
                         "  ret 0 ; trailing comment\n}")
        assert m.functions["main"]

    def test_unknown_instruction(self):
        with pytest.raises(IRParseError):
            parse_module("func main() {\nentry:\n  frobnicate %x\n}")

    def test_error_carries_line_number(self):
        try:
            parse_module("module m\nfunc main() {\nentry:\n  bogus\n}")
        except IRParseError as exc:
            assert exc.line_no == 4
        else:
            pytest.fail("expected IRParseError")

    def test_instruction_outside_function(self):
        with pytest.raises(IRParseError):
            parse_module("ret 0")

    def test_instruction_before_label(self):
        with pytest.raises(IRParseError):
            parse_module("func main() {\n  ret 0\n}")

    def test_nested_function_rejected(self):
        with pytest.raises(IRParseError):
            parse_module("func a() {\nfunc b() {\n}\n}")

    def test_bad_operand(self):
        with pytest.raises(IRParseError):
            parse_module("func main() {\nentry:\n  %x = add.64 $1, 2\n}")

    @pytest.mark.parametrize("op", ["trunc.0", "trunc.65", "sext.0",
                                    "sext.200"])
    def test_bad_extension_width(self, op):
        """A width outside ``VALID_WIDTHS`` is a parse error with the
        line, as for a binop or a comparison."""
        with pytest.raises(IRParseError) as exc:
            parse_module(f"func main() {{\nentry:\n  %x = const 1\n"
                         f"  %y = {op} %x\n  ret 0\n}}")
        assert exc.value.line_no == 4
        assert "invalid width" in str(exc.value)

    def test_store_sizes(self):
        m = parse_module("func main() {\nentry:\n  %p = const 65536\n"
                         "  store.2 %p, 7\n  ret\n}")
        store = m.functions["main"].blocks["entry"].instrs[1]
        assert isinstance(store, ins.Store) and store.size == 2

    def test_string_escape_roundtrip(self):
        m = parse_module('func main() {\nentry:\n  abort "a\\nb"\n}')
        instr = m.functions["main"].blocks["entry"].instrs[0]
        assert instr.message == "a\nb"


class TestRoundTrip:
    def test_sample_roundtrip(self):
        m = parse_module(SAMPLE)
        text = format_module(m)
        again = parse_module(text)
        assert format_module(again) == text

    def test_fixture_roundtrip(self, table_module):
        text = format_module(table_module)
        again = parse_module(text)
        verify_module(again)
        assert format_module(again) == text


# -- property: random builder programs survive the round-trip -----------

_regs = st.sampled_from(["%a", "%b", "%c"])
_binops = st.sampled_from(sorted(ins.BINARY_OPS))
_cmps = st.sampled_from(sorted(ins.CMP_OPS))
_widths = st.sampled_from((8, 16, 32, 64))


@st.composite
def straightline_modules(draw):
    b = ModuleBuilder("prop")
    b.global_("G", 64)
    f = b.function("main", [])
    f.block("entry")
    f.const(draw(st.integers(0, 2**32)), dest="%a")
    f.input("stdin", draw(st.sampled_from((1, 2, 4, 8))), dest="%b")
    f.const(draw(st.integers(0, 255)), dest="%c")
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            f.binop(draw(_binops), draw(_regs),
                    draw(st.integers(1, 255)), width=draw(_widths),
                    dest=draw(_regs))
        elif kind == 1:
            f.cmp(draw(_cmps), draw(_regs), draw(_regs),
                  width=draw(_widths), dest=draw(_regs))
        elif kind == 2:
            f.select(draw(_regs), draw(_regs), draw(_regs),
                     dest=draw(_regs))
        else:
            f.trunc(draw(_regs), width=draw(st.sampled_from((8, 16, 32))),
                    dest=draw(_regs))
    f.output("stdout", "%a", 8)
    f.ret(0)
    return b.build()


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(straightline_modules())
    def test_parse_format_fixpoint(self, module):
        text = format_module(module)
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert format_module(reparsed) == text
