"""Shared arithmetic semantics (the interp/symex/solver contract)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.ops import (BINOP_EXPRS, BINOPS, CMP_OPERATORS, CMPS,
                          DIVISIONS, MAGNITUDES, apply_binop, apply_cmp)
from repro.ir.types import VALID_WIDTHS, mask, to_signed

values = st.integers(min_value=0, max_value=(1 << 64) - 1)
widths = st.sampled_from((8, 16, 32, 64))


class TestBinop:
    def test_add_wraps(self):
        assert apply_binop("add", 0xFF, 1, 8) == 0

    def test_sub_wraps(self):
        assert apply_binop("sub", 0, 1, 8) == 0xFF

    def test_mul_masks(self):
        assert apply_binop("mul", 16, 16, 8) == 0

    def test_udiv(self):
        assert apply_binop("udiv", 7, 2, 8) == 3

    def test_sdiv_truncates_toward_zero(self):
        minus7 = mask(-7, 8)
        assert to_signed(apply_binop("sdiv", minus7, 2, 8), 8) == -3

    def test_srem_sign_follows_dividend(self):
        minus7 = mask(-7, 8)
        assert to_signed(apply_binop("srem", minus7, 2, 8), 8) == -1

    def test_shift_count_masked_by_width(self):
        # x86-style: shl by width is shl by 0
        assert apply_binop("shl", 1, 8, 8) == 1
        assert apply_binop("shl", 1, 9, 8) == 2

    def test_ashr_replicates_sign(self):
        assert apply_binop("ashr", 0x80, 1, 8) == 0xC0

    def test_lshr_zero_fills(self):
        assert apply_binop("lshr", 0x80, 1, 8) == 0x40

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            apply_binop("frob", 1, 2, 8)

    @given(values, values, widths)
    def test_results_fit_width(self, a, b, w):
        for op in ("add", "sub", "mul", "and", "or", "xor", "shl",
                   "lshr", "ashr"):
            assert 0 <= apply_binop(op, a, b, w) < (1 << w)

    @given(values, values, widths)
    def test_add_commutes(self, a, b, w):
        assert apply_binop("add", a, b, w) == apply_binop("add", b, a, w)

    @given(values, values, widths)
    def test_add_matches_python(self, a, b, w):
        assert apply_binop("add", a, b, w) == (mask(a, w) + mask(b, w)) % (1 << w)

    @given(values, st.integers(min_value=1, max_value=(1 << 64) - 1), widths)
    def test_udiv_matches_python(self, a, b, w):
        if mask(b, w) == 0:
            return
        assert apply_binop("udiv", a, b, w) == mask(a, w) // mask(b, w)

    @given(values, values, widths)
    def test_xor_self_inverse(self, a, b, w):
        once = apply_binop("xor", a, b, w)
        assert apply_binop("xor", once, b, w) == mask(a, w)


class TestCmp:
    def test_eq(self):
        assert apply_cmp("eq", 0x100, 0, 8) == 1  # masked equal

    def test_unsigned_vs_signed(self):
        assert apply_cmp("ult", 1, 0xFF, 8) == 1
        assert apply_cmp("slt", 1, 0xFF, 8) == 0  # 0xFF is -1 signed

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            apply_cmp("wat", 1, 2, 8)

    @given(values, values, widths)
    def test_total_order(self, a, b, w):
        lt = apply_cmp("ult", a, b, w)
        gt = apply_cmp("ugt", a, b, w)
        eq = apply_cmp("eq", a, b, w)
        assert lt + gt + eq == 1

    @given(values, values, widths)
    def test_negation_pairs(self, a, b, w):
        for op, neg in (("eq", "ne"), ("ult", "uge"), ("ule", "ugt"),
                        ("slt", "sge"), ("sle", "sgt")):
            assert apply_cmp(op, a, b, w) == 1 - apply_cmp(neg, a, b, w)

    @given(values, values, widths)
    def test_signed_matches_python(self, a, b, w):
        expected = int(to_signed(a, w) < to_signed(b, w))
        assert apply_cmp("slt", a, b, w) == expected


def _edge_operands(width):
    """0, 1, the mask, the sign bit and the one below it, and values
    wider than ``width``."""
    top = (1 << width) - 1
    sign = 1 << (width - 1)
    return sorted({0, 1, top, sign, sign - 1, top + 1, top + 2,
                   (top << 3) | 5, (1 << 70) + 3})


class TestSourceTemplates:
    """The templates both code generators inline agree with the tables
    at every width, on operands wider than the width too."""

    def test_every_op_has_a_template(self):
        assert set(BINOP_EXPRS) | set(DIVISIONS) == set(BINOPS)
        assert not set(BINOP_EXPRS) & set(DIVISIONS)
        assert set(CMP_OPERATORS) == set(CMPS)

    @pytest.mark.parametrize("width", VALID_WIDTHS)
    def test_binop_templates(self, width):
        edges = _edge_operands(width)
        for op, template in BINOP_EXPRS.items():
            expr = compile(template.format(
                a="a", b="b", m=(1 << width) - 1, s=1 << (width - 1),
                k=width - 1), "<template>", "eval")
            for a in edges:
                for b in edges:
                    assert eval(expr, {"a": a, "b": b}) \
                        == apply_binop(op, a, b, width), (op, a, b)

    @pytest.mark.parametrize("width", VALID_WIDTHS)
    def test_division_templates(self, width):
        edges = _edge_operands(width)
        for op, (operator, result) in DIVISIONS.items():
            side = to_signed if op[0] == "s" else mask
            for a in edges:
                for b in edges:
                    names = {"x": side(a, width), "y": side(b, width)}
                    if not names["y"]:
                        continue  # generated code tests the divisor first
                    if result is None:
                        got = eval(f"x {operator} y", names)
                    else:
                        names["q"] = eval(MAGNITUDES.format(op=operator),
                                          names)
                        got = eval(result.format(m=(1 << width) - 1), names)
                    assert got == apply_binop(op, a, b, width), (op, a, b)

    @pytest.mark.parametrize("width", VALID_WIDTHS)
    def test_cmp_operators(self, width):
        edges = _edge_operands(width)
        for op, operator in CMP_OPERATORS.items():
            side = to_signed if op[0] == "s" else mask
            expr = compile(f"x {operator} y", "<template>", "eval")
            for a in edges:
                for b in edges:
                    got = eval(expr, {"x": side(a, width),
                                      "y": side(b, width)})
                    assert (1 if got else 0) == apply_cmp(op, a, b, width), \
                        (op, a, b)
