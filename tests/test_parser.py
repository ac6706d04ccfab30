import dataclasses
import itertools
import math
import struct

import pytest
from hypothesis import given, settings

from expdyn.maps import (
    Compose,
    Conjugate,
    FamilyF,
    FamilyG,
    InvalidMapError,
    Iterate,
    ScaledExp,
    Shift,
)
from expdyn.parser import (
    MapSyntaxError,
    format_complex,
    format_map,
    parse_complex,
    parse_map,
)

from helpers import map_exprs


class TestParse:
    def test_family_f_literal(self):
        assert parse_map("F(-1+0i, 1)") == FamilyF(complex(-1, 0), complex(1, 0))

    def test_period_shift_example(self):
        got = parse_map("shift(iter(exp(1), 2), 0+6.283185307i)")
        assert got == Shift(Iterate(ScaledExp(complex(1, 0)), 2),
                            complex(0, 6.283185307))

    def test_validation_runs_after_parse(self):
        with pytest.raises(InvalidMapError, match=r"Re\(lambda\) < 0"):
            parse_map("F(1, 1)")

    def test_whitespace_insignificant(self):
        a = parse_map("comp( F( -1 , 1 ) ,G(-1,-1) )")
        b = parse_map("comp(F(-1,1),G(-1,-1))")
        assert a == b == Compose(FamilyF(complex(-1, 0), complex(1, 0)),
                                 FamilyG(complex(-1, 0), complex(-1, 0)))

    def test_conjugate(self):
        got = parse_map("conj(2, 1+1i, F(-1, 1))")
        assert got == Conjugate(complex(2, 0), complex(1, 1),
                                FamilyF(complex(-1, 0), complex(1, 0)))

    def test_negative_imaginary(self):
        assert parse_complex("1.5-2.25i") == complex(1.5, -2.25)

    def test_exponent_notation(self):
        assert parse_complex("1e-12+2.5e3i") == complex(1e-12, 2500.0)

    def test_syntax_error_offset(self):
        with pytest.raises(MapSyntaxError) as exc:
            parse_map("F(-1; 1)")
        assert exc.value.offset == 4

    def test_unknown_keyword(self):
        with pytest.raises(MapSyntaxError) as exc:
            parse_map("H(1, 2)")
        assert exc.value.offset == 0

    def test_trailing_garbage(self):
        with pytest.raises(MapSyntaxError, match="trailing"):
            parse_map("F(-1, 1) extra")

    def test_j_suffix_rejected(self):
        with pytest.raises(MapSyntaxError):
            parse_map("F(-1+0j, 1)")

    @pytest.mark.parametrize("text, offset", [
        ("1e400", 0), ("-1e400", 0), (" 1+1e400i", 3), ("2-1e309i", 2)])
    def test_overflowing_literal_rejected(self, text, offset):
        with pytest.raises(MapSyntaxError, match="infinity") as exc:
            parse_complex(text)
        assert exc.value.offset == offset

    def test_overflowing_map_parameter_rejected(self):
        with pytest.raises(MapSyntaxError) as exc:
            parse_map("shift(F(-1, 1), 1e400)")
        assert exc.value.offset == 16

    def test_missing_i_suffix(self):
        with pytest.raises(MapSyntaxError, match="expected 'i'"):
            parse_complex("1+2")

    @pytest.mark.parametrize("text, offset", [
        ("1+-2i", 2), ("1-+2i", 2), ("1 - -2i", 4)])
    def test_doubled_sign_rejected(self, text, offset):
        with pytest.raises(MapSyntaxError, match="doubled sign") as exc:
            parse_complex(text)
        assert exc.value.offset == offset

    def test_doubled_sign_in_map_rejected(self):
        with pytest.raises(MapSyntaxError) as exc:
            parse_map("F(-1+-1i, 1)")
        assert exc.value.offset == 5


class TestFormat:
    def test_real_only_stays_bare(self):
        assert format_complex(complex(-1.0, 0.0)) == "-1.0"

    def test_signed_imaginary(self):
        assert format_complex(complex(0.5, -2.0)) == "0.5-2.0i"
        assert format_complex(complex(0.5, 2.0)) == "0.5+2.0i"

    def test_canonical_map(self):
        expr = Shift(Iterate(ScaledExp(complex(1, 0)), 2),
                     complex(0, 2 * math.pi))
        assert format_map(expr) == "shift(iter(exp(1.0), 2), 0.0+6.283185307179586i)"

    @pytest.mark.parametrize("expr, text", [
        (FamilyF(-1, 1), "F(-1, 1)"),
        (FamilyF(complex(-1, 0.5), complex(1, 0)), "F(-1.0+0.5i, 1.0)"),
        (FamilyG(complex(-2, 0), complex(-1, -3)), "G(-2.0, -1.0-3.0i)"),
        (ScaledExp(complex(0, 1)), "exp(0.0+1.0i)"),
        (Iterate(ScaledExp(complex(1, 0)), 3), "iter(exp(1.0), 3)"),
        (Shift(ScaledExp(complex(1, 0)), complex(0, -2)), "shift(exp(1.0), 0.0-2.0i)"),
        (Compose(FamilyF(-1, 1), FamilyG(-1, -1)), "comp(F(-1, 1), G(-1, -1))"),
        (Conjugate(complex(2, 0), complex(1, 1), FamilyF(-1, 1)),
         "conj(2.0, 1.0+1.0i, F(-1, 1))"),
    ])
    def test_each_node_kind(self, expr, text):
        assert format_map(expr) == text

    @given(map_exprs(max_leaves=6))
    @settings(max_examples=300, deadline=None)
    def test_round_trip_identity(self, expr):
        assert parse_map(format_map(expr)) == expr

    @pytest.mark.parametrize("x, y", itertools.product(
        [0.0, -0.0, 1.5, -1.5], repeat=2))
    def test_complex_round_trip_bits(self, x, y):
        # == cannot tell 0.0 from -0.0, and orbits keep the sign of a zero
        z = complex(x, y)
        assert _bits(parse_complex(format_complex(z))) == _bits(z)

    @pytest.mark.parametrize("x, y", itertools.product([0.0, -0.0], repeat=2))
    def test_map_round_trip_bits(self, x, y):
        # a signed zero in every slot that may hold one
        for expr in (FamilyF(complex(-1, x), complex(1, y)),
                     FamilyG(complex(-1, y), complex(-1, x)),
                     Shift(ScaledExp(complex(x, 1)), complex(x, y)),
                     Conjugate(complex(2, x), complex(y, x),
                               ScaledExp(complex(1, y)))):
            assert _bits(parse_map(format_map(expr))) == _bits(expr)


def _bits(value) -> bytes:
    """The bits of a complex, or of each complex and int of a map tree."""
    if isinstance(value, complex):
        return struct.pack("dd", value.real, value.imag)
    if isinstance(value, int):
        return struct.pack("q", value)
    return b"".join(_bits(getattr(value, f.name))
                    for f in dataclasses.fields(value))
