"""Exact complex rationals: ring arithmetic, refusal of float operands, parts,
hashing alongside equal ints and Fractions."""

import operator
from fractions import Fraction

import pytest

from qtoric.rationals import ComplexRational

Z = ComplexRational(Fraction(1, 2), Fraction(-3, 4))


class TestComplexRational:
    def test_parts_are_fractions_and_kept(self):
        half = Fraction(1, 2)
        z = ComplexRational(half, 3)
        assert z.re is half
        assert type(z.im) is Fraction and z.im == 3

    @pytest.mark.parametrize("value, expected", [
        (1 - Z, ComplexRational(Fraction(1, 2), Fraction(3, 4))),
        (Fraction(1, 3) + Z, ComplexRational(Fraction(5, 6), Fraction(-3, 4))),
        (2 * Z, ComplexRational(1, Fraction(-3, 2))),
        (Z * Z, ComplexRational(Fraction(-5, 16), Fraction(-3, 4))),
    ], ids=["rsub", "radd", "rmul", "mul"])
    def test_arithmetic(self, value, expected):
        assert value == expected

    @pytest.mark.parametrize("op", [
        operator.add, operator.sub, operator.mul, operator.truediv,
        operator.pow, lambda z, x: x - z, lambda z, x: x / z],
        ids=["add", "sub", "mul", "truediv", "pow", "rsub", "rtruediv"])
    def test_float_operands_refused(self, op):
        with pytest.raises(TypeError):
            op(Z, 0.5)

    def test_float_never_equal(self):
        assert (Z == 0.5) is False
        assert (ComplexRational(Fraction(1, 2)) == 0.5) is False
        assert ComplexRational(Fraction(1, 2)) == Fraction(1, 2)

    @pytest.mark.parametrize("real", [Fraction(1, 2), 3, 0, Fraction(-7, 3)])
    def test_real_value_hashes_as_its_real_part(self, real):
        z = ComplexRational(real)
        assert z == real and hash(z) == hash(real)
        assert real in {z} and z in {real}
        assert {z: "z"}[real] == "z" and {real: "r"}[z] == "r"

    def test_non_real_values_hash_by_both_parts(self):
        assert {Z: 1}[ComplexRational(Fraction(2, 4), Fraction(-6, 8))] == 1
        assert Fraction(1, 2) not in {Z}

    def test_repr(self):
        assert repr(ComplexRational(1, Fraction(-1, 3))) == \
            "ComplexRational(1, -1/3)"
