"""Exact complex rationals: arithmetic, refusal of float operands, parts."""

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
        (2 / Z, ComplexRational(Fraction(16, 13), Fraction(24, 13))),
        (-Z, ComplexRational(Fraction(-1, 2), Fraction(3, 4))),
        (1 - Z, ComplexRational(Fraction(1, 2), Fraction(3, 4))),
        (Z ** -2, (1 / Z) * (1 / Z)),
    ], ids=["rtruediv", "neg", "rsub", "negative-power"])
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

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError, match="complex rational"):
            Z / ComplexRational()
        with pytest.raises(ZeroDivisionError, match="complex rational"):
            1 / ComplexRational()
