"""The exact amplitude value type: a complex number with rational parts."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ComplexRational:
    """An exact amplitude with rational parts, a ring value: +, - and * with
    ints and Fractions (as minors and binomials need); floats are refused."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        # the JSON reader already makes Fractions: wrap only the other parts
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", Fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def _coerce(other):
        if isinstance(other, ComplexRational):
            return other
        if isinstance(other, (int, Fraction)):
            return ComplexRational(Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal to its real part when real, so hashed as that int or Fraction
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ComplexRational({self.re!s}, {self.im!s})"
