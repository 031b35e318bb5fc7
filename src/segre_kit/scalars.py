"""Gaussian rational scalars: exact complex numbers a + b*i with a, b in Q.

All exact-engine coefficients live here so that no computation ever rounds.
A Scalar is one reduced integer triple (a + b*i)/d with d > 0 and
gcd(a, b, d) = 1, so equality is structural; ``re`` and ``im`` read the two
parts as Fractions, ``parts`` reads them in the form keys use (ints when
d = 1), and a real Scalar hashes as its rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _ratio(x):
    """(numerator, denominator > 0) of an int, Fraction or 'a/b' string."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, (int, Fraction, str)):
        raise TypeError(f"cannot build an exact rational from {x!r}")
    q = Fraction(x)
    return q.numerator, q.denominator


class Scalar:
    """An exact Gaussian rational (a + b*i)/d, in lowest terms."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        _fill(self, p * s, r * q, q * s)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_value(x) -> "Scalar":
        """Coerce an int, Fraction, Scalar or 'a/b' string."""
        if isinstance(x, Scalar):
            return x
        n, d = _ratio(x)
        return _fill(_new(Scalar), n, 0, d)

    # -- parts ---------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def parts(self) -> tuple:
        """(re, im) as ints when d = 1, else as Fractions: equal to
        (re, im), and hashing and sorting alike."""
        if self.d == 1:
            return self.a, self.b
        return Fraction(self.a, self.d), Fraction(self.b, self.d)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is Scalar else Scalar.from_value(other)
        if self.d == o.d:
            return _fill(_new(Scalar), self.a + o.a, self.b + o.b, self.d)
        return _fill(_new(Scalar), self.a * o.d + o.a * self.d,
                     self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __neg__(self):
        return _fill(_new(Scalar), -self.a, -self.b, self.d)

    def __sub__(self, other):
        o = other if type(other) is Scalar else Scalar.from_value(other)
        if self.d == o.d:
            return _fill(_new(Scalar), self.a - o.a, self.b - o.b, self.d)
        return _fill(_new(Scalar), self.a * o.d - o.a * self.d,
                     self.b * o.d - o.b * self.d, self.d * o.d)

    def __rsub__(self, other):
        return Scalar.from_value(other) - self

    def __mul__(self, other):
        o = other if type(other) is Scalar else Scalar.from_value(other)
        return _fill(_new(Scalar), self.a * o.a - self.b * o.b,
                     self.a * o.b + self.b * o.a, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is Scalar else Scalar.from_value(other)
        n = o.a * o.a + o.b * o.b
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        return _fill(_new(Scalar), (self.a * o.a + self.b * o.b) * o.d,
                     (self.b * o.a - self.a * o.b) * o.d, self.d * n)

    # -- predicates / conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __bool__(self):
        return bool(self.a or self.b)

    def __complex__(self):
        return complex(self.a / self.d, self.b / self.d)

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.d == 1 and not self.b and self.a == other
        if isinstance(other, Fraction):
            return not self.b and self.a == other.numerator \
                and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))

    # -- text -----------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"


_new = object.__new__
_set_a, _set_b, _set_d = (Scalar.__dict__[part].__set__ for part in "abd")


def _fill(s: Scalar, a: int, b: int, d: int) -> Scalar:
    """Store (a + b*i)/d, d > 0, in lowest terms on ``s``: the only writer of
    a Scalar's parts."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _ratio_str(n: int, d: int) -> str:
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def format_scalar(s: Scalar) -> str:
    """Render in the polynomial text syntax: '3', '-1/2', 'i', '(1+2*i)'."""
    a, b, d = s.a, s.b, s.d
    if not b:  # gcd(a, d) = 1 already
        return str(a) if d == 1 else f"{a}/{d}"
    im_part = "i" if b == d else ("-i" if b == -d else f"{_ratio_str(b, d)}*i")
    if not a:
        return im_part
    return f"({_ratio_str(a, d)}{im_part if b < 0 else '+' + im_part})"
