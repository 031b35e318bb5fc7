"""Gaussian rational scalars: exact complex numbers a + b*i with a, b in Q.

All exact-engine coefficients live here so that no computation ever rounds.
`fractions.Fraction` keeps denominators reduced; equality and hashing are
structural.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)  # shared by every part of a Scalar left at its default


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class Scalar:
    """An exact Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=_ZERO, im=_ZERO):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_value(x) -> "Scalar":
        """Coerce an int, Fraction, Scalar or 'a/b' string."""
        if isinstance(x, Scalar):
            return x
        return Scalar(_frac(x))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is Scalar else Scalar.from_value(other)
        if not (self.im or o.im):
            return Scalar(self.re + o.re)
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-Scalar.from_value(other))

    def __rsub__(self, other):
        return Scalar.from_value(other) + (-self)

    def __mul__(self, other):
        o = other if type(other) is Scalar else Scalar.from_value(other)
        if not (self.im or o.im):
            return Scalar(self.re * o.re)
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is Scalar else Scalar.from_value(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar((self.re * o.re + self.im * o.im) / d,
                      (self.im * o.re - self.re * o.im) / d)

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """Exact |z|^2, a non-negative rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates / conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- text -----------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(s: Scalar) -> str:
    """Render in the polynomial text syntax: '3', '-1/2', 'i', '(1+2*i)'."""
    if s.im == 0:
        return _frac_str(s.re)
    if s.re == 0:
        if s.im == 1:
            return "i"
        if s.im == -1:
            return "-i"
        return f"{_frac_str(s.im)}*i"
    im_part = "i" if s.im == 1 else ("-i" if s.im == -1 else f"{_frac_str(s.im)}*i")
    if not im_part.startswith("-"):
        im_part = "+" + im_part
    return f"({_frac_str(s.re)}{im_part})"
