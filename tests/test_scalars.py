import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre_kit.scalars import Scalar, format_scalar

parts = st.fractions(min_value=-9, max_value=9, max_denominator=9)
# real Scalars often, to reach the real-only paths of + and *
scalars = st.builds(Scalar, parts, parts | st.just(0)) | st.integers(-3, 3)


def test_arithmetic_is_exact():
    a = Scalar(Fraction(1, 3), Fraction(1, 7))
    b = Scalar(Fraction(2, 5), Fraction(-1, 2))
    assert (a + b).re == Fraction(11, 15)
    assert (a * b) / b == a
    assert (a - a).is_zero()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_conjugate_and_norm():
    z = Scalar(3, 4)
    assert z * Scalar(3, -4) == 25
    assert complex(z) == 3 + 4j


def test_formatting():
    assert format_scalar(Scalar(3)) == "3"
    assert format_scalar(Scalar(Fraction(-1, 2))) == "-1/2"
    assert format_scalar(Scalar(0, 1)) == "i"
    assert format_scalar(Scalar(0, Fraction(3, 4))) == "3/4*i"
    assert format_scalar(Scalar(1, 2)) == "(1+2*i)"
    assert format_scalar(Scalar(1, -1)) == "(1-i)"


@given(scalars, scalars)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_sum_and_product_follow_the_complex_formulas(a, b):
    # real + real and real * real take one Fraction operation; the results
    # equal the full formulas, part for part and in type
    x = a if isinstance(a, Scalar) else Scalar(a)
    y = Scalar.from_value(b)
    for got, re, im in (
            (x + b, x.re + y.re, x.im + y.im),
            (x * b, x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)):
        assert (got.re, got.im) == (re, im)
        assert type(got.re) is type(got.im) is Fraction
    assert x.is_zero() == (x.re == 0 and x.im == 0) == (not x)


def test_hash_agrees_with_equality():
    assert 3 in {Scalar(3)} and Scalar(3) in {3}
    assert Fraction(-1, 2) in {Scalar(Fraction(-1, 2))}
    assert Scalar(Fraction(4, 2)) in {2}
    with pytest.raises(AttributeError):
        Scalar(1).a = 2


# -- the Fraction-pair Scalar, kept verbatim as the reference -----------------

_ZERO = Fraction(0)  # shared by every part of a Scalar left at its default


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class ReferenceScalar:
    """An exact Gaussian rational re + im*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=_ZERO, im=_ZERO):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_value(x) -> "ReferenceScalar":
        """Coerce an int, Fraction, Scalar or 'a/b' string."""
        if isinstance(x, ReferenceScalar):
            return x
        return ReferenceScalar(_frac(x))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is ReferenceScalar \
            else ReferenceScalar.from_value(other)
        if not (self.im or o.im):
            return ReferenceScalar(self.re + o.re)
        return ReferenceScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ReferenceScalar(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-ReferenceScalar.from_value(other))

    def __rsub__(self, other):
        return ReferenceScalar.from_value(other) + (-self)

    def __mul__(self, other):
        o = other if type(other) is ReferenceScalar \
            else ReferenceScalar.from_value(other)
        if not (self.im or o.im):
            return ReferenceScalar(self.re * o.re)
        return ReferenceScalar(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is ReferenceScalar \
            else ReferenceScalar.from_value(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return ReferenceScalar((self.re * o.re + self.im * o.im) / d,
                               (self.im * o.re - self.re * o.im) / d)

    # -- predicates / conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ReferenceScalar(other)
        if not isinstance(other, ReferenceScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- text -----------------------------------------------------------

    def __str__(self):
        return reference_format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def reference_format_scalar(s: ReferenceScalar) -> str:
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


# -- the integer triple against the reference --------------------------------

# small rationals, units, and the +-2^16 Gaussian integers of Crofton slices
rationals = (st.fractions(min_value=-9, max_value=9, max_denominator=12)
             | st.integers(-2 ** 16, 2 ** 16)
             | st.sampled_from([0, 1, -1, 2 ** 16, -2 ** 16]))
part_pairs = st.tuples(rationals, rationals | st.just(0))
plain = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3,
                                          max_denominator=4)


def agrees(x, ref):
    """The triple is reduced and reads as the reference, part for part and
    in every conversion."""
    assert isinstance(x, Scalar) and isinstance(ref, ReferenceScalar)
    assert x.d > 0 and math.gcd(x.a, x.b, x.d) == 1
    assert (x.re, x.im) == (ref.re, ref.im)
    assert type(x.re) is type(x.im) is Fraction
    assert repr(x) == repr(ref)
    assert format_scalar(x) == reference_format_scalar(ref) == str(x)
    assert complex(x) == complex(ref)
    assert bool(x) == bool(ref) == (not x.is_zero())


@given(part_pairs, part_pairs, plain)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_triple_matches_fraction_pair(p, q, k):
    x, y = Scalar(*p), Scalar(*q)
    rx, ry = ReferenceScalar(*p), ReferenceScalar(*q)
    agrees(x, rx)
    for got, ref in ((x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                     (x + k, rx + k), (k + x, k + rx), (x - k, rx - k),
                     (k - x, k - rx), (x * k, rx * k), (k * x, k * rx),
                     (-x, -rx),
                     (Scalar.from_value(k), ReferenceScalar.from_value(k))):
        agrees(got, ref)
    for den, rden in ((y, ry), (k, k)):
        if rden:
            agrees(x / den, rx / rden)
        else:
            with pytest.raises(ZeroDivisionError):
                x / den
    assert (x == y) == (rx == ry) and (x == k) == (rx == k)
    assert (x != k) == (rx != k)


@given(plain, plain, plain | st.builds(Scalar, plain, plain))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_equal_values_hash_alike(re, im, other):
    """Small parts, so that equal pairs are common; ints and Fractions
    compare equal to real Scalars and must hash alike."""
    x = Scalar(re, im)
    if x == other:
        assert hash(x) == hash(other)
    if x == re:
        assert hash(x) == hash(re) and re in {x} and x in {re}


@pytest.mark.parametrize("bad,error", [(1.5, TypeError), (None, TypeError),
                                       ("x", ValueError)])
def test_constructor_refuses_what_the_reference_refuses(bad, error):
    for make in (Scalar, ReferenceScalar, lambda x: Scalar(0, x),
                 Scalar.from_value, ReferenceScalar.from_value):
        with pytest.raises(error):
            make(bad)
    with pytest.raises(TypeError):  # a part is a rational, not a Scalar
        Scalar(Scalar(1))


# -- the key form of the parts ----------------------------------------------

# Gaussian integers (d = 1) and Gaussian rationals, mostly with d > 1
keyed = st.one_of(
    st.builds(Scalar, st.integers(-4, 4), st.integers(-4, 4)),
    st.builds(lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
              st.integers(-9, 9), st.integers(-9, 9), st.integers(2, 6)))


@given(keyed, keyed)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parts_are_re_and_im_in_key_form(x, y):
    got, want = x.parts(), (x.re, x.im)
    assert got == want and hash(got) == hash(want)
    assert all(type(p) is (int if x.d == 1 else Fraction) for p in got)
    other = (y.re, y.im)
    for compare in (operator.lt, operator.le, operator.eq, operator.gt):
        assert compare(got, y.parts()) == compare(want, other)
    assert ({got: 1}.get(want), {want: 1}.get(got)) == (1, 1)
