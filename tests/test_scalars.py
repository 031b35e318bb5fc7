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
    assert z.norm_sq() == 25
    assert (z * z.conjugate()).re == 25
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
