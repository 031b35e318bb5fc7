import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre_kit.errors import InputError, ParseError
from segre_kit.poly import (
    PolyMatrix,
    Polynomial,
    StructureClass,
    classify_structure,
    determinant_and_minors,
    format_polynomial,
    monomial_gcd_factor,
    parse_polynomial,
)
from segre_kit.scalars import Scalar


def p(text, n=2):
    return parse_polynomial(text, n)


def mat(rows, n):
    return PolyMatrix([[parse_polynomial(s, n) for s in row] for row in rows])


# ---------------------------------------------------------------------------
# evaluate / differentiate
# ---------------------------------------------------------------------------

def test_evaluate_examples():
    assert p("x1*x2").evaluate([2, 3]) == Scalar(6)
    assert p("x1^2 - x2").evaluate([0, 0]).is_zero()
    assert p("x1*x3", 3).evaluate([1, 5, 2]) == Scalar(2)


def test_evaluate_machine_complex():
    val = p("x1^2 - x2").evaluate([1j, 0.5])
    assert val == pytest.approx(-1 - 0.5)


def test_evaluate_dimension_mismatch():
    with pytest.raises(InputError):
        p("x1").evaluate([1, 2, 3])


def test_differentiate_examples():
    assert p("x1^2*x2").differentiate(0) == p("2*x1*x2")
    assert p("x2").differentiate(0).is_zero()
    assert p("x1^3").differentiate(0) == p("3*x1^2")
    with pytest.raises(InputError):
        p("x1").differentiate(5)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    poly = p("x1^3*x2 - 2*x1*x2^2 + x2 + 1/2*x1^2")
    h = 1e-5
    for _ in range(20):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z /= max(1.0, float(np.max(np.abs(z))))
        for var in range(2):
            step = np.zeros(2, dtype=complex)
            step[var] = h
            fd = (poly.evaluate(list(z + step)) - poly.evaluate(list(z - step))) / (2 * h)
            ex = poly.differentiate(var).evaluate(list(z))
            assert abs(fd - ex) <= 1e-6 * max(1.0, abs(ex))


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def test_minor_examples():
    g = mat([["x1", "0"], ["0", "x2"]], 2)
    assert determinant_and_minors(g, 2) == [p("x1*x2")]
    row = mat([["x1", "x2"]], 2)
    assert determinant_and_minors(row, 1) == [p("x1"), p("x2")]
    ident = mat([["1", "0"], ["0", "1"]], 2)
    assert determinant_and_minors(ident, 2) == [p("1")]
    with pytest.raises(InputError):
        determinant_and_minors(g, 3)


def test_determinant_sign_under_row_swap():
    g = mat([["x1", "x2", "1"], ["0", "x1", "x2"], ["1", "0", "x1"]], 2)
    swapped = PolyMatrix([g.entries[1], g.entries[0], g.entries[2]])
    assert determinant_and_minors(swapped, 3)[0] == -determinant_and_minors(g, 3)[0]
    # 1x1 minors of the swapped matrix are a permutation of the originals
    m1 = determinant_and_minors(g, 1)
    m2 = determinant_and_minors(swapped, 1)
    assert sorted(q.key() for q in m1) == sorted(q.key() for q in m2)


def test_minor_ordering_is_lexicographic():
    g = mat([["x1", "x2"], ["1", "x1"], ["x2", "1"]], 2)
    minors = determinant_and_minors(g, 2)
    subsets = list(itertools.combinations(range(3), 2))
    assert len(minors) == len(subsets)
    # first minor is rows (0,1)
    assert minors[0] == p("x1^2") - p("x2")


# ---------------------------------------------------------------------------
# gcd factor and structure classes
# ---------------------------------------------------------------------------

def test_monomial_gcd_factor_examples():
    g = mat([["x1*x3", "0", "0"], ["0", "x2*x3", "0"], ["0", "0", "x3^2"]], 3)
    h, red = monomial_gcd_factor(g)
    assert h == (0, 0, 1)
    assert red == mat([["x1", "0", "0"], ["0", "x2", "0"], ["0", "0", "x3"]], 3)

    g = mat([["x1", "0"], ["0", "x2"]], 2)
    h, red = monomial_gcd_factor(g)
    assert h == (0, 0) and red == g

    g = mat([["x1*x2", "x2^2"]], 2)
    h, red = monomial_gcd_factor(g)
    assert h == (0, 1) and red == mat([["x1", "x2"]], 2)


def test_monomial_gcd_factor_idempotent():
    g = mat([["x1*x2", "x2^2"]], 2)
    _, red = monomial_gcd_factor(g)
    h2, red2 = monomial_gcd_factor(red)
    assert sum(h2) == 0 and red2 == red


def test_monomial_gcd_factor_nonmonomial_falls_back():
    g = mat([["x1 + x2", "x2"]], 2)
    h, red = monomial_gcd_factor(g)
    assert sum(h) == 0 and red == g


def test_classify_examples():
    assert classify_structure(mat([["x1", "0"], ["0", "x2"]], 2)) \
        == StructureClass.DIAGONAL_MONOMIAL
    assert classify_structure(mat([["x1", "x2"]], 2)) == StructureClass.SINGLE_ROW
    assert classify_structure(mat([["x1", "x2 + 1"], ["x2", "x1"]], 2)) \
        == StructureClass.GENERAL
    assert classify_structure(mat([["x1^2 - x2^3", "x1*x2"]], 2)) \
        == StructureClass.COLUMN_SECTION
    # permuted diagonal stays diagonal
    assert classify_structure(mat([["0", "x2"], ["x1", "0"]], 2)) \
        == StructureClass.DIAGONAL_MONOMIAL


# ---------------------------------------------------------------------------
# text round-trip
# ---------------------------------------------------------------------------

def test_parse_examples():
    assert p("x1^2*x2 - 3*x2") == Polynomial(2, {(2, 1): 1, (0, 1): -3})
    assert p("1/2*x1 + i*x2") == Polynomial(2, {(1, 0): Fraction(1, 2),
                                                (0, 1): Scalar(0, 1)})
    assert p("(1-2*i)*x1") == Polynomial(2, {(1, 0): Scalar(1, -2)})
    with pytest.raises(ParseError):
        p("x1 +")
    with pytest.raises(ParseError):
        p("y3")
    # a power is built as one monomial, not by repeated multiplication
    assert parse_polynomial("x1^200000", 1) == Polynomial.monomial(1, [200000])
    assert p("x1^0*x2") == Polynomial.variable(2, 1)


scalar_strategy = st.builds(
    Scalar,
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@st.composite
def polynomials(draw, nvars=3, max_terms=6, max_exp=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[mono] = draw(scalar_strategy)
    return Polynomial(nvars, terms)


@given(polynomials())
@settings(max_examples=150, deadline=None)
def test_text_round_trip(poly):
    assert parse_polynomial(format_polynomial(poly), poly.nvars) == poly
