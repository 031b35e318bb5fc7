import itertools
import re
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segre_kit import poly
from segre_kit.errors import InputError, ParseError
from segre_kit.poly import (
    PolyMatrix,
    Polynomial,
    StructureClass,
    classify_structure,
    determinant,
    format_monomial,
    format_polynomial,
    _gauss_det,
    _sturm,
    disk_root_count,
    parse_matrix,
    parse_polynomial,
    parse_scalar_text,
    resultant,
    strip_common_factor,
)
from segre_kit.scalars import Scalar, format_scalar


def p(text, n=2):
    return parse_polynomial(text, n)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_construct_from_pairs():
    # a repeated monomial is merged once, at its first occurrence
    q = Polynomial(2, [((0, 1), 2), ((1, 0), 1), ((0, 1), Fraction(1, 2))])
    assert q == p("5/2*x2 + x1")
    assert list(q.terms) == [(0, 1), (1, 0)]
    assert Polynomial(2, [((1, 1), 3), ((1, 1), -3)]).is_zero()
    assert Polynomial(2, iter([((1, 1), 3), ((0, 0), 1), ((1, 1), -3)])) == p("1")
    for bad in ([((1,), 1)], [((1, -1), 1)], [((0, 0), 1), ((2, 0, 1), 1)]):
        with pytest.raises(InputError):
            Polynomial(2, bad)


# ---------------------------------------------------------------------------
# eval_array / differentiate
# ---------------------------------------------------------------------------

def test_eval_array_machine_complex():
    val = p("x1^2 - x2").eval_array(np.array([[1j, 0.5]]))
    assert val[0] == pytest.approx(-1 - 0.5)


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
    z = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
    z /= np.maximum(1.0, np.max(np.abs(z), axis=1))[:, None]
    for var in range(2):
        step = np.zeros(2, dtype=complex)
        step[var] = h
        fd = (poly.eval_array(z + step) - poly.eval_array(z - step)) / (2 * h)
        ex = poly.differentiate(var).eval_array(z)
        assert np.all(np.abs(fd - ex) <= 1e-6 * np.maximum(1.0, np.abs(ex)))


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def test_minor_examples():
    # the full-size minor is the determinant
    g = parse_matrix([["x1", "0"], ["0", "x2"]], 2)
    assert determinant(g) == p("x1*x2")
    assert determinant(parse_matrix([["x1"]], 2)) == p("x1")
    ident = parse_matrix([["1", "0"], ["0", "1"]], 2)
    assert determinant(ident) == p("1")
    with pytest.raises(InputError):
        determinant(parse_matrix([["x1", "x2"]], 2))


def test_determinant_sign_under_row_swap():
    g = parse_matrix([["x1", "x2", "1"], ["0", "x1", "x2"], ["1", "0", "x1"]],
                     2)
    swapped = PolyMatrix([g.entries[1], g.entries[0], g.entries[2]])
    assert determinant(swapped) == -determinant(g)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def test_resultant_examples():
    # exact coefficients in the remaining variable, highest degree first
    assert resultant(p("x1^2 - x2^3"), p("x1*x2"), 0) == [-1, 0, 0, 0, 0, 0]
    assert resultant(p("x1^2 - x2^3"), p("x1*x2"), 1) == [-1, 0, 0, 0, 0, 0]
    assert resultant(p("x1^2 + 1"), p("3*x1 + x2"), 0) == [1, 0, 9]
    assert resultant(p("x1^2*x2 + i*x1 - 1/2"), p("(1+i)*x1 + x2^2"), 0) == \
        [1, 0, 0, Scalar(1, -1), 0, Scalar(0, -1)]


def test_resultant_common_factor_is_none():
    # (x1 - 1) * (x1 + x2) and x2 * (x1 + x2)
    assert resultant(p("x1^2 + x1*x2 - x1 - x2"), p("x1*x2 + x2^2"), 0) is None
    assert resultant(p("x1^2 - x2"), p("0"), 0) is None
    with pytest.raises(InputError):
        resultant(p("x1", 3), p("x2", 3), 0)


def test_resultant_entry_of_degree_zero():
    # an entry free of the eliminated variable enters as a power of itself
    assert resultant(p("x2 + 2"), p("x1^2 + x2"), 0) == [1, 4, 4]
    assert resultant(p("x2"), p("x2 + 1"), 0) == [1]


# Res_x1 of a dense pair of total degree 5, as recorded from sympy 1.14
DENSE_F = ("3*i*x1^5 + (-2-3*i)*x1^4*x2 + (-2-i)*x1^3*x2^2 + (-1-2*i)*x1^2*x2^3"
           " + (3-2*i)*x1*x2^4 + (-1/3+i)*x2^5 + (-3/2-i)*x1^4 - 2*x1^3*x2"
           " + (-1-i)*x1^2*x2^2 + (-3+i)*x1*x2^3 + (1/3+3*i)*x2^4 + (-1/3-i)*x1^3"
           " + (-1+3*i)*x1^2*x2 + (-2/3-2*i)*x1*x2^2 + (-4-3*i)*x2^3"
           " + (-4-2*i)*x1^2 + (-1/3-i)*x1*x2 + (3+2*i)*x2^2 + (-3-3*i)*x1"
           " + (4+3*i)*x2 + 3*i")
DENSE_G = ("(-4+i)*x1^5 - 2*i*x1^4*x2 + (1/2-2*i)*x1^3*x2^2 + (1/2-2*i)*x1^2*x2^3"
           " + (2+i)*x1*x2^4 + (4/3-i)*x2^5 + (-3+2*i)*x1^4 + (4-i)*x1^3*x2"
           " + (2-2*i)*x1^2*x2^2 + (-1/3-i)*x1*x2^3 + (1/3-3*i)*x2^4"
           " + (1/2+2*i)*x1^3 + (1/2-3*i)*x1^2*x2 + (-1+3*i)*x1*x2^2 + 2*i*x2^3"
           " - 3*i*x1^2 + (-4+i)*x1*x2 + (3-3*i)*x2^2 + 2*x1 + x2 + 2*i")
DENSE_RES = [
    ("63504919/243", "48348127/1944"),
    ("10096594547/3888", "-1281877247/486"),
    ("-9236322835/2592", "-136759442053/7776"),
    ("-129359770139/3888", "24403105207/7776"),
    ("3370251455501/46656", "3130075619105/46656"),
    ("1154796342089/7776", "-2304414036095/15552"),
    ("-336029052637/1944", "-146437450739/7776"),
    ("13569017568071/23328", "25695548685293/93312"),
    ("110726120032303/139968", "-10153984742641/11664"),
    ("-13454659025327/139968", "-126048094893509/279936"),
    ("202679412913019/139968", "-97549271629529/209952"),
    ("70235415559867/46656", "-1626732980963537/839808"),
    ("-62414385922037/139968", "-427462743087329/209952"),
    ("38123312274029/34992", "-2113310488882337/839808"),
    ("175973106755689/139968", "-1140676558411711/419904"),
    ("-66103626146515/69984", "-659339459293691/279936"),
    ("-48479799880505/69984", "-99031849739447/34992"),
    ("7632353283199/34992", "-254829189186461/93312"),
    ("-292331540447/17496", "-79379366828743/46656"),
    ("58610318125/46656", "-99019405616323/93312"),
    ("14136977182847/46656", "-4324822800457/5832"),
    ("5960308925051/23328", "-10660451176267/31104"),
    ("281943223507/2592", "-12179147815/162"),
    ("69026500385/1296", "-278709293681/7776"),
    ("22748363497/1944", "-43866333941/1728"),
    ("-29765741957/15552", "-1471890241/432"),
]


def test_resultant_dense_degree_five():
    t0 = time.perf_counter()
    got = resultant(p(DENSE_F), p(DENSE_G), 0)
    assert time.perf_counter() - t0 < 1.0
    assert got == [Scalar(re, im) for re, im in DENSE_RES]


# The Gaussian-rational elimination and Newton interpolation that computed
# resultants before the fraction-free kernels, kept verbatim as a reference.
def _scalar_det(rows) -> Scalar:
    """Exact determinant of a square Scalar matrix by Gaussian elimination."""
    a = [list(r) for r in rows]
    det = Scalar(1)
    for j in range(len(a)):
        piv = next((i for i in range(j, len(a)) if not a[i][j].is_zero()), None)
        if piv is None:
            return Scalar(0)
        if piv != j:
            a[j], a[piv], det = a[piv], a[j], -det
        det = det * a[j][j]
        for i in range(j + 1, len(a)):
            if not a[i][j].is_zero():
                q = a[i][j] / a[j][j]
                a[i][j + 1:] = [x - q * y
                                for x, y in zip(a[i][j + 1:], a[j][j + 1:])]
    return det


def reference_resultant(f1: Polynomial, f2: Polynomial, eliminate: int):
    if f1.nvars != 2 or f2.nvars != 2:
        raise InputError("resultant works in two variables")
    if f1.is_zero() or f2.is_zero():
        return None
    other = 1 - eliminate
    m, n = f1.degree_in(eliminate), f2.degree_in(eliminate)
    top = min(n * f1.degree_in(other) + m * f2.degree_in(other),
              max(map(sum, f1.terms)) * max(map(sum, f2.terms)))
    vals = []
    for y in range(top + 1):
        rows = []
        for p, deg, copies in ((f1, m, n), (f2, n, m)):
            cs = [Scalar(0)] * (deg + 1)
            for mono, c in p.terms.items():
                cs[deg - mono[eliminate]] += c * y ** mono[other]
            rows += [[Scalar(0)] * i + cs + [Scalar(0)] * (copies - 1 - i)
                     for i in range(copies)]
        vals.append(_scalar_det(rows))
    # divided differences on the nodes 0..D, then the Newton form expanded
    for j in range(1, top + 1):
        for i in range(top, j - 1, -1):
            vals[i] = (vals[i] - vals[i - 1]) / j
    coeffs = [vals[top]]  # ascending in y
    for j in range(top - 1, -1, -1):
        coeffs = [vals[j] - coeffs[0] * j] + [
            a - b * j for a, b in zip(coeffs, coeffs[1:])] + [coeffs[-1]]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs[::-1] or None


def test_reference_resultant_examples():
    assert reference_resultant(p("x1^2 + 1"), p("3*x1 + x2"), 0) == [1, 0, 9]
    assert reference_resultant(p(DENSE_F), p(DENSE_G), 0) == \
        [Scalar(re, im) for re, im in DENSE_RES]


@st.composite
def resultant_pairs(draw):
    """(f1, f2, eliminate): Gaussian-rational pairs of degree <= 3 in each
    variable; sometimes one is free of the eliminated variable, sometimes
    both share a factor of degree 1."""
    eliminate = draw(st.integers(0, 1))
    pair = []
    for _ in range(2):
        free = draw(st.booleans()) and draw(st.booleans())
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            mono = [draw(st.integers(0, 3)), draw(st.integers(0, 3))]
            if free:
                mono[eliminate] = 0
            terms[tuple(mono)] = draw(scalar_strategy)
        pair.append(Polynomial(2, terms))
    if draw(st.booleans()) and draw(st.booleans()):
        h = Polynomial(2, {(1, 0): draw(scalar_strategy),
                           (0, 1): draw(scalar_strategy),
                           (0, 0): draw(scalar_strategy)})
        pair = [q * h for q in pair]
    return pair[0], pair[1], eliminate


@given(resultant_pairs())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_resultant_matches_reference(case):
    f1, f2, eliminate = case
    assert resultant(f1, f2, eliminate) == reference_resultant(f1, f2, eliminate)


def _sturm_reference(a, b):
    """poly._sturm over Fractions, before its integer pseudo-remainders,
    kept verbatim as the reference."""
    seq = [a]
    while any(b):
        while not b[-1]:
            b = b[:-1]
        r = a
        while len(r) >= len(b):  # a zero leading term just drops
            f, s = r[-1] / b[-1], len(r) - len(b)
            r = r[:s] + [c - f * e for c, e in zip(r[s:-1], b)]
        seq.append(b)
        a, b = b, [-c for c in r]
    var = [sum(u != v for u, v in zip(s, s[1:])) for s in
           ([x ** (len(p) - 1) * (1 if p[-1] > 0 else -1) for p in seq]
            for x in (-1, 1))]
    return var[0] - var[1], seq[-1]


def _fraction_sturm(a, b):
    return _sturm_reference([Fraction(c) for c in a], [Fraction(c) for c in b])


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=9),
       st.lists(st.integers(-30, 30), max_size=9))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sturm_matches_fraction_reference(a, b):
    """Same Cauchy index, and a last entry that differs by a positive factor."""
    assume(a[-1])
    index, g = _sturm(a, b)
    ref_index, ref_g = _fraction_sturm(a, b)
    assert index == ref_index
    ratio = Fraction(g[-1]) / ref_g[-1]
    assert ratio > 0 and [Fraction(c) for c in g] == [ratio * c for c in ref_g]


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                min_size=1, max_size=9),
       st.sampled_from([1.0, 0.85, Fraction(3, 7)]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_disk_root_count_matches_fraction_sturm(coeffs, radius):
    """Gaussian-integer polynomials of degree <= 8, also at radii whose
    Fraction has a large denominator (0.85 has 2^53)."""
    assume(any(a or b for a, b in coeffs))
    cs = [Scalar(a, b) for a, b in coeffs]
    with mock.patch.object(poly, "_sturm", _fraction_sturm):
        ref = disk_root_count(cs, radius)
    assert disk_root_count(cs, radius) == ref


def leibniz_det(rows):
    """The sum over permutations of sign times product, in (re, im) pairs."""
    n = len(rows)
    re = im = 0
    for perm in itertools.permutations(range(n)):
        pr, pi = 1, 0
        for i, j in enumerate(perm):
            a, b = rows[i][j]
            pr, pi = pr * a - pi * b, pr * b + pi * a
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        sign = -1 if inversions % 2 else 1
        re, im = re + sign * pr, im + sign * pi
    return re, im


gauss_ints = st.tuples(st.integers(-3, 3), st.integers(-3, 3)) | \
    st.just((0, 0))


@st.composite
def gauss_matrices(draw):
    """Square Gaussian-integer matrices of size 0..5, sparse enough to meet
    zero pivots; sometimes one row is a multiple of another (singular)."""
    n = draw(st.integers(0, 5))
    rows = [[draw(gauss_ints) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()) and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        cr, ci = draw(gauss_ints)
        rows[i] = [(cr * a - ci * b, cr * b + ci * a) for a, b in rows[j]]
    return rows


@given(gauss_matrices())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_gauss_det_matches_leibniz(rows):
    assert _gauss_det(rows) == leibniz_det(rows)


def test_gauss_det_examples():
    assert _gauss_det([]) == (1, 0)
    assert _gauss_det([[(2, -3)]]) == (2, -3)
    # a zero pivot is swapped for a row below it, flipping the sign
    assert _gauss_det([[(0, 0), (1, 0)], [(0, 1), (5, 5)]]) == (0, -1)
    assert _gauss_det([[(0, 0), (1, 0)], [(0, 0), (5, 5)]]) == (0, 0)
    assert _gauss_det([[(1, 1), (2, 0)], [(2, 2), (4, 0)]]) == (0, 0)


# ---------------------------------------------------------------------------
# gcd factor and structure classes
# ---------------------------------------------------------------------------

def nonzero(g):
    return [g.entries[i][j] for i, j in g.nonzero_positions()]


def test_strip_common_factor_examples():
    g = parse_matrix([["x1*x3", "0", "0"], ["0", "x2*x3", "0"],
                      ["0", "0", "x3^2"]], 3)
    h, red = strip_common_factor(nonzero(g))
    assert h == (0, 0, 1)
    assert red == nonzero(parse_matrix([["x1", "0", "0"], ["0", "x2", "0"],
                               ["0", "0", "x3"]], 3))

    g = parse_matrix([["x1", "0"], ["0", "x2"]], 2)
    h, red = strip_common_factor(nonzero(g))
    assert h == (0, 0) and red == nonzero(g)

    g = parse_matrix([["x1*x2", "x2^2"]], 2)
    h, red = strip_common_factor(nonzero(g))
    assert h == (0, 1) and red == nonzero(parse_matrix([["x1", "x2"]], 2))


def test_strip_common_factor_idempotent():
    g = parse_matrix([["x1*x2", "x2^2"]], 2)
    _, red = strip_common_factor(nonzero(g))
    h2, red2 = strip_common_factor(red)
    assert sum(h2) == 0 and red2 == red


def test_strip_common_factor_nonmonomial_falls_back():
    g = parse_matrix([["x1 + x2", "x2"]], 2)
    h, red = strip_common_factor(nonzero(g))
    assert sum(h) == 0 and red == nonzero(g)


def test_classify_examples():
    assert classify_structure(parse_matrix([["x1", "0"], ["0", "x2"]], 2)) \
        == StructureClass.DIAGONAL_MONOMIAL
    assert classify_structure(parse_matrix([["x1", "x2"]], 2)) \
        == StructureClass.SINGLE_ROW
    assert classify_structure(
        parse_matrix([["x1", "x2 + 1"], ["x2", "x1"]], 2)) \
        == StructureClass.GENERAL
    assert classify_structure(parse_matrix([["x1^2 - x2^3", "x1*x2"]], 2)) \
        == StructureClass.GENERAL
    # permuted diagonal stays diagonal
    assert classify_structure(parse_matrix([["0", "x2"], ["x1", "0"]], 2)) \
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
    # truncated input ends in a parse error, not an escaping IndexError
    for text in ("x1^", "3/", "1/", "(1+", "("):
        with pytest.raises(ParseError, match="unexpected end of input"):
            p(text)
    # parentheses hold a constant in the same syntax; a name there is
    # unknown, and '2i' needs its '*'
    assert p("(2*3)*x1") == Polynomial(2, {(1, 0): 6})
    assert p("((1))") == Polynomial.constant(2, 1)
    assert p("(i*i)*x2 + (1/2-(1+i))") == Polynomial(
        2, {(0, 1): -1, (0, 0): Scalar(Fraction(-1, 2), -1)})
    for text, message in (("(1+2i)", "expected ')'"), ("(x1)", "unknown symbol 'x1'"),
                          ("(" * 5000 + "1" + ")" * 5000, "nested too deep")):
        with pytest.raises(ParseError, match=re.escape(message)):
            p(text)
    # a monomial that cancels and comes back keeps its first position
    assert list(p("x1 - x1 + x2 + x1").terms) == [(1, 0), (0, 1)]
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


@given(polynomials(), scalar_strategy)
@settings(max_examples=150, deadline=None)
def test_text_round_trip(poly, s):
    assert parse_polynomial(format_polynomial(poly), poly.nvars) == poly
    assert parse_scalar_text(format_scalar(s)) == s


@given(polynomials(), st.data())
@settings(max_examples=150, deadline=None)
def test_parse_rendered_terms(poly, data):
    """Terms in any order, coefficients split as (c - d)*m + d*m, and
    coefficients in parentheses parse to the Polynomial that arithmetic
    builds from the same pieces."""
    pieces = []
    for m, c in poly.terms.items():
        d = data.draw(scalar_strategy) if data.draw(st.booleans()) else Scalar(0)
        pieces += [(m, c - d), (m, d)]
    pieces = data.draw(st.permutations(pieces))
    texts = [f"({format_scalar(c)})*{format_monomial(m)}" if data.draw(st.booleans())
             else format_polynomial(Polynomial.monomial(poly.nvars, m, c))
             for m, c in pieces]
    text = " ".join(t if k == 0 or t.startswith("-") else f"+ {t}"
                    for k, t in enumerate(texts)) or "0"
    built = sum((Polynomial.monomial(poly.nvars, m, c) for m, c in pieces),
                Polynomial.zero(poly.nvars))
    assert built == poly
    assert parse_polynomial(text, poly.nvars) == built


def test_one_polynomial_per_parse(monkeypatch):
    """A parse hands every term's (monomial, coefficient) pair to a single
    Polynomial constructor call; no Polynomial is built per token."""
    calls = []
    init = Polynomial.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    for text in ("x1^2*x2 - 3/4*x2 + x1 - x1", "(2*3)*x1 + ((1+2*i))*i*x2^3", "0"):
        calls.clear()
        parse_polynomial(text, 2)
        assert len(calls) == 1, text
    # constant text is summed from its pairs, with no Polynomial at all
    for text in ("1/2", "-(1-2*i)", "i*(2*3)"):
        calls.clear()
        parse_scalar_text(text)
        assert not calls, text
