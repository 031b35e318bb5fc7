"""Exact multivariate polynomials over Gaussian rationals, and the input matrices.

Monomials are dense exponent tuples (ambient dimension capped at 8), terms are
kept canonical (no zero coefficients), and equality is structural, so golden
outputs are bit-stable.  The text syntax round-trips exactly:
``parse_polynomial(str(p), n) == p``.
"""

from __future__ import annotations

import math
import re as _re
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from segre_kit.errors import InputError, ParseError
from segre_kit.scalars import Scalar, format_scalar

MAX_VARS = 8


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

Monomial = tuple  # tuple of non-negative ints, one per ambient variable


def monomial_one(nvars: int) -> Monomial:
    return (0,) * nvars


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b exponent-wise."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(b: Monomial, a: Monomial) -> Monomial:
    if not monomial_divides(a, b):
        raise InputError(f"monomial {a} does not divide {b}")
    return tuple(y - x for x, y in zip(a, b))


def monomial_gcd(*mons: Monomial) -> Monomial:
    """Exponent-wise min: the largest monomial dividing every argument."""
    return tuple(min(es) for es in zip(*mons))


def monomial_degree(a: Monomial) -> int:
    return sum(a)


def format_monomial(m: Monomial, names: Optional[Sequence[str]] = None) -> str:
    if names is None:
        names = [f"x{i + 1}" for i in range(len(m))]
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _term_sort_key(m: Monomial):
    # graded lex, used only for stable printing / hashing order
    return (-monomial_degree(m), tuple(-e for e in m))


class Polynomial:
    """A polynomial in ``nvars`` variables with Scalar coefficients.

    ``terms`` is a dict or an iterable of (monomial, coefficient) pairs; the
    coefficients of a repeated monomial are added, and the terms keep the
    order in which their monomials first occur.  ``key()`` is built on first
    use and kept in the ``_key`` slot."""

    __slots__ = ("nvars", "terms", "_key")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0 or nvars > MAX_VARS:
            raise InputError(f"ambient dimension {nvars} outside 0..{MAX_VARS}")
        clean = {}
        for m, c in terms.items() if isinstance(terms, dict) else terms or ():
            if type(c) is not Scalar:
                c = Scalar.from_value(c)
            m = tuple(m)
            if len(m) != nvars:
                raise InputError("monomial length does not match ambient dimension")
            if m and min(m) < 0:
                raise InputError("negative exponent")
            clean[m] = clean[m] + c if m in clean else c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c})

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars: int, c) -> "Polynomial":
        return Polynomial(nvars, {monomial_one(nvars): Scalar.from_value(c)})

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise InputError(f"variable index {index} out of range")
        m = [0] * nvars
        m[index] = 1
        return Polynomial(nvars, {tuple(m): Scalar(1)})

    @staticmethod
    def monomial(nvars: int, exponents: Iterable[int], coeff=1) -> "Polynomial":
        return Polynomial(nvars, {tuple(exponents): Scalar.from_value(coeff)})

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(monomial_degree(m) == 0 for m in self.terms)

    def constant_value(self) -> Scalar:
        return self.terms.get(monomial_one(self.nvars), Scalar(0))

    def as_monomial(self):
        """Return (coeff, exponents) when the polynomial is a single term, else None."""
        if len(self.terms) != 1:
            return None
        (m, c), = self.terms.items()
        return c, m

    def degree_in(self, var: int) -> int:
        return max((m[var] for m in self.terms), default=0)

    def content_monomial(self) -> Monomial:
        """Exponent-wise min over terms; the largest monomial dividing the polynomial."""
        if self.is_zero():
            return monomial_one(self.nvars)
        return monomial_gcd(*self.terms)

    def key(self):
        """Hashable canonical form."""
        try:
            return self._key
        except AttributeError:
            key = (self.nvars,
                   tuple(sorted(((m, *c.parts()) for m, c in self.terms.items()),
                                key=lambda t: _term_sort_key(t[0]))))
            object.__setattr__(self, "_key", key)
            return key

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise InputError("mixed ambient dimensions")
            return other
        return Polynomial.constant(self.nvars, other)

    def __add__(self, other):
        o = self._coerce(other)
        return Polynomial(self.nvars, [*self.terms.items(), *o.terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        return Polynomial(self.nvars, ((monomial_mul(m1, m2), c1 * c2)
                                       for m1, c1 in self.terms.items()
                                       for m2, c2 in o.terms.items()))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash(self.key())

    # -- calculus ---------------------------------------------------------

    def differentiate(self, var: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.nvars:
            raise InputError(f"variable index {var} out of range for n={self.nvars}")
        return Polynomial(self.nvars, ((m[:var] + (m[var] - 1,) + m[var + 1:],
                                        c * m[var])
                                       for m, c in self.terms.items() if m[var]))

    def eval_array(self, points):
        """Vectorised evaluation: points is an (N, nvars) complex ndarray."""
        import numpy as np

        acc = np.zeros(points.shape[0], dtype=complex)
        for m, c in self.terms.items():
            v = np.full(points.shape[0], complex(c))
            for j, e in enumerate(m):
                if e:
                    # the column or its power first: numpy computes a product
                    # with a large temporary in place, as if it were on the
                    # left; x^1 is the column itself, not a complex pow
                    v = (points[:, j] if e == 1 else points[:, j] ** e) * v
            acc += v
        return acc

    # -- variable plumbing -------------------------------------------------

    def restrict_zero(self, var: int) -> "Polynomial":
        """Set variable ``var`` to 0."""
        return Polynomial(self.nvars,
                          {m: c for m, c in self.terms.items() if m[var] == 0})

    def divide_monomial(self, h: Monomial) -> "Polynomial":
        return Polynomial(self.nvars,
                          {monomial_div(m, h): c for m, c in self.terms.items()})

    def map_variables(self, mapping: Sequence[int], nvars: int) -> "Polynomial":
        """Send old variable j to new index mapping[j] (must be injective)."""
        def image(m):
            mm = [0] * nvars
            for j, e in enumerate(m):
                if e:
                    mm[mapping[j]] += e
            return mm

        return Polynomial(nvars, ((image(m), c) for m, c in self.terms.items()))

    # -- text ---------------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<Polynomial {self}>"


def format_polynomial(p: Polynomial, names: Optional[Sequence[str]] = None) -> str:
    if p.is_zero():
        return "0"
    out = []
    for m in sorted(p.terms, key=_term_sort_key):
        c = p.terms[m]
        mono = format_monomial(m, names)
        # pull a leading minus out of real or purely imaginary coefficients
        sign = ""
        if c.b == 0 and c.a < 0 or (c.a == 0 and c.b < 0):
            sign, c = "-", -c
        if mono == "1":
            body = format_scalar(c)
        elif c == 1:
            body = mono
        else:
            body = f"{format_scalar(c)}*{mono}"
        if not out:
            out.append(sign + body)
        else:
            out.append(("- " if sign else "+ ") + body)
    return " ".join(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = _re.compile(r"\s*(?:(\d+|[A-Za-z_]\w*|[-+*/^()])|(.)|$)", _re.S)


def _tokenize(text: str):
    """(token, 1-based column of its first character) pairs."""
    pos, tokens = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m.group(2):
            raise ParseError(f"unexpected character {m.group(2)!r}",
                             column=m.start(2) + 1)
        if m.group(1):
            tokens.append((m.group(1), m.start(1) + 1))
        pos = m.end()
    return tokens


def _int(token: str, column: int) -> int:
    """A digit token as an int; past the interpreter's int-digit limit it is
    a ParseError at the token's column, not a ValueError."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"integer literal of {len(token)} digits is too long",
                         column=column) from None


class _Parser:
    def __init__(self, tokens, nvars):
        self.tokens = tokens
        self.i = 0
        self.nvars = nvars

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self):
        if self.i == len(self.tokens):
            raise ParseError("unexpected end of input")
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, what):
        if self.peek() != what:
            col = self.tokens[self.i][1] if self.i < len(self.tokens) else None
            raise ParseError(f"expected {what!r}", column=col)
        return self.next()

    def parse_sum(self, names) -> list:
        """Terms joined by + and -, one (exponents, coefficient) pair each: a
        term's factors add their exponents and multiply their coefficients.
        ``names`` maps the variables in scope to their indices; none is in
        scope inside parentheses, so the text there is a constant."""
        pairs = []
        while True:
            sign = self.next()[0] if self.peek() in ("+", "-") else "+"
            exps, coeff = [0] * self.nvars, Scalar(-1 if sign == "-" else 1)
            while True:
                tok, col = self.next()
                if tok in names:
                    exp = 1
                    if self.peek() == "^":
                        self.next()
                        e_tok, col = self.next()
                        if not e_tok.isdigit():
                            raise ParseError("exponent must be a decimal integer",
                                             column=col)
                        exp = _int(e_tok, col)
                    exps[names[tok]] += exp
                elif tok.isdigit():
                    coeff = coeff * self.parse_rational(tok, col)
                elif tok == "i":
                    coeff = coeff * Scalar(0, 1)
                elif tok == "(":
                    coeff = coeff * sum(c for _, c in self.parse_sum({}))
                    self.expect(")")
                else:
                    raise ParseError(f"unknown symbol {tok!r}", column=col)
                if self.peek() != "*":
                    break
                self.next()
            pairs.append((exps, coeff))
            if self.peek() not in ("+", "-"):
                return pairs

    def parse_rational(self, num_tok, col):
        """The number ``num_tok``, read already, over the denominator that
        follows a '/'."""
        num = _int(num_tok, col)
        if self.peek() == "/":
            self.next()
            den_tok, col = self.next()
            den = _int(den_tok, col) if den_tok.isdigit() else 0
            if den == 0:
                raise ParseError("bad denominator", column=col)
            return Fraction(num, den)
        return num


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the polynomial text syntax (terms joined by +/-, monomials like
    ``x1^2*x2``, rational coefficients ``a/b``, imaginary unit ``i``,
    parentheses around a constant in the same syntax) over the variables
    x1..xn, n = ``nvars``."""
    return Polynomial(nvars, _parse_terms(
        text, nvars, {f"x{j + 1}": j for j in range(nvars)}))


def parse_matrix(rows, nvars: int) -> "PolyMatrix":
    """``rows`` of polynomial text over x1..xn, n = ``nvars``, as a PolyMatrix."""
    return PolyMatrix([[parse_polynomial(cell, nvars) for cell in row]
                       for row in rows])


def parse_scalar_text(text: str) -> Scalar:
    """Exact coordinate syntax: 'a/b', 'i', '-2', '(1+2*i)': the sum of the
    terms of constant polynomial text, with no Polynomial built."""
    (_, first), *rest = _parse_terms(str(text), 0, {})
    return sum((c for _, c in rest), first)


def _parse_terms(text: str, nvars: int, names: dict) -> list:
    """The (exponents, coefficient) pair of each term of the whole text."""
    parser = _Parser(_tokenize(text), nvars)
    try:
        pairs = parser.parse_sum(names)
    except RecursionError:
        raise ParseError("parentheses nested too deep") from None
    if parser.i != len(parser.tokens):
        raise ParseError("trailing input", column=parser.tokens[parser.i][1])
    return pairs


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class PolyMatrix:
    """An m x r matrix of polynomials: the morphism g in trivial frames."""

    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        if not entries or not entries[0]:
            raise InputError("matrix must have at least one row and one column")
        m, r = len(entries), len(entries[0])
        nvars = entries[0][0].nvars
        for row in entries:
            if len(row) != r:
                raise InputError("ragged matrix")
            for p in row:
                if p.nvars != nvars:
                    raise InputError("entries live in different ambient dimensions")
        object.__setattr__(self, "rows", m)
        object.__setattr__(self, "cols", r)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", tuple(tuple(row) for row in entries))

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    def __str__(self):
        return "[" + "; ".join(", ".join(str(p) for p in row)
                               for row in self.entries) + "]"

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def nonzero_positions(self):
        return [(i, j) for i in range(self.rows) for j in range(self.cols)
                if not self.entries[i][j].is_zero()]

    def line_counts(self):
        """The number of nonzero entries in each row and in each column."""
        rows, cols = [0] * self.rows, [0] * self.cols
        for i, j in self.nonzero_positions():
            rows[i] += 1
            cols[j] += 1
        return rows, cols


def laplace_det(a, rows, cols, is_zero):
    """Determinant of the (rows x cols) submatrix of ``a`` by Laplace
    expansion along its first row, over any ring whose entries multiply, add
    and subtract.  An entry or minor for which ``is_zero`` holds adds no
    term; with no term left, the result is None."""
    if len(rows) == 1:
        return a[rows[0]][cols[0]]
    acc = None
    for j, c in enumerate(cols):
        if is_zero(a[rows[0]][c]):
            continue
        minor = laplace_det(a, rows[1:], cols[:j] + cols[j + 1:], is_zero)
        if minor is None or is_zero(minor):
            continue
        t = a[rows[0]][c] * minor
        acc = (-t if j % 2 else t) if acc is None else \
            acc - t if j % 2 else acc + t
    return acc


def determinant(g: PolyMatrix) -> Polynomial:
    if g.rows != g.cols:
        raise InputError("determinant of a non-square matrix")
    rows = tuple(range(g.rows))
    return laplace_det(g.entries, rows, rows, Polynomial.is_zero) or \
        Polynomial.zero(g.nvars)


def _gauss_det(rows):
    """Exact determinant of a square matrix of Gaussian integers, given as
    (re, im) int pairs, by Bareiss's fraction-free elimination: each step
    divides 2 x 2 minors by the previous pivot, exactly (Sylvester's
    identity)."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, pr, pi = 1, 1, 0
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k] != (0, 0)), None)
        if piv is None:
            return 0, 0
        if piv != k:
            a[k], a[piv], sign = a[piv], a[k], -sign
        (kr, ki), top, nrm = a[k][k], a[k], pr * pr + pi * pi
        for row in a[k + 1:]:
            ir, ii = row[k]
            for j in range(k + 1, n):
                (xr, xi), (yr, yi) = row[j], top[j]
                ur = xr * kr - xi * ki - ir * yr + ii * yi
                ui = xr * ki + xi * kr - ir * yi - ii * yr
                row[j] = ((ur * pr + ui * pi) // nrm, (ui * pr - ur * pi) // nrm)
        pr, pi = kr, ki
    dr, di = a[-1][-1] if n else (1, 0)
    return sign * dr, sign * di


def _falling_newton(vals):
    """D! times the ascending coefficients of the polynomial of degree <= D
    with the integer values ``vals`` at y = 0..D: forward differences, then
    Horner in the falling-factorial basis, all in integers."""
    top = len(vals) - 1
    for j in range(1, top + 1):
        for i in range(top, j - 1, -1):
            vals[i] -= vals[i - 1]
    coeffs, f = [vals[top]], 1  # f = D!/j!
    for j in range(top - 1, -1, -1):
        f *= j + 1
        coeffs = [vals[j] * f - coeffs[0] * j] + [
            a - b * j for a, b in zip(coeffs, coeffs[1:])] + [coeffs[-1]]
    return coeffs


def resultant(f1: Polynomial, f2: Polynomial, eliminate: int):
    """Res_{x_eliminate}(f1, f2) of two-variable polynomials: its exact
    coefficients in the other variable y (descending), None when it is
    identically 0.  With f1, f2 scaled to Gaussian integers by the lcms L1,
    L2 of their denominators, the Sylvester determinant is evaluated at
    y = 0..D, D a bound on its degree, and interpolated to D! L1^n L2^m Res."""
    if f1.nvars != 2 or f2.nvars != 2:
        raise InputError("resultant works in two variables")
    if f1.is_zero() or f2.is_zero():
        return None
    other = 1 - eliminate
    m, n = f1.degree_in(eliminate), f2.degree_in(eliminate)
    top = min(n * f1.degree_in(other) + m * f2.degree_in(other),
              max(map(sum, f1.terms)) * max(map(sum, f2.terms)))
    scale, blocks = math.factorial(top), []
    for p, deg, copies in ((f1, m, n), (f2, n, m)):
        den = math.lcm(*(c.d for c in p.terms.values()))
        scale *= den ** copies
        blocks.append((deg, copies, [(deg - mono[eliminate], mono[other],
                                      c.a * (den // c.d), c.b * (den // c.d))
                                     for mono, c in p.terms.items()]))
    vals = []
    for y in range(top + 1):
        rows = []
        for deg, copies, terms in blocks:
            cs = [(0, 0)] * (deg + 1)
            for i, e, a, b in terms:
                cs[i] = (cs[i][0] + a * y ** e, cs[i][1] + b * y ** e)
            rows += [[(0, 0)] * i + cs + [(0, 0)] * (copies - 1 - i)
                     for i in range(copies)]
        vals.append(_gauss_det(rows))
    coeffs = list(zip(*(_falling_newton([v[part] for v in vals])
                        for part in (0, 1))))
    while coeffs and coeffs[-1] == (0, 0):
        coeffs.pop()
    return [Scalar(Fraction(a, scale), Fraction(b, scale))
            for a, b in reversed(coeffs)] or None


def _sturm(a, b):
    """Sturm's signed remainder sequence a, b, -rem(a, b), ... of real
    polynomials (ascending integer lists, a != 0 without trailing zeros):
    the Cauchy index of b/a over the real line, V(-oo) - V(+oo), and the
    sequence's last entry, a multiple of gcd(a, b).  Each remainder is
    taken in integers, times |lc(b)|^(deg a - deg b + 1) and over its
    content: positive factors, so no sign in the sequence changes."""
    seq = [a]
    while any(b):
        while not b[-1]:
            b = b[:-1]
        r, lead, sign = a, abs(b[-1]), 1 if b[-1] > 0 else -1
        while len(r) >= len(b):  # a zero leading term just drops
            f, s = sign * r[-1], len(r) - len(b)
            r = [lead * c for c in r[:s]] + [lead * c - f * e
                                             for c, e in zip(r[s:-1], b)]
        content = math.gcd(*r) or 1
        seq.append(b)
        a, b = b, [-c // content for c in r]
    var = [sum(u != v for u, v in zip(s, s[1:])) for s in
           ([x ** (len(p) - 1) * (1 if p[-1] > 0 else -1) for p in seq]
            for x in (-1, 1))]
    return var[0] - var[1], seq[-1]


def disk_root_count(coeffs, radius) -> Optional[int]:
    """The number of nonzero roots, with multiplicity, in |y| < R of the
    polynomial p with Gaussian-rational coefficients ``coeffs`` (descending,
    not all 0), R = Fraction(radius) exactly; None when a root lies on
    |y| = R.  The Cayley map y = R(1 + it)/(1 - it) takes the real line onto
    the circle minus -R and the upper half-plane onto the disk.  With y^m
    divided out of p, of degree d, q(t) = (1 - it)^d p(y) has p's roots; made
    integral with a real leading coefficient, q = A + iB, deg A = d unless
    p(-R) = 0, and (d - I)/2 roots have Im t > 0 (argument principle), I the
    Cauchy index of B/A.  Roots on the circle: -R, and real roots of gcd(A, B)."""
    cs = list(coeffs)
    while not cs[-1]:
        cs.pop()
    d, (num, den) = len(cs) - 1, Fraction(radius).as_integer_ratio()
    lcm = math.lcm(*(c.d for c in cs))
    cs = [(c.a * s, c.b * s) for k, c in enumerate(reversed(cs))
          for s in (lcm // c.d * num ** k * den ** (d - k),)]
    q = []
    for j in range(d + 1):  # t^j in (1 + it)^k (1 - it)^(d - k) is i^j w_k
        w = [sum((-1) ** (j - a) * math.comb(k, a) * math.comb(d - k, j - a)
                 for a in range(j + 1)) for k in range(d + 1)]
        x, y = (sum(wk * c[part] for wk, c in zip(w, cs)) for part in (0, 1))
        q.append(((x, y), (-y, x), (-x, -y), (y, -x))[j % 4])
    u, v = q[-1]
    if not (u or v):
        return None
    re = [x * u + y * v for x, y in q]
    im = [y * u - x * v for x, y in q]
    index, g = _sturm(re, im)
    if _sturm(g, [k * c for k, c in enumerate(g)][1:])[0]:
        return None  # the Cauchy index of g'/g counts g's real roots
    return (d - index) // 2


def strip_common_factor(polys):
    """Split nonzero polynomials as p = h * p' with h the largest monomial
    dividing all of them: returns (h, [p'])."""
    h = monomial_gcd(*(p.content_monomial() for p in polys))
    if not any(h):
        return h, list(polys)
    return h, [p.divide_monomial(h) for p in polys]


class StructureClass(Enum):
    DIAGONAL_MONOMIAL = "DIAGONAL_MONOMIAL"
    SINGLE_ROW = "SINGLE_ROW"
    GENERAL = "GENERAL"


def _pairwise_coprime(mons) -> bool:
    """No variable divides two of the monomials."""
    return all(sum(map(bool, es)) <= 1 for es in zip(*mons))


def classify_structure(g: PolyMatrix) -> StructureClass:
    """Route the input to the exact engine's supported classes.

    DIAGONAL_MONOMIAL: each row and column carries at most one nonzero entry
    and every nonzero entry is a scalar times a monomial.
    SINGLE_ROW: one row, >= 2 nonzero monomial entries that become pairwise
    coprime after extracting the common monomial factor.
    """
    nz = g.nonzero_positions()
    all_monomial = all(g.entries[i][j].as_monomial() is not None for i, j in nz)
    if all_monomial and max(map(max, g.line_counts())) <= 1:
        return StructureClass.DIAGONAL_MONOMIAL
    if g.rows == 1 and len(nz) >= 2 and all_monomial:
        _, red = strip_common_factor([g.entries[i][j] for i, j in nz])
        if _pairwise_coprime([p.as_monomial()[1] for p in red]):
            return StructureClass.SINGLE_ROW
    return StructureClass.GENERAL
