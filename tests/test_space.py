"""The coordinate layout of X x P^{r-1} lives in ``cycles.Space``: ``lift``,
``split``, ``chart`` and ``dehomogenize`` must equal the code they replaced
term for term, order included (``eval_array`` sums in dict order, so the
order decides the numeric masses).  The replaced bodies are kept below as
references, as they were."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre_kit.cycles import Space, VarietyKind, proj_space
from segre_kit.errors import InputError, UnsupportedInputError
from segre_kit.poly import Polynomial
from segre_kit.scalars import Scalar
from segre_kit.tower import _divisor_terms

# ---------------------------------------------------------------------------
# the replaced bodies
# ---------------------------------------------------------------------------


def reference_lift_entries(g_rows, n, r):
    """poly._lift_entries: rows of G = g*alpha on the ambient (x, alpha)."""
    nv = n + r
    rows = []
    for row in g_rows:
        acc = Polynomial.zero(nv)
        for j in range(r):
            if not row[j].is_zero():
                acc = acc + row[j].map_variables(range(n), nv) \
                    * Polynomial.variable(nv, n + j)
        rows.append(acc)
    return [p for p in rows if not p.is_zero()]


def reference_strip_to_base(p, n):
    """tower._strip_to_base: base-ambient copy of an argument; drops the
    (linear) fiber coordinate."""
    terms = {}
    for m, c in p.terms.items():
        terms[m[:n]] = c
    return Polynomial(n, terms)


def reference_fiber_coordinate(p, n):
    """tower._fiber_coordinate: j when every term of p carries exactly the
    fiber coordinate a_j."""
    js = {m[n:].index(1) if sum(m[n:]) == 1 else None for m in p.terms}
    return js.pop() if len(js) == 1 else None


def reference_chart_rows(rows, n, r, chart):
    """numeric._chart_hessians' slot mapping: ambient (x, alpha) to the
    chart coordinates, alpha_chart = 1 and the others to the u slots."""
    N = n + r - 1
    mapping = list(range(n))
    slot = n
    for j in range(r):
        if j == chart:
            mapping.append(-1)
        else:
            mapping.append(slot)
            slot += 1
    safe_mapping = [m if m >= 0 else 0 for m in mapping]
    return [p.substitute_one(n + chart).map_variables(safe_mapping, N)
            for p in rows]


def reference_fiber_linear_args(q, n, r):
    """tower._fiber_linear_args: q = sum_j f_j(x) * a_j, each f_j on the
    full ambient with a zero fiber tail."""
    pairs = [[] for _ in range(r)]
    for m, c in q.terms.items():
        fiber_part = [(j, e) for j, e in enumerate(m[n:]) if e]
        if len(fiber_part) != 1 or fiber_part[0][1] != 1:
            raise UnsupportedInputError("not fiber-linear")
        pairs[fiber_part[0][0]].append((m[:n] + (0,) * r, c))
    return tuple(Polynomial(n + r, ps) for ps in pairs)


# ---------------------------------------------------------------------------
# generated polynomials on X x P^{r-1}
# ---------------------------------------------------------------------------

shapes = st.sampled_from([(1, 2), (2, 2), (1, 3), (2, 3), (3, 3)])
scalars = st.builds(Scalar, st.integers(-3, 3), st.integers(-1, 1))


def polynomials(nvars, top=2, fiber_from=None):
    """Up to four terms; exponents below ``fiber_from`` go up to ``top``,
    the later ones (the fiber, when given) are 0 or 1."""
    fiber_from = nvars if fiber_from is None else fiber_from
    monomials = st.tuples(*[st.integers(0, top if v < fiber_from else 1)
                            for v in range(nvars)])
    return st.lists(st.tuples(monomials, scalars), max_size=4).map(
        lambda pairs: Polynomial(nvars, pairs))


def terms(p):
    return list(p.terms.items())


X1 = Polynomial.variable(2, 0)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_lift_equals_the_variable_sum(data):
    n, r = data.draw(shapes)
    space = proj_space(n, r)
    g_rows = data.draw(st.lists(st.lists(polynomials(n), min_size=r,
                                         max_size=r), min_size=1, max_size=3))
    lifted = [p for p in map(space.lift, g_rows) if not p.is_zero()]
    want = reference_lift_entries(g_rows, n, r)
    assert [terms(p) for p in lifted] == [terms(p) for p in want]
    # some of the f_j as a dict, in any key order
    row = g_rows[0]
    picked = {j: row[j] for j in reversed(range(r)) if j % 2 == 0}
    assert terms(space.lift(picked)) == terms(
        sum((space.lift({j: f}) for j, f in picked.items()),
            Polynomial.zero(n + r)))


@pytest.mark.parametrize("space, fs", [
    (proj_space(2, 2), [X1, X1, X1]), (proj_space(2, 2), {2: X1}),
    (proj_space(2, 2), {-1: X1}), (Space(2), [X1])])
def test_lift_needs_the_fiber_coordinates(space, fs):
    with pytest.raises(InputError):
        space.lift(fs)


@given(st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_split_equals_strip_to_base_and_fiber_coordinate(data):
    n, r = data.draw(shapes)
    space = proj_space(n, r)
    p = data.draw(polynomials(n + r, fiber_from=n))
    parts = space.split(p)
    # p is the sum of its parts, each in p's own order
    for e, base in parts.items():
        assert list(base.items()) == [(m[:n], c) for m, c in p.terms.items()
                                      if m[n:] == e]
    assert list(parts) == list(dict.fromkeys(m[n:] for m in p.terms))
    # an argument of one fiber monomial: its base part and coordinate
    if len(parts) == 1:
        (e, base), = parts.items()
        assert terms(Polynomial(n, base)) == terms(
            reference_strip_to_base(p, n))
        assert (e.index(1) if sum(e) == 1 else None) == \
            reference_fiber_coordinate(p, n)


@given(st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_split_reads_fiber_linear_divisors(data):
    # the hypersurface of a non-monomial fiber-linear entry holds its base
    # polynomials, the reference's f_j without their zero fiber tail
    n, r = data.draw(shapes)
    space = proj_space(n, r)
    q = data.draw(polynomials(n + r, fiber_from=n))
    if q.is_zero() or q.divide_monomial(q.content_monomial()).is_constant() \
            or q.divide_monomial(q.content_monomial()).as_monomial():
        return
    rest = q.divide_monomial(q.content_monomial())
    try:
        want = reference_fiber_linear_args(rest, n, r)
    except UnsupportedInputError:
        try:
            _divisor_terms(space, q)
        except UnsupportedInputError:
            return
        raise AssertionError("accepted a divisor that is not fiber-linear")
    hyp = _divisor_terms(space, q)[-1].fixed
    assert hyp.kind == VarietyKind.FIBER_HYPERSURFACE
    assert [terms(f) for f in hyp.hypersurface] == [
        terms(reference_strip_to_base(f, n)) for f in want]


@given(st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_chart_equals_the_slot_mapping(data):
    n, r = data.draw(shapes)
    space = proj_space(n, r)
    g_rows = data.draw(st.lists(st.lists(polynomials(n), min_size=r,
                                         max_size=r), min_size=1, max_size=3))
    rows = reference_lift_entries(g_rows, n, r)
    for chart in range(r):
        got = [space.chart(p, chart) for p in rows]
        want = reference_chart_rows(rows, n, r, chart)
        assert [(p.nvars, terms(p)) for p in got] == \
            [(p.nvars, terms(p)) for p in want]
    # any ambient polynomial, the charted coordinate's terms merging
    p = data.draw(polynomials(n + r))
    for chart in range(r):
        assert terms(space.chart(p, chart)) == terms(
            reference_chart_rows([p], n, r, chart)[0])


@given(st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_dehomogenize_sets_one_fiber_coordinate_to_one(data):
    n, r = data.draw(shapes)
    space = proj_space(n, r)
    p = data.draw(polynomials(n + r))
    for chart in range(r):
        got = space.dehomogenize(p, chart)
        assert terms(got) == terms(p.substitute_one(n + chart))
        assert got.nvars == n + r and not got.degree_in(n + chart)
