"""Canonical keys are built once and kept on the immutable object; each must
equal the key its class used to rebuild on every call (the reference
bodies below, kept as they were but for the whole space, now the coordinate
subspace without zeros and keyed as one).  The emptiness and omega-cap rules
that the one fiber-dimension rule replaced are kept here too, and a cycle
must keep exactly the terms they kept."""

import dataclasses
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from segre_kit.cycles import (
    CycleTerm,
    GeneralizedCycle,
    MovingFactor,
    VarietyKind,
    VarietyRef,
    proj_space,
    wedge,
)
from segre_kit.errors import InputError
from segre_kit.poly import Polynomial, _term_sort_key
from segre_kit.scalars import Scalar

# ---------------------------------------------------------------------------
# the key bodies as they were, computing everything on every call
# ---------------------------------------------------------------------------


def reference_polynomial_key(self):
    return (self.nvars,
            tuple(sorted(((m, c.re, c.im) for m, c in self.terms.items()),
                         key=lambda t: _term_sort_key(t[0]))))


def reference_variety_key(self):
    k = self.kind
    if k == VarietyKind.COORDINATE_SUBSPACE:
        return ("coord", tuple(sorted(self.base_zeros)),
                tuple(sorted(self.fiber_zeros)))
    if k == VarietyKind.POINT:
        return ("point", tuple((c.re, c.im) for c in self.point))
    if k == VarietyKind.FIBER_HYPERSURFACE:
        return ("fhyp", tuple(reference_polynomial_key(p)
                              for p in self.hypersurface))
    raise InputError("key")


def reference_moving_key(self):
    w = tuple(Fraction(x) for x in self.weights) if self.weights else ()
    return (tuple(reference_polynomial_key(p) for p in self.args), self.power,
            w, self.averaged)


def reference_term_key(self):
    return (reference_variety_key(self.fixed), self.omega_power,
            tuple(sorted(reference_moving_key(f) for f in self.moving)))


# ---------------------------------------------------------------------------
# the emptiness and omega-cap rules as they were, before the one
# fiber-dimension rule: VarietyRef.is_empty, the kind-by-kind
# fiber_dimension and the kind-guarded cap of _expand_terms
# ---------------------------------------------------------------------------


def reference_is_empty(self, space):
    return (self.kind == VarietyKind.COORDINATE_SUBSPACE
            and space.kind == "PROJ"
            and len(self.fiber_zeros) >= space.r)


def reference_fiber_dimension(self, space):
    if space.kind != "PROJ":
        return 0
    if self.kind == VarietyKind.POINT:
        return space.r - 1
    if self.kind == VarietyKind.COORDINATE_SUBSPACE:
        return space.r - 1 - len(self.fiber_zeros)
    return space.r - 2


def reference_within_cap(t, space):
    if space.kind != "PROJ" or not t.omega_power:
        return True
    cap = reference_fiber_dimension(t.fixed, space) \
        if t.fixed.kind == VarietyKind.COORDINATE_SUBSPACE else space.r - 1
    return t.omega_power <= cap


def reference_kept(t, space):
    """Whether the old constructor kept a term (before merging)."""
    return (t.coefficient != 0
            and not any(f.is_zero_current() for f in t.moving)
            and reference_within_cap(t, space)
            and not reference_is_empty(t.fixed, space))


# ---------------------------------------------------------------------------
# generated objects on X x P^1 with n = 2: ambient (x1, x2, a1, a2)
# ---------------------------------------------------------------------------

N, R = 2, 2
NV = N + R
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(Scalar, small, small | st.just(Fraction(0)))


def polynomials(nvars=NV):
    monomials = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.lists(st.tuples(monomials, scalars), max_size=4).map(
        lambda pairs: Polynomial(nvars, pairs))


def moving_factors_on(nvars=NV):
    return st.builds(
        MovingFactor,
        st.lists(polynomials(nvars), min_size=1, max_size=3).map(tuple),
        st.integers(1, 3),
        st.just(()),
        st.booleans(),
    ) | st.lists(polynomials(nvars), min_size=2, max_size=2).flatmap(
        lambda args: st.builds(MovingFactor, st.just(tuple(args)),
                               st.integers(1, 2),
                               st.tuples(st.integers(1, 3), st.integers(1, 3)),
                               st.booleans()))


def varieties_on(r=R):
    """Every kind of support on X x P^{r-1}, with up to r fiber zeros."""
    return st.one_of(
        st.just(VarietyRef.whole_space()),
        st.builds(VarietyRef.coordinate_subspace,
                  st.sets(st.integers(0, N - 1)), st.sets(st.integers(0, r - 1))),
        st.builds(VarietyRef.point_at, st.lists(scalars, min_size=N, max_size=N)),
        st.lists(polynomials(N), min_size=r, max_size=r).filter(
            lambda args: any(not p.is_zero() for p in args)).map(
            VarietyRef.fiber_hypersurface),
    )


def cycle_terms_on(r=R):
    return st.builds(CycleTerm, small, varieties_on(r),
                     st.integers(0, max(2, r)),
                     st.lists(moving_factors_on(N + r), max_size=2).map(tuple))


moving_factors, varieties, cycle_terms = \
    moving_factors_on(), varieties_on(), cycle_terms_on()

KEYED = ((polynomials(), reference_polynomial_key),
         (varieties, reference_variety_key),
         (moving_factors, reference_moving_key),
         (cycle_terms, reference_term_key))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.data())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_stored_key_equals_the_reference(data):
    for strategy, reference in KEYED:
        obj = data.draw(strategy)
        want = reference(obj)
        assert obj.key() == want  # first use
        assert obj.key() is obj.key()  # built once
        hash(obj)
        table = {obj: 1}
        assert table[obj] == 1
        assert {obj.key(): obj}[want] is obj
        assert obj.key() == want  # after hashing and use as a dict key


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_equal_objects_have_equal_keys(data):
    p = data.draw(polynomials())
    same = Polynomial(p.nvars, reversed(list(p.terms.items())))
    assert same == p and same.key() == p.key()
    for strategy, reference in KEYED[1:]:
        obj = data.draw(strategy)
        obj.key()
        copy = dataclasses.replace(obj)
        assert copy == obj and hash(copy) == hash(obj)
        assert copy.key() == obj.key() == reference(copy)


@given(polynomials(), scalars)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_arithmetic_never_returns_a_stale_key(p, c):
    p.key()
    for q in (p * 1, p + 0, 1 * p, 0 + p, p * c, p + c, p - p, -p):
        assert q.key() == reference_polynomial_key(q)
    assert (p * 1).key() == (p + 0).key() == p.key()


@given(cycle_terms)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_dataclass_equality_and_repr_ignore_the_stored_key(t):
    text = repr(t)
    fresh = dataclasses.replace(t)
    t.key()
    assert repr(t) == text == repr(fresh)
    assert t == fresh and hash(t) == hash(fresh)
    assert [f.name for f in dataclasses.fields(t)] == \
        ["coefficient", "fixed", "omega_power", "moving"]


@given(st.lists(cycle_terms, max_size=6), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_cycle_merge_matches_the_reference_keys(terms, rnd):
    # GeneralizedCycle merges and sorts on the stored keys; redo both on the
    # reference keys, whatever the order the terms come in
    space = proj_space(N, R)
    terms = [t for t in terms if not reference_is_empty(t.fixed, space)]
    degree = max((t.bidegree(space) for t in terms), default=0)
    terms = [t for t in terms if t.bidegree(space) == degree
             and not any(f.is_zero_current() for f in t.moving)
             and reference_within_cap(t, space)]
    if degree > space.dim:
        return
    # copies of drawn terms under other coefficients: merges and cancellations
    terms += [dataclasses.replace(rnd.choice(terms),
                                  coefficient=Fraction(rnd.randint(-2, 2)))
              for _ in range(3 if terms else 0)]
    sums = {}
    for t in terms:
        sums[reference_term_key(t)] = \
            sums.get(reference_term_key(t), Fraction(0)) + t.coefficient
    want = sorted(((k, c) for k, c in sums.items() if c),
                  key=lambda kc: (_codim(kc[0][0], space), kc[0]))
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    for given_terms in (terms, shuffled):
        cyc = GeneralizedCycle(space, degree, given_terms)
        assert [(reference_term_key(t), t.coefficient)
                for t in cyc.terms] == want


def _codim(variety_key, space):
    kind = variety_key[0]
    if kind == "coord":
        return len(variety_key[1]) + len(variety_key[2])
    if kind == "fhyp":
        return 1
    return space.n


def reference_merge(terms, space):
    """(reference key, coefficient) of each merged nonzero term, in the
    constructor's order."""
    sums = {}
    for t in terms:
        sums[reference_term_key(t)] = \
            sums.get(reference_term_key(t), Fraction(0)) + t.coefficient
    return sorted(((k, c) for k, c in sums.items() if c),
                  key=lambda kc: (_codim(kc[0][0], space), kc[0]))


@given(st.integers(1, 3).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(cycle_terms_on(r), max_size=6))), st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_one_fiber_dimension_rule_keeps_the_terms_the_old_rules_kept(drawn, data):
    # fiber_dimension is the old omega cap of every kind, and the d that the
    # pushforward read inline; a cycle keeps what is_empty and that cap kept
    r, terms = drawn
    space = proj_space(N, r)
    for t in terms:
        assert t.fixed.fiber_dimension(space) == (
            reference_fiber_dimension(t.fixed, space)
            if t.fixed.kind == VarietyKind.COORDINATE_SUBSPACE else r - 1) \
            == r - 1 - len(t.fixed.fiber_zeros)
    # give every term the drawn bidegree through its omega power
    degree = data.draw(st.integers(0, space.dim))
    terms = [dataclasses.replace(t, omega_power=e) for t in terms
             for e in [degree - t.bidegree(space) + t.omega_power] if e >= 0]
    cyc = GeneralizedCycle(space, degree, terms)
    assert [(reference_term_key(t), t.coefficient) for t in cyc.terms] == \
        reference_merge([t for t in terms if reference_kept(t, space)], space)
    j = data.draw(st.integers(0, space.dim - degree))
    raised = [dataclasses.replace(t, omega_power=t.omega_power + j)
              for t in cyc.terms]
    assert [(reference_term_key(t), t.coefficient)
            for t in wedge(cyc, j).terms] == \
        reference_merge([t for t in raised if reference_kept(t, space)], space)


def reference_times_variable(p, var):
    """engine._times_variable: p * z_var for a p free of z_var, each
    exponent of z_var going 0 -> 1."""
    return Polynomial(p.nvars, ((m[:var] + (1,) + m[var + 1:], c)
                                for m, c in p.terms.items()))


@given(polynomials(), st.integers(0, R - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_exponent_shift_equals_multiplication(p, j):
    # the chart homogenization lifts a fiber-free argument to a_j
    for v in range(N, NV):
        p = p.restrict_zero(v)
    shifted = proj_space(N, R).lift({j: p})
    product = p * Polynomial.variable(p.nvars, N + j)
    assert list(shifted.terms.items()) == list(product.terms.items()) \
        == list(reference_times_variable(p, N + j).terms.items())
    assert shifted.key() == product.key() == reference_polynomial_key(product)
