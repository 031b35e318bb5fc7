"""Canonical keys are built once and kept on the immutable object; each must
equal the key its class used to rebuild on every call (the reference
bodies below, kept as they were)."""

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
)
from segre_kit.engine import _times_variable
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
    if k == VarietyKind.WHOLE_SPACE:
        return ("whole",)
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


moving_factors = st.builds(
    MovingFactor,
    st.lists(polynomials(), min_size=1, max_size=3).map(tuple),
    st.integers(1, 3),
    st.just(()),
    st.booleans(),
) | st.lists(polynomials(), min_size=2, max_size=2).flatmap(
    lambda args: st.builds(MovingFactor, st.just(tuple(args)),
                           st.integers(1, 2),
                           st.tuples(st.integers(1, 3), st.integers(1, 3)),
                           st.booleans()))

varieties = st.one_of(
    st.just(VarietyRef.whole_space()),
    st.builds(VarietyRef.coordinate_subspace,
              st.sets(st.integers(0, N - 1)), st.sets(st.integers(0, R - 1))),
    st.builds(VarietyRef.point_at, st.lists(scalars, min_size=N, max_size=N)),
    st.lists(polynomials(N), min_size=R, max_size=R).filter(
        lambda args: any(not p.is_zero() for p in args)).map(
        VarietyRef.fiber_hypersurface),
)

cycle_terms = st.builds(CycleTerm, small, varieties, st.integers(0, 2),
                        st.lists(moving_factors, max_size=2).map(tuple))

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
    terms = [t for t in terms if not t.fixed.is_empty(space)]
    degree = max((t.bidegree(space) for t in terms), default=0)
    terms = [t for t in terms if t.bidegree(space) == degree
             and not any(f.is_zero_current() for f in t.moving)
             and (not t.omega_power or t.omega_power <= (
                 t.fixed.fiber_dimension(space)
                 if t.fixed.kind == VarietyKind.COORDINATE_SUBSPACE
                 else R - 1))]
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
    if kind == "whole":
        return 0
    if kind == "coord":
        return len(variety_key[1]) + len(variety_key[2])
    if kind == "fhyp":
        return 1
    return space.n


@given(polynomials(), st.integers(N, NV - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_exponent_shift_equals_multiplication(p, var):
    p = p.restrict_zero(var)
    shifted = _times_variable(p, var)
    product = p * Polynomial.variable(p.nvars, var)
    assert list(shifted.terms.items()) == list(product.terms.items())
    assert shifted.key() == product.key() == reference_polynomial_key(product)
