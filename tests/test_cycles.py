import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre_kit.cycles import (
    GeneralizedCycle,
    MovingFactor,
    Space,
    VarietyKind,
    VarietyRef,
    fixed_moving_split,
    localize,
    meet,
    multiplicity_at,
    proj_space,
    term,
    wedge,
)
from segre_kit.errors import InputError, UndecidedError, UnsupportedTermError
from segre_kit.poly import Polynomial, format_polynomial, parse_polynomial
from segre_kit.scalars import Scalar
from segre_kit.tower import pushforward_cycle
from test_keys import N as KEY_N, R as KEY_R, cycle_terms

B2 = Space(2)
B3 = Space(3)
P22 = proj_space(2, 2)


def bp(text, n=2):
    return parse_polynomial(text, n)


# ---------------------------------------------------------------------------
# multiplicity
# ---------------------------------------------------------------------------

def test_point_membership_multiplicity():
    c = GeneralizedCycle(B2, 2, [term(1, VarietyRef.coordinate_subspace([0, 1]))])
    assert multiplicity_at(c, [0, 0]) == 1
    assert multiplicity_at(c, [1, 0]) == 0


def test_divisor_with_coefficient():
    c = GeneralizedCycle(B2, 1, [term(2, VarietyRef.coordinate_subspace([0]))])
    assert multiplicity_at(c, [0, 5]) == 2


def test_moving_first_power_rule():
    f = MovingFactor((bp("x1"), bp("x2")), 1)
    c = GeneralizedCycle(B2, 1, [term(1, VarietyRef.whole_space(), moving=(f,))])
    assert multiplicity_at(c, [0, 0]) == 1
    assert multiplicity_at(c, [1, 0]) == 0


def test_localize_restricts_and_renumbers():
    # on [x2 = 0] the arguments lose their x2 terms and x1, x3 become the
    # coordinates 1, 2; the common factor x1 of the arguments is divided out
    on_x2 = VarietyRef.coordinate_subspace([1])
    f = MovingFactor((bp("x1^3 + x1^2*x2", 3), bp("x1*x3^2 + x1*x2", 3),
                      bp("x1*x2", 3)), 1)
    (g,), pt = localize([f], on_x2, [2, 0, Scalar(0, 1)])
    assert g.args == (bp("x1^2"), bp("x2^2")) and g.power == 1
    assert pt == [Scalar(2), Scalar(0, 1)]
    assert localize([f], on_x2, [2, 1, 0]) is None  # off the fixed part
    # multiplicity 0 on the subspace: a pluriharmonic potential, and a power
    # above the number of surviving arguments
    for args, power in ((("1 + x2", "x2"), 1), (("x1", "x2", "x3"), 3)):
        f = MovingFactor(tuple(bp(a, 3) for a in args), power)
        assert localize([f], on_x2, [0, 0, 0]) is None
    with pytest.raises(UndecidedError, match="zero set"):
        localize([MovingFactor((bp("x1", 3), bp("x2", 3)), 1)],
                 VarietyRef.coordinate_subspace([0, 1]), [0, 0, 0])
    for point in ([0, 0], [0, 0, 0, 0]):
        with pytest.raises(InputError, match="dimension"):
            localize([f], on_x2, point)


def test_moving_top_power_is_zero_current():
    f = MovingFactor((bp("x1"), bp("x2")), 2)
    c = GeneralizedCycle(B2, 2, [term(1, VarietyRef.whole_space(), moving=(f,))])
    assert multiplicity_at(c, [0, 0]) == 0


def test_omega_power_kills_multiplicity():
    c = GeneralizedCycle(P22, 2, [term(1, VarietyRef.coordinate_subspace([0]),
                                       omega_power=1)])
    with pytest.raises(InputError):
        multiplicity_at(c, [0, 0])  # PROJ cycles are not evaluated directly


def test_undecided_routes_to_oracle():
    f1 = MovingFactor((bp("x1"), bp("x2")), 1)
    f2 = MovingFactor((bp("x1 - x2"), bp("x2")), 1)
    c = GeneralizedCycle(B2, 2, [term(1, VarietyRef.whole_space(),
                                      moving=(f1, f2))])
    with pytest.raises(UndecidedError):
        multiplicity_at(c, [0, 0])
    calls = []

    def oracle(factors, fixed, point):
        calls.append(len(factors))
        return 7

    assert multiplicity_at(c, [0, 0], oracle) == 7
    assert calls == [2]


# ---------------------------------------------------------------------------
# fixed / moving split
# ---------------------------------------------------------------------------

def test_split_examples():
    f = MovingFactor((bp("x1"), bp("x2")), 1)
    moving_term = term(1, VarietyRef.whole_space(), moving=(f,))
    c = GeneralizedCycle(B2, 1, [moving_term])
    fixed, moving = fixed_moving_split(c)
    assert fixed.is_zero() and not moving.is_zero()

    c = GeneralizedCycle(B2, 2, [term(1, VarietyRef.coordinate_subspace([0, 1]))])
    fixed, moving = fixed_moving_split(c)
    assert not fixed.is_zero() and moving.is_zero()


def test_split_mixed_and_additivity():
    origin = term(1, VarietyRef.coordinate_subspace([0, 1]))
    f = MovingFactor((bp("x1"), bp("x2")), 2)
    mov = term(3, VarietyRef.whole_space(), moving=(f,))
    c = GeneralizedCycle(B2, 2, [origin, mov])
    fixed, moving = fixed_moving_split(c)
    assert len(fixed.terms) == 1 and len(moving.terms) == 1
    for pt in ([0, 0], [1, 0], [1, 1]):
        assert multiplicity_at(fixed, pt) + multiplicity_at(moving, pt) \
            == multiplicity_at(c, pt)


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_examples():
    c = GeneralizedCycle(P22, 1, [term(1, VarietyRef.coordinate_subspace([0]))])
    w = wedge(c, 1)
    assert w.degree == 2 and w.terms[0].omega_power == 1

    z = GeneralizedCycle.zero(P22, 1)
    assert wedge(z, 1).is_zero()


def test_wedge_overflow():
    c = GeneralizedCycle(P22, 3, [term(1, VarietyRef.coordinate_subspace(
        [0, 1], [0]))])
    with pytest.raises(InputError):
        wedge(c, 1)


# ---------------------------------------------------------------------------
# fiber pushforward
# ---------------------------------------------------------------------------

def test_pushforward_full_fiber_volume():
    # omega^{r-1} integrates to 1
    c = GeneralizedCycle(P22, 1, [term(1, VarietyRef.whole_space(),
                                       omega_power=1)])
    out = pushforward_cycle(c)
    assert out.degree == 0 and out.terms[0].fixed == VarietyRef.whole_space()
    assert out.terms[0].coefficient == 1


def test_pushforward_subspace_term():
    # [x1=0, a2=0] ^ omega^0 -> [x1=0]
    c = GeneralizedCycle(P22, 2, [term(1, VarietyRef.coordinate_subspace([0], [1]))])
    out = pushforward_cycle(c)
    assert out.describe() == "[x1=0]"


def test_pushforward_crofton_hypersurface():
    # [x1 a1 + x2 a2 = 0] ^ omega -> dd^c log(|x1|^2+|x2|^2); the
    # hypersurface holds its base polynomials f_j
    hyp = VarietyRef.fiber_hypersurface((bp("x1"), bp("x2")))
    assert hyp.equations(P22) == ["x1*a1 + x2*a2"]
    c = GeneralizedCycle(P22, 2, [term(1, hyp, omega_power=1)])
    out = pushforward_cycle(c)
    assert out.degree == 1
    t = out.terms[0]
    assert t.fixed == VarietyRef.whole_space()
    assert [(str(a), a.nvars) for a in t.moving[0].args] == [("x1", 2),
                                                             ("x2", 2)]
    # and with omega^0 it pushes to the constant 1
    c0 = GeneralizedCycle(P22, 1, [term(1, hyp)])
    out0 = pushforward_cycle(c0)
    assert out0.describe() == "X"


def test_pushforward_refuses_a_factor_without_fiber_content():
    # <dd^c log(|x1|^2 + |x2|^2)> on X x P^1 slices no fiber: the engine
    # never builds such a factor (each reduced lifted entry keeps its a_j),
    # and the pushforward refuses it alone, beside omega and beside a slice
    base = MovingFactor((bp("x1", 4), bp("x2", 4)), 1)
    fiber = MovingFactor((bp("x1*x3", 4), bp("x2*x4", 4)), 1)
    for omega, moving in ((0, (base,)), (1, (base,)), (0, (base, fiber))):
        c = GeneralizedCycle(P22, omega + len(moving), [
            term(1, VarietyRef.whole_space(), omega, moving)])
        with pytest.raises(UnsupportedTermError,
                           match="unsupported fiber content"):
            pushforward_cycle(c)


def test_pushforward_degree_bookkeeping():
    # every output drops the bidegree by exactly r-1
    for content, deg in [(term(1, VarietyRef.whole_space(), omega_power=1), 1),
                         (term(2, VarietyRef.coordinate_subspace([0], [0]),
                               omega_power=0), 2)]:
        c = GeneralizedCycle(P22, deg, [content])
        out = pushforward_cycle(c)
        assert out.is_zero() or out.degree == deg - 1
    # compute_Mg pushes only degrees >= r - 1: below, the base cycle's
    # bidegree is refused
    c = GeneralizedCycle(proj_space(1, 2), 0, [term(1, VarietyRef.whole_space())])
    with pytest.raises(InputError, match="bidegree -1 outside 0..1"):
        pushforward_cycle(c)


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_canonicalization_confluent(rnd):
    f = MovingFactor((bp("x1"), bp("x2")), 1)
    terms = [term(1, VarietyRef.coordinate_subspace([0])),
             term(2, VarietyRef.coordinate_subspace([1])),
             term(-1, VarietyRef.coordinate_subspace([0])),
             term(3, VarietyRef.whole_space(), moving=(f,)),
             term(1, VarietyRef.coordinate_subspace([0])),
             term(1, VarietyRef.coordinate_subspace([1]))]
    shuffled = terms[:]
    rnd.shuffle(shuffled)
    assert GeneralizedCycle(B2, 1, terms) == GeneralizedCycle(B2, 1, shuffled)


# scaled and omega-wedged cycles are built from their canonical terms without
# a second sort or merge; each must be what the full constructor makes of the
# same rewritten terms, on the generated terms of the key tests
KEY_SPACE = proj_space(KEY_N, KEY_R)


def _canonical_cycle(terms):
    """The cycle of the drawn terms of the first term's bidegree, or None."""
    space = KEY_SPACE
    degree = terms[0].bidegree(space)
    if degree > space.dim:
        return None
    return GeneralizedCycle(space, degree, [t for t in terms
                                            if t.bidegree(space) == degree])


def _same_cycle(got, want):
    assert (got.space, got.degree) == (want.space, want.degree)
    assert [(t, type(t.coefficient), t.key()) for t in got.terms] == \
        [(t, type(t.coefficient), t.key()) for t in want.terms]


@given(st.lists(cycle_terms, min_size=1, max_size=6),
       st.lists(st.integers(-2, 2), max_size=3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_scale_and_omega_wedge_equal_the_full_constructor(terms, copies):
    # copies of the first term under integer coefficients: merged sums
    terms += [dataclasses.replace(terms[0], coefficient=Fraction(k))
              for k in copies]
    c = _canonical_cycle(terms)
    if c is None:
        return
    assert all(type(t.coefficient) is int or t.coefficient.denominator != 1
               for t in c.terms)
    for k in (-1, 2, Fraction(1, 2)):
        _same_cycle(c.scale(k), GeneralizedCycle(c.space, c.degree, [
            dataclasses.replace(t, coefficient=t.coefficient * k)
            for t in c.terms]))
    assert c.scale(0) == GeneralizedCycle.zero(c.space, c.degree)
    assert c.scale(0).is_zero()
    for j in range(c.space.dim - c.degree + 1):
        _same_cycle(wedge(c, j),
                    GeneralizedCycle(c.space, c.degree + j, [
                        dataclasses.replace(t, omega_power=t.omega_power + j)
                        for t in c.terms]))


def test_scale_and_omega_wedge_do_not_resort(monkeypatch):
    # on X x P^2 the fibers of X and [x1 = 0] are planes, those of [a1 = 0]
    # lines; the terms sort by codimension, then by key
    c = GeneralizedCycle(proj_space(2, 3), 1, [
        term(2, VarietyRef.coordinate_subspace([0])),
        term(Fraction(1, 3), VarietyRef.whole_space(), 1),
        term(1, VarietyRef.coordinate_subspace([], [0]))])
    monkeypatch.setattr(GeneralizedCycle, "__init__", None)
    assert [t.coefficient for t in c.scale(3).terms] == [1, 3, 6]
    assert [type(t.coefficient) for t in c.scale(3).terms] == [int] * 3
    assert [t.omega_power for t in wedge(c, 1).terms] == [2, 1, 1]
    # omega^3 on X and omega^2 on [a1 = 0] exceed their fiber dimensions
    assert [(t.coefficient, t.omega_power)
            for t in wedge(c, 2).terms] == [(2, 2)]
    with pytest.raises(InputError):
        wedge(c, -1)


def test_zero_coefficient_and_empty_fiber_dropped():
    c = GeneralizedCycle(P22, 2, [
        term(1, VarietyRef.coordinate_subspace([0, 1])),
        term(-1, VarietyRef.coordinate_subspace([0, 1])),
        term(5, VarietyRef.coordinate_subspace([], [0, 1])),  # empty in P^1
    ])
    assert c.is_zero()


def test_record_round_trip():
    f = MovingFactor((bp("x1"), bp("x2")), 1)
    c = GeneralizedCycle(B2, 2, [
        term(-2, VarietyRef.point_at([0, 0])),
        term(1, VarietyRef.coordinate_subspace([0]), moving=(f,)),
    ])
    rec = c.to_record()
    assert json.loads(json.dumps(rec)) == rec


def _defining_polynomials(ref, space):
    """The defining polynomials of ``ref`` in the ambient variables of
    ``space``: the reference for ``VarietyRef.equations``."""
    nv = space.total_vars
    if ref.kind == VarietyKind.COORDINATE_SUBSPACE:
        return [Polynomial.variable(nv, v) for v in sorted(ref.base_zeros)] \
            + [Polynomial.variable(nv, space.n + j)
               for j in sorted(ref.fiber_zeros)]
    if ref.kind == VarietyKind.POINT:
        return [Polynomial.variable(nv, v) - Polynomial.constant(nv, c)
                for v, c in enumerate(ref.point)]
    acc = Polynomial.zero(nv)
    for j, f in enumerate(ref.hypersurface):
        acc = acc + f.map_variables(range(space.n), nv) \
            * Polynomial.variable(nv, space.n + j)
    return [acc]


def test_equations_text_matches_formatted_polynomials():
    hyp = VarietyRef.fiber_hypersurface(
        (bp("x1 - 2*x2", 3), bp("0", 3), bp("i*x3^2 + 1/3", 3)))
    base_refs = [
        VarietyRef.whole_space(),
        VarietyRef.coordinate_subspace([2, 0]),
        VarietyRef.point_at([0, 0, 0]),
        VarietyRef.point_at([Scalar(Fraction(1, 2)), Scalar(0, -1),
                             Scalar(-3, 2)])]
    proj_refs = base_refs + [VarietyRef.coordinate_subspace([1], [2, 0]),
                             VarietyRef.coordinate_subspace([], [1]), hyp]
    assert {ref.kind for ref in proj_refs} == set(VarietyKind)
    for space, refs in ((B3, base_refs), (proj_space(3, 3), proj_refs)):
        names = space.var_names()
        for ref in refs:
            expected = [format_polynomial(q, names)
                        for q in _defining_polynomials(ref, space)]
            assert ref.equations(space) == expected, (space, ref)
            assert ref.equations(space, names) == expected
    # a fiber hypersurface needs the fiber coordinates of the projectivization
    with pytest.raises(InputError):
        hyp.equations(B3)


# supports on X x P^1 over C^2: (kind, codim, equations, describe, key, fiber
# dimension, record kind).  Every kind must have a row, so a new kind states
# each answer here before any code reads it; the whole space is the
# coordinate subspace without zeros, named only in its text and record.
KIND_TABLE = [
    (VarietyRef.whole_space(), VarietyKind.COORDINATE_SUBSPACE, 0, [], "X",
     ("coord", (), ()), 1, "WHOLE_SPACE"),
    (VarietyRef.coordinate_subspace([1], [0]), VarietyKind.COORDINATE_SUBSPACE,
     2, ["x2", "a1"], "[x2=a1=0]", ("coord", (1,), (0,)), 0,
     "COORDINATE_SUBSPACE"),
    (VarietyRef.point_at([0, "1/2"]), VarietyKind.POINT, 2, ["x1", "x2 - 1/2"],
     "[point (0, 1/2)]", ("point", ((0, 0), (Fraction(1, 2), 0))), 1, "POINT"),
    (VarietyRef.fiber_hypersurface((bp("x1"), bp("2*x2 - i"))),
     VarietyKind.FIBER_HYPERSURFACE, 1, ["x1*a1 + 2*x2*a2 - i*a2"],
     "[(x1)*a1 + (2*x2 - i)*a2 = 0]",
     ("fhyp", (bp("x1").key(), bp("2*x2 - i").key())), 1,
     "FIBER_HYPERSURFACE"),
]


def test_every_variety_kind_answers_each_question():
    assert {row[1] for row in KIND_TABLE} == set(VarietyKind)
    for ref, kind, codim, equations, text, key, fiber_dim, record in \
            KIND_TABLE:
        assert ref.kind == kind
        assert ref.codim(P22) == codim
        assert ref.equations(P22) == equations
        assert ref.describe(P22) == text
        assert ref.key() == key
        assert term(1, ref).to_record(P22, P22.var_names())["fixed"] == \
            {"kind": record, "equations": equations}
        # r - 1 less the fiber zeros, for every kind; -1 on the base (r = 0)
        assert ref.fiber_dimension(P22) == fiber_dim
        assert ref.fiber_dimension(B2) == -1 - len(ref.fiber_zeros)
    # the whole space is the coordinate subspace without zeros
    assert VarietyRef.coordinate_subspace((), ()) == VarietyRef.whole_space()


def _subspaces(n, r):
    return st.builds(VarietyRef.coordinate_subspace,
                     st.sets(st.integers(0, n - 1), max_size=n),
                     st.sets(st.integers(0, r - 1), max_size=r) if r
                     else st.just(set()))


@given(st.sampled_from([B3, proj_space(2, 3)]).flatmap(
    lambda space: st.tuples(st.just(space), _subspaces(space.n, space.r),
                            _subspaces(space.n, space.r))))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_meet_of_coordinate_subspaces(drawn):
    # meet is commutative, with the subspace without zeros as its unit; the
    # whole-space text and record appear exactly when no coordinate vanishes
    space, a, b = drawn
    whole = VarietyRef.whole_space()
    names = space.var_names()
    for ref in (a, b):
        assert meet(ref, whole) == meet(whole, ref) == ref
        empty = not ref.base_zeros and not ref.fiber_zeros
        assert (ref.describe(space) == "X") == empty == (ref == whole)
        assert (term(1, ref).to_record(space, names)["fixed"]["kind"]
                == "WHOLE_SPACE") == empty
    if a.base_zeros & b.base_zeros or a.fiber_zeros & b.fiber_zeros:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(UnsupportedTermError, match="improper"):
                meet(x, y)
    else:
        union = VarietyRef.coordinate_subspace(a.base_zeros | b.base_zeros,
                                               a.fiber_zeros | b.fiber_zeros)
        assert meet(a, b) == meet(b, a) == union
        assert hash(meet(a, b)) == hash(union)


def test_meet_refuses_the_whole_space_with_other_kinds():
    # only coordinate subspaces meet; the tower and the pushforward meet
    # coordinate subspaces alone, so no caller reaches these
    hyp = VarietyRef.fiber_hypersurface((bp("x1"), bp("x2")))
    for other in (VarietyRef.point_at([0, 0]), hyp):
        for x, y in ((VarietyRef.whole_space(), other),
                     (other, VarietyRef.whole_space())):
            with pytest.raises(UnsupportedTermError, match="unsupported"):
                meet(x, y)
