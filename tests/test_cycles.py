import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre_kit.cycles import (
    GeneralizedCycle,
    MovingFactor,
    VarietyRef,
    base_space,
    fixed_moving_split,
    multiplicity_at,
    proj_space,
    term,
    wedge,
)
from segre_kit.errors import InputError, UndecidedError
from segre_kit.poly import parse_polynomial
from segre_kit.tower import pushforward_cycle

B2 = base_space(2)
B3 = base_space(3)
P22 = proj_space(2, 2)


def bp(text, n=2):
    return parse_polynomial(text, n)


def pp(text, n=2, r=2):
    names = [f"x{i+1}" for i in range(n)] + [f"a{j+1}" for j in range(r)]
    return parse_polynomial(text, n + r, names)


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
    w = wedge(c, ("omega", 1))
    assert w.degree == 2 and w.terms[0].omega_power == 1

    z = GeneralizedCycle.zero(P22, 1)
    assert wedge(z, ("omega", 1)).is_zero()

    # a mixed intermediate term: [x3=0] ^ <dd^c log(|x1 a1|^2+|x2 a2|^2)>
    p23 = proj_space(3, 3)
    c = GeneralizedCycle(p23, 1, [term(1, VarietyRef.coordinate_subspace([2]))])
    f = MovingFactor((parse_polynomial("x1*a1", 6, list("xxx") and
                                       ["x1", "x2", "x3", "a1", "a2", "a3"]),
                      parse_polynomial("x2*a2", 6,
                                       ["x1", "x2", "x3", "a1", "a2", "a3"])), 1)
    w = wedge(c, f)
    assert w.degree == 2
    assert w.terms[0].moving[0].args == f.args


def test_wedge_overflow():
    c = GeneralizedCycle(P22, 3, [term(1, VarietyRef.coordinate_subspace(
        [0, 1], [0]))])
    with pytest.raises(InputError):
        wedge(c, ("omega", 1))


# ---------------------------------------------------------------------------
# fiber pushforward
# ---------------------------------------------------------------------------

def test_pushforward_full_fiber_volume():
    # omega^{r-1} integrates to 1
    c = GeneralizedCycle(P22, 1, [term(1, VarietyRef.whole_space(),
                                       omega_power=1)])
    out = pushforward_cycle(c)
    assert out.degree == 0 and out.terms[0].fixed.kind.value == "WHOLE_SPACE"
    assert out.terms[0].coefficient == 1


def test_pushforward_subspace_term():
    # [x1=0, a2=0] ^ omega^0 -> [x1=0]
    c = GeneralizedCycle(P22, 2, [term(1, VarietyRef.coordinate_subspace([0], [1]))])
    out = pushforward_cycle(c)
    assert out.describe() == "[x1=0]"


def test_pushforward_crofton_hypersurface():
    # [x1 a1 + x2 a2 = 0] ^ omega -> dd^c log(|x1|^2+|x2|^2)
    hyp = VarietyRef.fiber_hypersurface((pp("x1"), pp("x2")))
    c = GeneralizedCycle(P22, 2, [term(1, hyp, omega_power=1)])
    out = pushforward_cycle(c)
    assert out.degree == 1
    t = out.terms[0]
    assert t.fixed.kind.value == "WHOLE_SPACE"
    assert [str(a) for a in t.moving[0].args] == ["x1", "x2"]
    # and with omega^0 it pushes to the constant 1
    c0 = GeneralizedCycle(P22, 1, [term(1, hyp)])
    out0 = pushforward_cycle(c0)
    assert out0.describe() == "X"


def test_pushforward_degree_bookkeeping():
    # every output drops the bidegree by exactly r-1
    for content, deg in [(term(1, VarietyRef.whole_space(), omega_power=1), 1),
                         (term(2, VarietyRef.coordinate_subspace([0], [0]),
                               omega_power=0), 2)]:
        c = GeneralizedCycle(P22, deg, [content])
        out = pushforward_cycle(c)
        assert out.is_zero() or out.degree == deg - 1


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
