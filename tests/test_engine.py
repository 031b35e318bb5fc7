import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segre_kit.cycles import (
    GeneralizedCycle,
    MovingFactor,
    Space,
    VarietyKind,
    VarietyRef,
    fixed_moving_split,
    multiplicity_at,
    proj_space,
    term,
    wedge,
)
from segre_kit.engine import (
    MorphismResult,
    compute_Ma,
    compute_Mg,
    ring_M_Galpha,
    segre_numbers,
    singular_metric_forms,
)
from segre_kit.cli import load_spec, run_spec
from segre_kit.errors import InputError, UndecidedError, UnsupportedInputError
from segre_kit.golden import _grid, _random_diag_monomial
from segre_kit.numeric import RegConfig
from segre_kit.poly import (
    PolyMatrix,
    Polynomial,
    StructureClass,
    classify_structure,
    determinant,
    format_polynomial,
    parse_matrix,
    parse_polynomial,
)
from segre_kit.scalars import Scalar
from segre_kit.tower import pushforward_cycle


CFG = RegConfig(samples=20000)


# ---------------------------------------------------------------------------
# ring currents
# ---------------------------------------------------------------------------

def test_ring_diag2():
    ring = ring_M_Galpha(parse_matrix([["x1", "0"], ["0", "x2"]], 2))
    assert ring[1].is_zero()
    assert ring[2].describe() == "[x1=a2=0] + [x1=x2=0] + [x2=a1=0]"
    assert ring[3].is_zero()


def test_ring_diag_powers():
    ring = ring_M_Galpha(parse_matrix([["x1^2", "0"], ["0", "x1"]], 1))
    assert ring[1].describe() == "[x1=0]"
    assert ring[2].describe() == "2*[x1=a2=0]"


def test_ring_single_row():
    ring = ring_M_Galpha(parse_matrix([["x1", "x2"]], 2))
    assert ring[1].describe() == "[(x1)*a1 + (x2)*a2 = 0]"
    assert all(ring[l].is_zero() for l in (0, 2, 3))


def test_ring_rejects_general():
    with pytest.raises(UnsupportedInputError) as exc:
        ring_M_Galpha(parse_matrix([["x1", "x2 + 1"], ["x2", "x1"]], 2))
    assert exc.value.structure == "GENERAL"


def test_ring_refuses_the_zero_morphism():
    # compute_Mg answers the zero morphism before it asks for ring currents
    with pytest.raises(InputError, match="identically zero"):
        ring_M_Galpha(parse_matrix([["0", "0"], ["0", "0"]], 2))


def test_ring_rejects_non_coprime_diagonal():
    # reduced entries x1, x1, x2 share a variable: no proper product
    with pytest.raises(UnsupportedInputError):
        ring_M_Galpha(parse_matrix(
            [["x1", "0", "0"], ["0", "x1", "0"], ["0", "0", "x2"]], 2))


# ---------------------------------------------------------------------------
# morphism currents
# ---------------------------------------------------------------------------

def test_Mg_identity_and_zero():
    ident = compute_Mg(parse_matrix([["1", "0"], ["0", "1"]], 2))
    assert all(c.is_zero() for c in ident.M)
    zero = compute_Mg(parse_matrix([["0", "0"], ["0", "0"]], 2))
    assert zero.M[0].describe() == "X"
    assert all(c.is_zero() for c in zero.M[1:])


def test_Mg_line_bundle_column():
    res = compute_Mg(parse_matrix([["x1"], ["x2"]], 2))
    assert res.M[1].is_zero()  # dimension principle: codim Z = 2
    assert res.M[2].describe() == "[x1=x2=0]"


def test_Mg_gcd_diag3_m1_equals_det_divisor():
    g = parse_matrix([["x1*x3", "0", "0"], ["0", "x2*x3", "0"],
                      ["0", "0", "x3^2"]], 3)
    res = compute_Mg(g)
    assert res.M[1].describe() == "[x1=0] + [x2=0] + 4*[x3=0]"


def test_dimension_principle_diag():
    # det = x1^2: codim Z = 1, so only k >= 1 can be nonzero; and the
    # column case (x1;x2) has codim 2 handled above
    res = compute_Mg(parse_matrix([["x1", "0"], ["0", "x1"]], 1))
    assert res.M[0].is_zero()
    assert res.M[1].describe() == "2*[x1=0]"


def _reference_M(g, weights=None):
    """Each M_k as the engine docstring's sum over ring levels l of the
    pushforwards of omega^e ^ ring_M_l, e = k + r - 1 - l, added up one
    pushforward at a time."""
    ring, n, r = ring_M_Galpha(g), g.nvars, g.cols
    M = []
    for k in range(n + 1):
        acc = GeneralizedCycle.zero(Space(n), k)
        for level, cyc in enumerate(ring):
            e = k + r - 1 - level
            if 0 <= e <= r - 1:
                pushed = pushforward_cycle(wedge(cyc, e), weights)
                acc = GeneralizedCycle(acc.space, k, acc.terms + pushed.terms)
        M.append(acc)
    return M


def _diagonal_or_row(rng, as_row):
    """A permuted diagonal drawn by ``rng``, or its entries as one
    pairwise-coprime row: the DIAGONAL_MONOMIAL and SINGLE_ROW classes."""
    g = _random_diag_monomial(rng)
    if as_row:
        g = PolyMatrix([[g.entries[i][j] for i, j in
                         sorted(g.nonzero_positions(), key=lambda ij: ij[1])]])
    return g


@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_Mg_is_the_sum_of_pushed_ring_levels(seed, as_row, weighted):
    rng = random.Random(seed)
    g = _diagonal_or_row(rng, as_row)
    assume(g.cols >= 2)
    weights = [rng.choice([1, 2, 3, Fraction(1, 2)]) for _ in range(g.cols)] \
        if weighted else None
    assert compute_Mg(g, weights).M == _reference_M(g, weights), str(g)


# ---------------------------------------------------------------------------
# fiber metric weights
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("weights", [
    (0, 1), (-1, 1), (1,), (1, 2, 3), (), (1.0, 2), (True, 1), ("1", 2), 3,
])
def test_bad_weights_are_refused(weights):
    with pytest.raises(InputError, match="fiber_metric_weights"):
        compute_Mg(parse_matrix([["x1", "x2"]], 2), weights)


def _weighted_args(cyc):
    """The sorted (argument text, weight) pairs of each moving factor of a
    base cycle."""
    names = cyc.space.var_names()
    return [sorted((format_polynomial(p, names), str(w))
                   for p, w in zip(f.args, f.weights or [1] * len(f.args)))
            for t in cyc.terms for f in t.moving]


@pytest.mark.parametrize("rows, n, weights, k, expected", [
    # a zero entry of the row drops out with the weight of its column
    ([["x1", "0", "x2"]], 2, (1, 2, 3), 1,
     "X ^ <dd^c log(6*|x1|^2 + 2*|x2|^2)>"),
    # the slices on [x3 = 0] miss a3, so they take w1 and w2 only
    ([["x1*x3", "0", "0"], ["0", "x2*x3", "0"], ["0", "0", "x3^2"]], 3,
     (1, 2, 3), 2,
     "[x3=0] ^ <dd^c log(6*|x1|^2 + 3*|x2|^2)> (averaged) + [x1=x2=0] "
     "+ 2*[x1=x3=0] + 2*[x2=x3=0]"),
    ([["x1*x3", "0", "0"], ["0", "x2*x3", "0"], ["0", "0", "x3^2"]], 3,
     (1, 1, 2), 2,
     "[x3=0] ^ <dd^c log(|x1|^2 + |x2|^2)> (averaged) + [x1=x2=0] "
     "+ 2*[x1=x3=0] + 2*[x2=x3=0]"),
    # the unit block's column takes its weight along
    ([["x1", "x2", "0"], ["0", "0", "1"]], 2, (1, 2, 3), 1,
     "X ^ <dd^c log(2*|x1|^2 + |x2|^2)>"),
    ([["x1", "x2"]], 2, (1, Fraction(1, 2)), 1,
     "X ^ <dd^c log(|x1|^2 + 2*|x2|^2)>"),
])
def test_weights_follow_the_fiber_coordinate(rows, n, weights, k, expected):
    assert compute_Mg(parse_matrix(rows, n), weights).M[k].describe() \
        == expected


def test_weights_survive_a_row_swap():
    # the same morphism up to a unitary automorphism of F: x1 sits in
    # column 1 either way, so it takes the weight of a1
    diag = parse_matrix([["x1*x3", "0"], ["0", "x2*x3"]], 3)
    swap = parse_matrix([["0", "x2*x3"], ["x1*x3", "0"]], 3)
    want = [[("x1", "2"), ("x2", "1")]]
    for g in (diag, swap):
        assert _weighted_args(compute_Mg(g, (1, 2)).M[2]) == want


def test_unmatched_weights_raise():
    # slices whose arguments do not carry distinct fiber coordinates
    a1, a2 = Polynomial.variable(4, 2), Polynomial.variable(4, 3)
    x1, x2 = Polynomial.variable(4, 0), Polynomial.variable(4, 1)
    for args in [(x1 * a1, x2 * a1), (x1 * a1, x2), (x1 * a1, x2 * a1 * a2)]:
        c = GeneralizedCycle(proj_space(2, 2), 2, [
            term(1, VarietyRef.whole_space(), 1, (MovingFactor(args, 1),))])
        assert pushforward_cycle(c).degree == 1
        with pytest.raises(UnsupportedInputError, match="weights"):
            pushforward_cycle(c, (1, 2))


# ---------------------------------------------------------------------------
# Segre numbers / distinguished varieties
# ---------------------------------------------------------------------------

def test_segre_examples():
    g = parse_matrix([["x1", "0"], ["0", "x2"]], 2)
    assert segre_numbers(compute_Mg(g), [0, 0]).numbers == [0, 2, 1]
    row = compute_Mg(parse_matrix([["x1", "x2"]], 2))
    assert segre_numbers(row, [0, 0]).numbers == [1, 1, 0]
    assert segre_numbers(row, [1, 0]).numbers == [1, 0, 0]
    dsum = parse_matrix([["x1", "0", "0"], ["0", "x2", "0"], ["0", "0", "1"]],
                        2)
    assert segre_numbers(compute_Mg(dsum), [0, 0]).numbers == [0, 2, 1]


def test_segre_provenance_exact():
    rep = segre_numbers(compute_Mg(parse_matrix([["x1", "x2"]], 2)), [0, 0])
    assert rep.provenance == ["EXACT", "EXACT", "EXACT"]
    rec = rep.to_record()
    assert rec["numbers"] == [1, 1, 0]


def test_segre_provenance_oracle():
    # the two-factor product has no exact rule: e_2 is the oracle's number
    f1 = MovingFactor((parse_polynomial("x1", 2), parse_polynomial("x2", 2)), 1)
    f2 = MovingFactor((parse_polynomial("x1 - x2", 2),
                       parse_polynomial("x2", 2)), 1)
    base = Space(2)
    M = [GeneralizedCycle.zero(base, 0), GeneralizedCycle.zero(base, 1),
         GeneralizedCycle(base, 2, [term(1, VarietyRef.whole_space(),
                                         moving=(f1, f2))])]
    res = MorphismResult(M, [], "")
    rep = segre_numbers(res, [0, 0], cfg=CFG)
    assert rep.numbers == [0, 0, 1]
    assert rep.provenance == ["EXACT", "EXACT", "ORACLE"]


def test_segre_provenance_after_an_exact_term(monkeypatch):
    # e_1 = 1 + 2: the first moving term has the exact order rule, the later
    # one (a non-monomial argument) only the oracle, which is asked for it
    # alone; without a cfg the exact rule's refusal reaches the caller
    import segre_kit.engine as engine

    exact = MovingFactor((parse_polynomial("x1", 2),
                          parse_polynomial("x2", 2)), 1)
    oracle_only = MovingFactor((parse_polynomial("x1", 2),
                                parse_polynomial("x2 + x1^2", 2)), 1)
    base = Space(2)
    M = [GeneralizedCycle.zero(base, 0),
         GeneralizedCycle(base, 1, [
             term(2, VarietyRef.whole_space(), moving=(oracle_only,)),
             term(1, VarietyRef.whole_space(), moving=(exact,))]),
         GeneralizedCycle.zero(base, 2)]
    assert [t.moving for t in M[1].terms] == [(exact,), (oracle_only,)]
    res = MorphismResult(M, [], "")
    asked, crofton = [], engine.crofton_moving_multiplicity
    monkeypatch.setattr(engine, "crofton_moving_multiplicity",
                        lambda factors, *rest, **kw: asked.append(factors)
                        or crofton(factors, *rest, **kw))
    rep = segre_numbers(res, [0, 0], cfg=CFG)
    assert rep.numbers == [0, 3, 0]
    assert rep.provenance == ["EXACT", "ORACLE", "EXACT"]
    assert asked == [[oracle_only]]
    with pytest.raises(UndecidedError) as info:
        segre_numbers(res, [0, 0])
    assert str(info.value) == "moving factor with non-monomial arguments"
    assert info.value.term == M[1].terms[1]
    assert asked == [[oracle_only]]


@pytest.mark.parametrize("rows, n, z", [
    ([["x1", "x2"]], 2, "Z = X"),
    ([["x1*x2", "x1^2"]], 2, "Z = X"),
    ([["x1", "0"], ["0", "x2"]], 2,
     "Z contains [x1=0] (codim 1), [x2=0] (codim 1), [x1=x2=0] (codim 2)"),
    ([["x1"], ["x2"]], 2, "Z contains [x1=x2=0] (codim 2)"),
])
def test_Z_description(rows, n, z):
    # M_0 = 1_Z, so a nonzero M_0 means Z = X
    res = compute_Mg(parse_matrix(rows, n))
    assert res.Z_description == z
    assert (z == "Z = X") == (not res.M[0].is_zero())


def test_distinguished_examples():
    def disting(rows, n):
        res = compute_Mg(parse_matrix(rows, n))
        return {(ref.describe(res.M[0].space), co)
                for ref, co, _k in res.distinguished}

    assert disting([["x1", "0"], ["0", "x2"]], 2) == \
        {("[x1=0]", 1), ("[x2=0]", 1), ("[x1=x2=0]", 1)}
    assert disting([["x1*x2", "0"], ["0", "1"]], 2) == \
        {("[x1=0]", 1), ("[x2=0]", 1)}
    assert disting([["x1", "x2"]], 2) == {("X", 1)}


def test_comparability_scalar_and_permutation():
    g = parse_matrix([["x1", "0"], ["0", "x2"]], 2)
    h = parse_matrix([["0", "2*x2"], ["(1+1*i)*x1", "0"]], 2)
    pts = [[0, 0], [0, 1], [1, 0], [2, 2]]
    for pt in pts:
        assert segre_numbers(compute_Mg(g), pt).numbers == \
            segre_numbers(compute_Mg(h), pt).numbers


UNITS = [Scalar(2), Scalar(1, 1), Scalar(Fraction(1, 3)), Scalar(0, -1),
         Scalar(-5, 2)]


def _disguise(g, rng):
    """A comparable presentation of g: rows and columns permuted, every
    entry multiplied by a unit."""
    rows = rng.sample(range(g.rows), g.rows)
    cols = rng.sample(range(g.cols), g.cols)
    return PolyMatrix([[g.entries[i][j] * rng.choice(UNITS) for j in cols]
                       for i in rows])


def _invariants(g, weights=None, points=None):
    """Sorted distinguished varieties (describe, coefficient, codim) and the
    Segre numbers at ``points`` (default the sample grid), both read off M^g
    at the fiber metric ``weights``."""
    res = compute_Mg(g, weights)
    base = res.M[0].space
    disting = sorted((ref.describe(base), co, k) for ref, co, k in res.distinguished)
    return disting, [segre_numbers(res, pt).numbers
                     for pt in points or _grid(g.nvars)]


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_comparability_random_diagonal(seed):
    rng = random.Random(seed)
    g = _random_diag_monomial(rng)
    assert _invariants(_disguise(g, rng)) == _invariants(g), str(g)


@pytest.mark.parametrize("row, n", [
    (["x1*x2", "x1^2"], 2),
    (["x1*x2", "x2*x3^2", "x2*x4"], 4),
    (["x1^2*x3", "x2*x3", "x3"], 3),
])
def test_comparability_single_row(row, n):
    g = parse_matrix([row], n)
    rng = random.Random(len(row) + n)
    for _ in range(3):
        assert _invariants(_disguise(g, rng)) == _invariants(g)


def test_one_fixed_moving_split_per_current(monkeypatch):
    # the distinguished varieties depend on the result only: compute_Mg reads
    # each term of each M_k once with the split's predicate, builds no cycle
    # for it, and a Segre query at a point splits nothing
    import segre_kit.engine as engine
    from segre_kit.cycles import _in_fixed_part

    calls = []

    def counted(t, c):
        calls.append((t, c))
        return _in_fixed_part(t, c)

    monkeypatch.setattr(engine, "_in_fixed_part", counted)
    g = parse_matrix([["x1*x3", "0", "0"], ["0", "x2*x3", "0"],
                      ["0", "0", "x3^2"]], 3)
    res = compute_Mg(g)
    assert calls == [(t, c) for c in res.M for t in c.terms]
    # the predicate picks what the split's fixed part holds
    assert res.distinguished and res.distinguished == [
        (t.fixed, int(t.coefficient), k) for k, c in enumerate(res.M)
        for t in fixed_moving_split(c)[0].terms]
    built = []
    init = GeneralizedCycle.__init__
    monkeypatch.setattr(GeneralizedCycle, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    MorphismResult(res.M, res.ring_M)
    assert built == []
    calls.clear()
    for pt in _grid(3):
        segre_numbers(res, pt)
    assert calls == []


# ---------------------------------------------------------------------------
# the quotient current
# ---------------------------------------------------------------------------

def test_Ma_examples():
    ma = compute_Ma(parse_matrix([["x1", "x2"]], 2), cfg=CFG)
    assert ma[1].is_zero()
    assert ma[2].describe() == "-1*[point (0, 0)]"
    ma = compute_Ma(parse_matrix([["x1^2", "x2"]], 2), cfg=CFG)
    assert ma[2].describe() == "-2*[point (0, 0)]"
    ma = compute_Ma(parse_matrix([["x1", "x1"]], 2), cfg=CFG)
    assert ma[1].describe() == "[x1=0]"
    assert ma[2].is_zero()


def test_Ma_sign_structure():
    ma = compute_Ma(parse_matrix([["x1^2", "x2"]], 2), cfg=CFG)
    assert multiplicity_at(ma[2], [0, 0]) == -2


def test_Ma_general_pair_with_oracle():
    ma = compute_Ma(parse_matrix([["x1^2 - x2^3", "x1*x2"]], 2), cfg=CFG)
    assert ma[2].describe() == "-5*[point (0, 0)]"


def test_Ma_common_zero_near_the_origin():
    # the reduced pair meets at (1e-7, 0) as well as at the origin: only the
    # exact factor x1 is divided out of the resultant before its roots are
    # found, so no point mass at the origin stands for both zeros
    for c in ("1/1000", "1/10000000"):
        with pytest.raises(UnsupportedInputError):
            compute_Ma(parse_matrix([[f"x1^2 - {c}*x1", "x2"]], 2), cfg=CFG)


def test_Ma_common_zero_near_the_circle():
    # x2 * (x2 - c)^4: the quadruple root c is decided exactly against the
    # radius 1, also within 1e-9 of it, and a root on the circle rejects
    for c, inside in (("1000000001/1000000000", False),
                      ("999999999/1000000000", True), ("1", True)):
        f = parse_polynomial(f"x2 - {c}", 2)
        g = parse_matrix(
            [["x1", str(parse_polynomial("x2", 2) * f * f * f * f)]], 2)
        if inside:
            with pytest.raises(UnsupportedInputError):
                compute_Ma(g, cfg=CFG)
        else:
            assert compute_Ma(g, cfg=CFG)[2].describe() == "-1*[point (0, 0)]"


def test_Ma_gcd_with_symbolic_term():
    ma = compute_Ma(parse_matrix([["x1^2", "x1*x2"]], 2), cfg=CFG)
    assert ma[1].describe() == "[x1=0]"
    fixed, moving = fixed_moving_split(ma[2])
    assert fixed.describe() == "-1*[point (0, 0)]"
    assert len(moving.terms) == 1 and moving.terms[0].coefficient == -1


def test_Ma_input_validation():
    with pytest.raises(InputError):
        compute_Ma(parse_matrix([["x1", "0"], ["0", "x2"]], 2))
    with pytest.raises(InputError):
        compute_Ma(parse_matrix([["0", "0"]], 2))
    with pytest.raises(UnsupportedInputError):
        # a line of common zeros in C^3
        compute_Ma(parse_matrix([["x1", "x2"]], 3))


# compute_Ma's refusals in the order it makes them; each row also fails every
# later test it can reach, so its message shows which refusal comes first
MA_REFUSALS = [
    ([["0", "0"], ["0", "0"]], 3, InputError,
     "compute_Ma expects a 1x2 matrix (g1, g2)"),
    ([["0", "0"]], 3, InputError, "compute_Ma needs (g1, g2) not both zero"),
    ([["x1 + x2", "0"]], 3, UnsupportedInputError,
     "single-entry quotient supported for monomial entries only"),
    ([["x1", "x2"]], 3, UnsupportedInputError,
     "reduced monomial pair has non-isolated zeros for n != 2"),
    # nonzero at the origin, with a common zero at (1/2, 0)
    ([["x1 - 1/2 + x2^2", "x2"]], 3, UnsupportedInputError,
     "general-pair zero counting needs n = 2"),
    ([["x1 - 1/2 + x2^2", "x2"]], 2, UnsupportedInputError,
     "reduced pair does not vanish at the origin; unsupported recipe"),
    ([["x1^2 - 1/2*x1 + x2^2", "x2"]], 2, UnsupportedInputError,
     "reduced pair has common zeros away from the origin in the polydisk"),
]


@pytest.mark.parametrize("rows, n, error, message", MA_REFUSALS)
def test_Ma_refusals_keep_their_messages_and_order(rows, n, error, message):
    with pytest.raises(error) as info:
        compute_Ma(parse_matrix(rows, n), cfg=CFG)
    assert type(info.value) is error and str(info.value) == message


def test_Ma_refuses_a_spec_without_variables():
    # after the shape check, before the not-both-zero check
    with pytest.raises(InputError) as info:
        compute_Ma(parse_matrix([["0", "0"], ["0", "0"]], 0), cfg=CFG)
    assert str(info.value) == "compute_Ma expects a 1x2 matrix (g1, g2)"
    for rows in ([["0", "0"]], [["1", "2"]]):
        with pytest.raises(InputError) as info:
            compute_Ma(parse_matrix(rows, 0), cfg=CFG)
        assert type(info.value) is InputError
        assert str(info.value) == (
            "the spec has no variables: M^a needs x1 at least")


@pytest.mark.parametrize("rows, n, currents", [
    ([["x1*x2", "2"]], 2, ["0", "0", "0"]),  # a unit cofactor: no zeros
    ([["x1", "x1^2"]], 1, ["0", "[x1=0]"]),
    ([["x1 + x1^2", "x1^3"]], 1, ["0", "[x1=0]"]),
])
def test_Ma_without_a_point_mass(rows, n, currents):
    ma = compute_Ma(parse_matrix(rows, n), cfg=CFG)
    assert [c.describe() for c in ma] == currents


# ---------------------------------------------------------------------------
# singular metric forms
# ---------------------------------------------------------------------------

def test_singular_metric_examples():
    g = parse_matrix([["x1", "0"], ["0", "x2"]], 2)
    f_hat, meta = singular_metric_forms(g)["SEGRE_F_HAT"]
    assert f_hat[0].describe() == "X"
    assert f_hat[1].describe() == "-1*[x1=0] + -1*[x2=0]"
    assert f_hat[2].describe() == "-1*[x1=x2=0]"
    assert meta == {}

    ident = parse_matrix([["1", "0"], ["0", "1"]], 2)
    f_hat, _ = singular_metric_forms(ident)["SEGRE_F_HAT"]
    assert f_hat[0].describe() == "X"
    assert all(c.is_zero() for c in f_hat[1:])

    pow_g = parse_matrix([["x1^2", "0"], ["0", "x1"]], 1)
    c_hat, _ = singular_metric_forms(pow_g)["CHERN_E_HAT"]
    assert c_hat[1].describe() == "-3*[x1=0]"

    res = compute_Mg(g)
    forms = singular_metric_forms(g, res)
    assert list(forms) == ["SEGRE_E_HAT", "CHERN_E_HAT", "SEGRE_F_HAT"]
    e_hat, meta = forms["SEGRE_E_HAT"]
    assert e_hat[1].describe() == "[x1=0] + [x2=0]"
    assert all(a is b for a, b in zip(e_hat[1:], res.M[1:]))
    assert "smooth_tail" in meta


def test_singular_metric_validation():
    # s(F-hat) only for a square g with det g not identically zero
    row = parse_matrix([["x1", "x2"]], 2)
    assert list(singular_metric_forms(row)) == ["SEGRE_E_HAT", "CHERN_E_HAT"]
    degen = parse_matrix([["x1", "0"], ["0", "0"]], 2)
    assert list(singular_metric_forms(degen)) == ["SEGRE_E_HAT", "CHERN_E_HAT"]


def test_single_row_with_common_factor():
    res = compute_Mg(parse_matrix([["x1*x2", "x2^2"]], 2))
    assert res.M[0].describe() == "X"
    assert res.M[1].describe() == "X ^ <dd^c log(|x1|^2 + |x2|^2)> + [x2=0]"


def test_unit_block_reduction_rank4():
    # a unit summand masking the common factor: M currents equal the reduced ones
    g3 = parse_matrix([["x1*x3", "0", "0"], ["0", "x2*x3", "0"],
                       ["0", "0", "x3^2"]], 3)
    g4 = parse_matrix([["x1*x3", "0", "0", "0"], ["0", "x2*x3", "0", "0"],
              ["0", "0", "x3^2", "0"], ["0", "0", "0", "1"]], 3)
    r3, r4 = compute_Mg(g3), compute_Mg(g4)
    assert [c.describe() for c in r4.M] == [c.describe() for c in r3.M]


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_direct_sum_with_unit_block(seed):
    # g (+) (1) has the morphism currents of g
    g = _random_diag_monomial(random.Random(seed))
    n, zero = g.nvars, Polynomial.zero(g.nvars)
    gsum = PolyMatrix([list(row) + [zero] for row in g.entries]
                      + [[zero] * g.cols + [Polynomial.constant(n, 1)]])
    assert [c.describe() for c in compute_Mg(gsum).M] == \
        [c.describe() for c in compute_Mg(g).M], str(g)


def test_localization_invariance_random():
    # Segre numbers at a sample point equal those at the origin of the
    # presentation localized there (coordinates vanishing at the point stay,
    # the others become units); a sheaf-theoretic consistency property
    from itertools import product
    from segre_kit.errors import UnsupportedInputError

    rng = random.Random(314)
    done = 0
    while done < 40:
        g = _random_diag_monomial(rng, n_max=3, r_max=3, exp_max=2)
        n = g.nvars
        pts = [pt for pt in product([0, 1], repeat=n) if any(pt)]
        if not pts:
            continue
        pt = rng.choice(pts)
        keep = [v for v in range(n) if pt[v] == 0]

        def localize(p):
            if p.is_zero():
                return p
            c, m = p.as_monomial()
            mm = tuple(e if v in keep else 0 for v, e in enumerate(m))
            return Polynomial.monomial(n, mm, c)

        loc = PolyMatrix([[localize(p) for p in row] for row in g.entries])
        try:
            a = segre_numbers(compute_Mg(g), list(pt)).numbers
            b = segre_numbers(compute_Mg(loc), [0] * n).numbers
        except UnsupportedInputError:
            continue
        assert a == b, (str(g), pt, a, b)
        done += 1


# ---------------------------------------------------------------------------
# the determinant law and integral coefficients, over generated inputs
# ---------------------------------------------------------------------------

@st.composite
def permuted_diagonals(draw):
    """(g, e): a square permuted-diagonal monomial matrix, n <= 3, r <= 3,
    coefficients 1-3, whose reduced entries are pairwise coprime (each
    variable belongs to at most one slot), with or without a shared factor;
    e[v] is the exponent of x_v in det g."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    owners = [draw(st.integers(-1, r - 1)) for _ in range(n)]
    common = [draw(st.integers(0, 1)) for _ in range(n)] \
        if draw(st.booleans()) else [0] * n
    entries = [(draw(st.integers(1, 3)),
                [common[v] + (draw(st.integers(0, 2)) if owners[v] == slot
                              else 0) for v in range(n)])
               for slot in range(r)]
    rows = draw(st.permutations(range(r)))
    cols = draw(st.permutations(range(r)))
    cells = [[Polynomial.zero(n)] * r for _ in range(r)]
    for (c, exps), i, j in zip(entries, rows, cols):
        cells[i][j] = Polynomial.monomial(n, exps, c)
    return PolyMatrix(cells), [sum(exps[v] for _, exps in entries)
                               for v in range(n)]


@given(permuted_diagonals())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_fixed_part_of_M1_is_the_divisor_of_det(case):
    g, e = case
    base = Space(g.nvars)
    det = determinant(g).as_monomial()
    assert det is not None and list(det[1]) == e
    div_det = GeneralizedCycle(base, 1, [
        term(k, VarietyRef.coordinate_subspace([v])) for v, k in enumerate(e)
        if k])
    fixed, _ = fixed_moving_split(compute_Mg(g).M[1])
    assert fixed == div_det, str(g)


@given(permuted_diagonals(), st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_Mg_coefficients_are_ints(case, as_row):
    g, _ = case
    if as_row:  # the entries as one pairwise-coprime row
        g = PolyMatrix([[g.entries[i][j] for i, j in g.nonzero_positions()]])
    assert classify_structure(g) in (StructureClass.DIAGONAL_MONOMIAL,
                                     StructureClass.SINGLE_ROW)
    res = compute_Mg(g)
    for cyc in res.M + res.ring_M:
        assert all(type(t.coefficient) is int for t in cyc.terms), str(g)


# diag(c1*x1, c2*x1) over n = 2: its reduced tuple (c1*a1, c2*a2) is a full
# fiber frame, omega itself when |c1| = |c2|; ring_M[2] for each (c1, c2)
FIBER_FRAMES = {
    ("2", "(1+i)"): "[x1=0] ^ <dd^c log(|2*a1|^2 + |(1+i)*a2|^2)>",
    ("5", "(3+4*i)"): "[x1=0] ^ omega^1",
    ("1", "(3/5+4/5*i)"): "[x1=0] ^ omega^1",
}


def test_exact_run_builds_no_fraction(monkeypatch):
    # every coefficient and key part of an exact run on a diagonal is an
    # integer, so no Fraction is made from the parsed spec to the report;
    # the moduli of a full fiber frame are compared in integers too
    spec = load_spec({
        "variables": ["x1", "x2", "x3"],
        "matrix": [["x1*x3", "0", "0"], ["0", "x2*x3", "0"],
                   ["0", "0", "x3^2"]],
        "engine": "exact",
        "points": [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "1"]],
        "tasks": ["Mg", "segre", "distinguished", "singular_metrics"]})
    frames = [load_spec({
        "variables": ["x1", "x2"],
        "matrix": [[f"{c1}*x1", "0"], ["0", f"{c2}*x1"]],
        "engine": "exact", "points": [["0", "0"]]}) for c1, c2 in FIBER_FRAMES]
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    report = run_spec(spec)
    for frame in frames:
        run_spec(frame)
    ring2 = [compute_Mg(frame.matrix).ring_M[2].describe() for frame in frames]
    monkeypatch.undo()
    assert made == []
    assert [r["numbers"] for r in report["results"]["segre"]] == \
        [[0, 6, 6, 2], [0, 5, 2, 0], [0, 2, 1, 0]]
    assert ring2 == list(FIBER_FRAMES.values())


# ---------------------------------------------------------------------------
# the paper's invariance statements, over generated inputs
# ---------------------------------------------------------------------------

@given(st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_segre_numbers_do_not_depend_on_the_fiber_metric(seed, as_row):
    # positive weights w_j in sum w_j |a_j|^2 change how M^g is written, not
    # its multiplicities
    rng = random.Random(seed)
    g = _diagonal_or_row(rng, as_row)
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
               for _ in range(g.cols)]
    assert _invariants(g, weights) == _invariants(g), (str(g), weights)


def _compose(p, ks, sigma):
    """p(x_sigma(1)^k1, ..., x_sigma(n)^kn): variable j goes to
    x_sigma(j)^kj."""
    def image(m):
        out = [0] * len(m)
        for j, e in enumerate(m):
            out[sigma[j]] = e * ks[j]
        return tuple(out)

    return Polynomial(p.nvars, ((image(m), c) for m, c in p.terms.items()))


def _pull_back(cyc, ks, sigma):
    """f*cyc for f(x) = (x_sigma(1)^k1, ..., x_sigma(n)^kn), on a base cycle
    supported on coordinate subspaces and the origin: [x_i = 0, i in S]
    becomes [x_sigma(i) = 0, i in S] times the product of the k_i over S, the
    origin is multiplied by the product of all k_i, and every moving
    argument is composed with f."""
    terms = []
    for t in cyc.terms:
        if t.fixed.kind == VarietyKind.POINT:
            assert all(c.is_zero() for c in t.fixed.point)
            zeros, fixed = range(len(ks)), t.fixed
        else:
            zeros = t.fixed.base_zeros
            fixed = VarietyRef.coordinate_subspace([sigma[i] for i in zeros])
        moving = [dataclasses.replace(
            f, args=tuple(_compose(p, ks, sigma) for p in f.args))
            for f in t.moving]
        terms.append(term(t.coefficient * math.prod(ks[i] for i in zeros),
                          fixed, t.omega_power, moving))
    return GeneralizedCycle(cyc.space, cyc.degree, terms)


@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_Mg_pulls_back_along_finite_monomial_maps(seed, as_row, weighted):
    # M^{f*g} = f*M^g for f(x) = (x_sigma(1)^k1, ..., x_sigma(n)^kn)
    rng = random.Random(seed)
    g = _diagonal_or_row(rng, as_row)
    ks = [rng.randint(1, 3) for _ in range(g.nvars)]
    weights = [rng.choice([1, 2, 3, Fraction(1, 2)]) for _ in range(g.cols)] \
        if weighted else None
    sigma = rng.sample(range(g.nvars), g.nvars)
    fg = PolyMatrix([[_compose(p, ks, sigma) for p in row] for row in g.entries])
    assert compute_Mg(fg, weights).M == \
        [_pull_back(c, ks, sigma) for c in compute_Mg(g, weights).M], \
        (str(g), ks, sigma)


@pytest.mark.parametrize("rows, same_coker", [
    ([["x1", "x1*x2"]], [["x1", "0"]]),
    ([["x1^2", "x1"]], [["0", "x1"]]),
    ([["x1", "0"], ["0", "x2"]], [["x1", "0"], ["0", "x2"], ["0", "0"]]),
])
def test_multiplicities_depend_only_on_the_cokernel(rows, same_coker):
    # a column operation, or an appended zero row, keeps coker g*
    pts = [[0, 0], [1, 0], [0, 1]]
    assert _invariants(parse_matrix(rows, 2), points=pts) == \
        _invariants(parse_matrix(same_coker, 2), points=pts)
