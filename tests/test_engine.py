import random
from fractions import Fraction

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
    term,
)
from segre_kit.engine import (
    MorphismResult,
    compute_Ma,
    compute_Mg,
    ring_M_Galpha,
    segre_numbers,
    singular_metric_forms,
)
from segre_kit.errors import InputError, UnsupportedInputError
from segre_kit.numeric import RegConfig
from segre_kit.poly import PolyMatrix, Polynomial, parse_polynomial
from segre_kit.scalars import Scalar


def mat(rows, n):
    return PolyMatrix([[parse_polynomial(s, n) for s in row] for row in rows])


CFG = RegConfig(samples=20000)


# ---------------------------------------------------------------------------
# ring currents
# ---------------------------------------------------------------------------

def test_ring_diag2():
    ring = ring_M_Galpha(mat([["x1", "0"], ["0", "x2"]], 2))
    assert ring[1].is_zero()
    assert ring[2].describe() == "[x1=a2=0] + [x1=x2=0] + [x2=a1=0]"
    assert ring[3].is_zero()


def test_ring_diag_powers():
    ring = ring_M_Galpha(mat([["x1^2", "0"], ["0", "x1"]], 1))
    assert ring[1].describe() == "[x1=0]"
    assert ring[2].describe() == "2*[x1=a2=0]"


def test_ring_single_row():
    ring = ring_M_Galpha(mat([["x1", "x2"]], 2))
    assert ring[1].describe() == "[(x1)*a1 + (x2)*a2 = 0]"
    assert all(ring[l].is_zero() for l in (0, 2, 3))


def test_ring_rejects_general():
    with pytest.raises(UnsupportedInputError) as exc:
        ring_M_Galpha(mat([["x1", "x2 + 1"], ["x2", "x1"]], 2))
    assert exc.value.structure == "GENERAL"


def test_ring_rejects_non_coprime_diagonal():
    # reduced entries x1, x1, x2 share a variable: no proper product
    with pytest.raises(UnsupportedInputError):
        ring_M_Galpha(mat([["x1", "0", "0"], ["0", "x1", "0"], ["0", "0", "x2"]], 2))


# ---------------------------------------------------------------------------
# morphism currents
# ---------------------------------------------------------------------------

def test_Mg_identity_and_zero():
    ident = compute_Mg(mat([["1", "0"], ["0", "1"]], 2))
    assert all(c.is_zero() for c in ident.M)
    zero = compute_Mg(mat([["0", "0"], ["0", "0"]], 2))
    assert zero.M[0].describe() == "X"
    assert all(c.is_zero() for c in zero.M[1:])


def test_Mg_line_bundle_column():
    res = compute_Mg(mat([["x1"], ["x2"]], 2))
    assert res.M[1].is_zero()  # dimension principle: codim Z = 2
    assert res.M[2].describe() == "[x1=x2=0]"


def test_Mg_gcd_diag3_m1_equals_det_divisor():
    g = mat([["x1*x3", "0", "0"], ["0", "x2*x3", "0"], ["0", "0", "x3^2"]], 3)
    res = compute_Mg(g)
    assert res.M[1].describe() == "[x1=0] + [x2=0] + 4*[x3=0]"


def test_dimension_principle_diag():
    # det = x1^2: codim Z = 1, so only k >= 1 can be nonzero; and the
    # column case (x1;x2) has codim 2 handled above
    res = compute_Mg(mat([["x1", "0"], ["0", "x1"]], 1))
    assert res.M[0].is_zero()
    assert res.M[1].describe() == "2*[x1=0]"


# ---------------------------------------------------------------------------
# Segre numbers / distinguished varieties
# ---------------------------------------------------------------------------

def test_segre_examples():
    g = mat([["x1", "0"], ["0", "x2"]], 2)
    assert segre_numbers(g, [0, 0]).numbers == [0, 2, 1]
    row = mat([["x1", "x2"]], 2)
    assert segre_numbers(row, [0, 0]).numbers == [1, 1, 0]
    assert segre_numbers(row, [1, 0]).numbers == [1, 0, 0]
    dsum = mat([["x1", "0", "0"], ["0", "x2", "0"], ["0", "0", "1"]], 2)
    assert segre_numbers(dsum, [0, 0]).numbers == [0, 2, 1]


def test_segre_provenance_exact():
    rep = segre_numbers(mat([["x1", "x2"]], 2), [0, 0])
    assert rep.provenance == ["EXACT", "EXACT", "EXACT"]
    rec = rep.to_record()
    assert rec["numbers"] == [1, 1, 0]


def test_segre_provenance_oracle():
    # the two-factor product has no exact rule: e_2 is the oracle's number
    f1 = MovingFactor((parse_polynomial("x1", 2), parse_polynomial("x2", 2)), 1)
    f2 = MovingFactor((parse_polynomial("x1 - x2", 2),
                       parse_polynomial("x2", 2)), 1)
    base = base_space(2)
    M = [GeneralizedCycle.zero(base, 0), GeneralizedCycle.zero(base, 1),
         GeneralizedCycle(base, 2, [term(1, VarietyRef.whole_space(),
                                         moving=(f1, f2))])]
    res = MorphismResult(M, [], "")
    rep = segre_numbers(mat([["x1", "x2"]], 2), [0, 0], cfg=CFG, result=res)
    assert rep.numbers == [0, 0, 1]
    assert rep.provenance == ["EXACT", "EXACT", "ORACLE"]


@pytest.mark.parametrize("rows, n, z", [
    ([["x1", "x2"]], 2, "Z = X"),
    ([["x1*x2", "x1^2"]], 2, "Z = X"),
    ([["x1", "0"], ["0", "x2"]], 2,
     "Z contains [x1=0] (codim 1), [x2=0] (codim 1), [x1=x2=0] (codim 2)"),
    ([["x1"], ["x2"]], 2, "Z contains [x1=x2=0] (codim 2)"),
])
def test_Z_description(rows, n, z):
    # M_0 = 1_Z, so a nonzero M_0 means Z = X
    res = compute_Mg(mat(rows, n))
    assert res.Z_description == z
    assert (z == "Z = X") == (not res.M[0].is_zero())


def test_distinguished_examples():
    def disting(rows, n):
        res = compute_Mg(mat(rows, n))
        return {(ref.describe(res.M[0].space), co)
                for ref, co, _k in res.distinguished}

    assert disting([["x1", "0"], ["0", "x2"]], 2) == \
        {("[x1=0]", 1), ("[x2=0]", 1), ("[x1=x2=0]", 1)}
    assert disting([["x1*x2", "0"], ["0", "1"]], 2) == \
        {("[x1=0]", 1), ("[x2=0]", 1)}
    assert disting([["x1", "x2"]], 2) == {("X", 1)}


def test_comparability_scalar_and_permutation():
    g = mat([["x1", "0"], ["0", "x2"]], 2)
    h = mat([["0", "2*x2"], ["(1+1*i)*x1", "0"]], 2)
    pts = [[0, 0], [0, 1], [1, 0], [2, 2]]
    for pt in pts:
        assert segre_numbers(g, pt).numbers == segre_numbers(h, pt).numbers


UNITS = [Scalar(2), Scalar(1, 1), Scalar(Fraction(1, 3)), Scalar(0, -1),
         Scalar(-5, 2)]


def _disguise(g, rng):
    """A comparable presentation of g: rows and columns permuted, every
    entry multiplied by a unit."""
    rows = rng.sample(range(g.rows), g.rows)
    cols = rng.sample(range(g.cols), g.cols)
    return PolyMatrix([[g.entries[i][j] * rng.choice(UNITS) for j in cols]
                       for i in rows])


def _invariants(g):
    """Sorted distinguished varieties (describe, coefficient, codim) and the
    Segre numbers on the sample grid."""
    from segre_kit.cli import _grid

    res = compute_Mg(g)
    base = res.M[0].space
    disting = sorted((ref.describe(base), co, k) for ref, co, k in res.distinguished)
    return disting, [segre_numbers(g, pt, result=res).numbers
                     for pt in _grid(g.nvars)]


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_comparability_random_diagonal(seed):
    from segre_kit.cli import _random_diag_monomial

    rng = random.Random(seed)
    g = _random_diag_monomial(rng)
    assert _invariants(_disguise(g, rng)) == _invariants(g), str(g)


@pytest.mark.parametrize("row, n", [
    (["x1*x2", "x1^2"], 2),
    (["x1*x2", "x2*x3^2", "x2*x4"], 4),
    (["x1^2*x3", "x2*x3", "x3"], 3),
])
def test_comparability_single_row(row, n):
    g = mat([row], n)
    rng = random.Random(len(row) + n)
    for _ in range(3):
        assert _invariants(_disguise(g, rng)) == _invariants(g)


def test_one_fixed_moving_split_per_current(monkeypatch):
    # the distinguished varieties depend on the result only: compute_Mg
    # splits each M_k once and a Segre query at a point splits nothing
    import segre_kit.engine as engine
    from segre_kit.cli import _grid

    calls = []

    def counted(c):
        calls.append(c)
        return fixed_moving_split(c)

    monkeypatch.setattr(engine, "fixed_moving_split", counted)
    g = mat([["x1*x3", "0", "0"], ["0", "x2*x3", "0"], ["0", "0", "x3^2"]], 3)
    res = compute_Mg(g)
    assert 0 < len(calls) <= len(res.M)
    calls.clear()
    for pt in _grid(3):
        segre_numbers(g, pt, result=res)
    assert calls == []


# ---------------------------------------------------------------------------
# the quotient current
# ---------------------------------------------------------------------------

def test_Ma_examples():
    ma = compute_Ma(mat([["x1", "x2"]], 2), cfg=CFG)
    assert ma[1].is_zero()
    assert ma[2].describe() == "-1*[point (0, 0)]"
    ma = compute_Ma(mat([["x1^2", "x2"]], 2), cfg=CFG)
    assert ma[2].describe() == "-2*[point (0, 0)]"
    ma = compute_Ma(mat([["x1", "x1"]], 2), cfg=CFG)
    assert ma[1].describe() == "[x1=0]"
    assert ma[2].is_zero()


def test_Ma_sign_structure():
    ma = compute_Ma(mat([["x1^2", "x2"]], 2), cfg=CFG)
    assert multiplicity_at(ma[2], [0, 0]) == -2


def test_Ma_general_pair_with_oracle():
    ma = compute_Ma(mat([["x1^2 - x2^3", "x1*x2"]], 2), cfg=CFG)
    assert ma[2].describe() == "-5*[point (0, 0)]"


def test_Ma_common_zero_near_the_origin():
    # the reduced pair meets at (1e-7, 0) as well as at the origin: only the
    # exact factor x1 is divided out of the resultant before its roots are
    # found, so no point mass at the origin stands for both zeros
    for c in ("1/1000", "1/10000000"):
        with pytest.raises(UnsupportedInputError):
            compute_Ma(mat([[f"x1^2 - {c}*x1", "x2"]], 2), cfg=CFG)


def test_Ma_common_zero_near_the_circle():
    # x2 * (x2 - c)^4: the quadruple root c is decided exactly against the
    # radius 1, also within 1e-9 of it, and a root on the circle rejects
    for c, inside in (("1000000001/1000000000", False),
                      ("999999999/1000000000", True), ("1", True)):
        f = parse_polynomial(f"x2 - {c}", 2)
        g = mat([["x1", str(parse_polynomial("x2", 2) * f * f * f * f)]], 2)
        if inside:
            with pytest.raises(UnsupportedInputError):
                compute_Ma(g, cfg=CFG)
        else:
            assert compute_Ma(g, cfg=CFG)[2].describe() == "-1*[point (0, 0)]"


def test_Ma_gcd_with_symbolic_term():
    ma = compute_Ma(mat([["x1^2", "x1*x2"]], 2), cfg=CFG)
    assert ma[1].describe() == "[x1=0]"
    fixed, moving = fixed_moving_split(ma[2])
    assert fixed.describe() == "-1*[point (0, 0)]"
    assert len(moving.terms) == 1 and moving.terms[0].coefficient == -1


def test_Ma_input_validation():
    with pytest.raises(InputError):
        compute_Ma(mat([["x1", "0"], ["0", "x2"]], 2))
    with pytest.raises(InputError):
        compute_Ma(mat([["0", "0"]], 2))
    with pytest.raises(UnsupportedInputError):
        compute_Ma(mat([["x1", "x2"]], 3))  # line of common zeros in C^3


# ---------------------------------------------------------------------------
# singular metric forms
# ---------------------------------------------------------------------------

def test_singular_metric_examples():
    g = mat([["x1", "0"], ["0", "x2"]], 2)
    f_hat = singular_metric_forms(g, "SEGRE_F_HAT")
    assert f_hat.cycles[0].describe() == "X"
    assert f_hat.cycles[1].describe() == "-1*[x1=0] + -1*[x2=0]"
    assert f_hat.cycles[2].describe() == "-1*[x1=x2=0]"

    ident = mat([["1", "0"], ["0", "1"]], 2)
    f_hat = singular_metric_forms(ident, "SEGRE_F_HAT")
    assert f_hat.cycles[0].describe() == "X"
    assert all(c.is_zero() for c in f_hat.cycles[1:])

    pow_g = mat([["x1^2", "0"], ["0", "x1"]], 1)
    c_hat = singular_metric_forms(pow_g, "CHERN_E_HAT")
    assert c_hat.cycles[1].describe() == "-3*[x1=0]"

    e_hat = singular_metric_forms(g, "SEGRE_E_HAT")
    assert e_hat.cycles[1].describe() == "[x1=0] + [x2=0]"
    assert "smooth_tail" in e_hat.metadata


def test_singular_metric_validation():
    row = mat([["x1", "x2"]], 2)
    with pytest.raises(InputError):
        singular_metric_forms(row, "SEGRE_F_HAT")
    degen = mat([["x1", "0"], ["0", "0"]], 2)
    with pytest.raises(InputError):
        singular_metric_forms(degen, "SEGRE_F_HAT")
    with pytest.raises(InputError):
        singular_metric_forms(row, "NOPE")


def test_single_row_with_common_factor():
    res = compute_Mg(mat([["x1*x2", "x2^2"]], 2))
    assert res.M[0].describe() == "X"
    assert res.M[1].describe() == "X ^ <dd^c log(|x1|^2 + |x2|^2)> + [x2=0]"


def test_unit_block_reduction_rank4():
    # a unit summand masking the common factor: M currents equal the reduced ones
    g3 = mat([["x1*x3", "0", "0"], ["0", "x2*x3", "0"], ["0", "0", "x3^2"]], 3)
    g4 = mat([["x1*x3", "0", "0", "0"], ["0", "x2*x3", "0", "0"],
              ["0", "0", "x3^2", "0"], ["0", "0", "0", "1"]], 3)
    r3, r4 = compute_Mg(g3), compute_Mg(g4)
    assert [c.describe() for c in r4.M] == [c.describe() for c in r3.M]


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_direct_sum_with_unit_block(seed):
    # g (+) (1) has the morphism currents of g
    from segre_kit.cli import _random_diag_monomial

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
    from segre_kit.cli import _random_diag_monomial
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
            a = segre_numbers(g, list(pt)).numbers
            b = segre_numbers(loc, [0] * n).numbers
        except UnsupportedInputError:
            continue
        assert a == b, (str(g), pt, a, b)
        done += 1
