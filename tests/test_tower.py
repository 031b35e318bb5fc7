import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segre_kit import engine
from segre_kit.cycles import (
    CycleTerm,
    GeneralizedCycle,
    MovingFactor,
    Space,
    VarietyRef,
    proj_space,
    term,
)
from segre_kit.errors import (
    CheckFailedError,
    UnsupportedInputError,
    UnsupportedTermError,
)
from segre_kit.poly import MAX_VARS, parse_matrix, parse_polynomial
from segre_kit.tower import _recognize_omega, pushforward_cycle, tower_residue
from test_engine import _diagonal_or_row, _with_zero_row_or_unit_block
from test_space import substitute_one


DIAG3 = [["x1*x3", "0", "0"], ["0", "x2*x3", "0"], ["0", "0", "x3^2"]]


@pytest.mark.parametrize("entries, n, expected", [
    (["x1*x3", "x2*x3"], 3,
     ["0", "[x3=0]",
      "[x3=0] ^ <dd^c log(|x1|^2 + |x2|^2)> + [x1=x2=0]", "[x1=x2=x3=0]"]),
    (["x1^2*x2"], 2, ["0", "2*[x1=0] + [x2=0]", "0"]),
    (["3"], 2, ["0", "0", "0"]),
    (["x1", "x2^2", "x3"], 3, ["0", "0", "0", "2*[x1=x2=x3=0]"]),
])
def test_tower_residue_every_level(entries, n, expected):
    space = Space(n)
    levels = tower_residue([parse_polynomial(s, n) for s in entries], space)
    assert [GeneralizedCycle(space, level, terms).describe()
            for level, terms in enumerate(levels)] == expected


@pytest.mark.parametrize("rows, n, walks", [
    (DIAG3, 3, 1 + 3),
    ([["x1", "x2"]], 2, 1),
    ([["x1*x2"], ["x2^2"]], 2, 1),
])
def test_one_tower_walk_per_tuple(monkeypatch, rows, n, walks):
    # one walk for the global ring and, for a diagonal, one per affine chart
    # a_1 = 1, a_2 = 1, ... in order, whatever the number of levels
    calls = []

    def counted(*args):
        calls.append(args)
        return tower_residue(*args)

    monkeypatch.setattr(engine, "tower_residue", counted)
    engine.compute_Mg(parse_matrix(rows, n))
    assert len(calls) == walks
    # the charts walk the global lifted entries, each with its own index
    assert [args[2:] for args in calls] == [()] + [
        (chart,) for chart in range(walks - 1)]
    assert all(args[:2] == calls[0] for args in calls[1:])


def test_chart_check_catches_a_planted_fault(monkeypatch):
    # terms on [a_i = 0] are invisible in chart i; claiming otherwise must
    # make the chart towers disagree with the global one
    monkeypatch.setattr(engine, "_visible_in_chart", lambda t, chart: True)
    with pytest.raises(CheckFailedError,
                       match="chart 1 disagrees with the global tower"):
        engine.compute_Mg(parse_matrix([["x1", "0"], ["0", "x2"]], 2))


def _plant(monkeypatch, chart, fault):
    """Let ``fault`` rewrite the tower of one chart."""
    def planted(entries, space, at=None):
        levels = tower_residue(entries, space, at)
        return fault(levels, space) if at == chart else levels

    monkeypatch.setattr(engine, "tower_residue", planted)


def _chart_levels(chart):
    g = parse_matrix(DIAG3, 3)
    space = proj_space(3, 3)
    return tower_residue(list(map(space.lift, g.entries)), space, chart)


@pytest.mark.parametrize("chart, level", [
    (chart, level) for chart in range(3)
    for level, terms in enumerate(_chart_levels(chart)) if terms])
def test_chart_check_catches_a_changed_coefficient(monkeypatch, chart, level):
    def bump(levels, space):
        t, *rest = levels[level]
        levels[level] = [CycleTerm(t.coefficient + 1, t.fixed, t.omega_power,
                                   t.moving), *rest]
        return levels

    _plant(monkeypatch, chart, bump)
    with pytest.raises(CheckFailedError, match=f"chart {chart + 1} disagrees"):
        engine.compute_Mg(parse_matrix(DIAG3, 3))


@pytest.mark.parametrize("chart, level", [
    (chart, level) for chart in range(3) for level in range(6)])
def test_chart_check_catches_an_extra_term(monkeypatch, chart, level):
    def extra(levels, space):
        levels[level].append(term(1, VarietyRef.point_at([1, 1, 1])))
        return levels

    _plant(monkeypatch, chart, extra)
    with pytest.raises(CheckFailedError, match=f"chart {chart + 1} disagrees"):
        engine.compute_Mg(parse_matrix(DIAG3, 3))


# chart terms without a moving factor, omega powers among them, get planted
# faults of their own
@pytest.mark.parametrize("chart, level", [
    (chart, level) for chart in range(3)
    for level, terms in enumerate(_chart_levels(chart))
    if any(not t.moving for t in terms)])
def test_chart_check_catches_a_changed_term_without_moving_factor(
        monkeypatch, chart, level):
    def bump(levels, space):
        i = next(i for i, t in enumerate(levels[level]) if not t.moving)
        t = levels[level][i]
        levels[level][i] = CycleTerm(t.coefficient + 1, t.fixed,
                                     t.omega_power, t.moving)
        return levels

    _plant(monkeypatch, chart, bump)
    with pytest.raises(CheckFailedError, match=f"chart {chart + 1} disagrees"):
        engine.compute_Mg(parse_matrix(DIAG3, 3))


@pytest.mark.parametrize("chart, level, moving", [
    (chart, level, moving) for chart in range(3) for level in range(6)
    for moving in (False, True)])
def test_chart_check_catches_an_extra_coordinate_term(monkeypatch, chart,
                                                     level, moving):
    # a coordinate subspace of P(E) (x1..x3, a1..a3), without or with a
    # moving factor, of a coefficient no chart term has
    x1, x2 = (parse_polynomial(v, 6) for v in ("x1", "x2"))
    extra = term(7, VarietyRef.coordinate_subspace([0, 1, 2][:level]), 0,
                 (MovingFactor((x1, x2), 1),) if moving else ())

    def add(levels, space):
        levels[level].append(extra)
        return levels

    _plant(monkeypatch, chart, add)
    with pytest.raises(CheckFailedError, match=f"chart {chart + 1} disagrees"):
        engine.compute_Mg(parse_matrix(DIAG3, 3))


def test_chart_check_names_the_missing_and_extra_terms(monkeypatch):
    def bump(levels, space):
        t = levels[2][0]
        levels[2][0] = CycleTerm(t.coefficient + 1, t.fixed, t.omega_power,
                                 t.moving)
        return levels

    _plant(monkeypatch, 0, bump)
    with pytest.raises(CheckFailedError) as exc:
        engine.compute_Mg(parse_matrix(DIAG3, 3))
    factor = "<dd^c log(|x1*a1|^2 + |x2*a2|^2)>"
    assert str(exc.value) == (
        f"chart 1 disagrees with the global tower at level 2: missing "
        f"[x3=0] ^ {factor}; extra 2*[x3=0] ^ {factor}")


# ---------------------------------------------------------------------------
# the chart walk against the dehomogenize / homogenize round trip
# ---------------------------------------------------------------------------

def _reference_chart_levels(entries, space, chart):
    """A chart's tower as the engine once computed it: a_c set to 1 in every
    lifted entry, the tower walked on those, and each term with a moving
    factor mapped back to P(E) by ``_reference_homogenize``."""
    dehomogenized = [substitute_one(p, space.n + chart) for p in entries]
    return [[_reference_homogenize(t, space, chart) if t.moving else t
             for t in terms] for terms in tower_residue(dehomogenized, space)]


def _reference_homogenize(t, space, chart):
    """A chart term in global coordinates: its a-free moving arguments
    multiplied by a_c and omega recognized again."""
    omega = t.omega_power
    moving = []
    for f in t.moving:
        args = [p if any(map(any, space.split(p)))
                else space.lift({chart: p}) for p in f.args]
        if _recognize_omega(space, args):
            omega += f.power
        else:
            moving.append(MovingFactor(tuple(args), f.power, f.weights,
                                       f.averaged))
    return CycleTerm(t.coefficient, t.fixed, omega, tuple(moving))


def _outcome(walk):
    """Each level's (key, coefficient) pairs in order, or the refusal."""
    try:
        return [[(t.key(), t.coefficient) for t in terms] for terms in walk()]
    except UnsupportedInputError as exc:
        return str(exc)


@given(st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_chart_walk_matches_the_round_trip(seed, wide):
    # permuted diagonals up to 4 x 4 over n = 4 with common factors, by coin
    # flips with a zero row and a unit entry: in every chart and at every
    # level the walk gives the round trip's terms, keys and coefficients, in
    # its order, or refuses the tuple as the round trip does (a unit entry
    # beside entries that share a factor is refused before the charts)
    rng = random.Random(seed)
    g = _with_zero_row_or_unit_block(_diagonal_or_row(rng, False, wide), rng)
    assume(g.cols >= 2 and g.nvars + g.cols <= MAX_VARS and not g.is_zero())
    space = proj_space(g.nvars, g.cols)
    entries = list(map(space.lift, g.entries))
    for chart in range(space.r):
        got = _outcome(lambda: tower_residue(entries, space, chart))
        assert got == _outcome(
            lambda: _reference_chart_levels(entries, space, chart)), \
            (str(g), chart)


def test_push_refuses_a_slice_argument_mixing_fiber_coordinates():
    # x1*a1 + 2*x1*a2 is no base argument times one fiber coordinate; the
    # pushforward once kept only its last coefficient, 2*x1; on X x P^1
    # the fiber coordinates a1, a2 are x3, x4
    args = tuple(parse_polynomial(s, 4)
                 for s in ("x1*x3 + 2*x1*x4", "x2*x4"))
    c = GeneralizedCycle(proj_space(2, 2), 2, [
        term(1, VarietyRef.whole_space(), 1, (MovingFactor(args, 1),))])
    assert c.describe() == ("X ^ omega^1 ^ "
                            "<dd^c log(|x1*a1 + 2*x1*a2|^2 + |x2*a2|^2)>")
    with pytest.raises(UnsupportedTermError, match="unsupported fiber content"):
        pushforward_cycle(c)
    # one fiber monomial per argument still pushes down
    for texts, omega, pushed in (
            (("2*x1*x3", "x2*x4"), 1,
             "X ^ <dd^c log(|2*x1|^2 + |x2|^2)> (averaged)"),
            (("x1*x3 + x2*x3", "x2*x4"), 0, "X")):
        ok = tuple(parse_polynomial(s, 4) for s in texts)
        c = GeneralizedCycle(proj_space(2, 2), 1 + omega, [
            term(1, VarietyRef.whole_space(), omega, (MovingFactor(ok, 1),))])
        assert pushforward_cycle(c).describe() == pushed
