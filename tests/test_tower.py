import pytest

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
from segre_kit.errors import CheckFailedError, UnsupportedTermError
from segre_kit.poly import parse_matrix, parse_polynomial
from segre_kit.tower import pushforward_cycle, tower_residue


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
    for chart, (entries, _space) in enumerate(calls[1:]):
        assert not any(p.degree_in(n + chart) for p in entries)


def test_chart_check_catches_a_planted_fault(monkeypatch):
    # terms on [a_i = 0] are invisible in chart i; claiming otherwise must
    # make the chart towers disagree with the global one
    monkeypatch.setattr(engine, "_visible_in_chart", lambda t, chart: True)
    with pytest.raises(RuntimeError, match="disagrees with the global tower"):
        engine.compute_Mg(parse_matrix([["x1", "0"], ["0", "x2"]], 2))


def _plant(monkeypatch, chart, fault):
    """Let ``fault`` rewrite the tower of one chart (call 0 is global)."""
    calls = []

    def planted(entries, space):
        levels = tower_residue(entries, space)
        calls.append(entries)
        return fault(levels, space) if len(calls) == 2 + chart else levels

    monkeypatch.setattr(engine, "tower_residue", planted)


def _chart_levels(chart):
    g = parse_matrix(DIAG3, 3)
    space = proj_space(3, 3)
    return tower_residue([space.dehomogenize(space.lift(row), chart)
                          for row in g.entries], space)


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
    with pytest.raises(RuntimeError, match=f"chart {chart + 1} disagrees"):
        engine.compute_Mg(parse_matrix(DIAG3, 3))


@pytest.mark.parametrize("chart, level", [
    (chart, level) for chart in range(3) for level in range(6)])
def test_chart_check_catches_an_extra_term(monkeypatch, chart, level):
    def extra(levels, space):
        levels[level].append(term(1, VarietyRef.point_at([1, 1, 1])))
        return levels

    _plant(monkeypatch, chart, extra)
    with pytest.raises(RuntimeError, match=f"chart {chart + 1} disagrees"):
        engine.compute_Mg(parse_matrix(DIAG3, 3))


# a chart term without a moving factor is compared as it is, one with a
# moving factor after homogenizing it: each path gets its own planted faults
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
    with pytest.raises(RuntimeError, match=f"chart {chart + 1} disagrees"):
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
    with pytest.raises(RuntimeError, match=f"chart {chart + 1} disagrees"):
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
