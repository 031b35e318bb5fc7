import pytest

from segre_kit import engine
from segre_kit.cycles import GeneralizedCycle, base_space
from segre_kit.poly import PolyMatrix, parse_polynomial
from segre_kit.tower import tower_residue


def mat(rows, n):
    return PolyMatrix([[parse_polynomial(s, n) for s in row] for row in rows])


@pytest.mark.parametrize("entries, n, expected", [
    (["x1*x3", "x2*x3"], 3,
     ["0", "[x3=0]",
      "[x3=0] ^ <dd^c log(|x1|^2 + |x2|^2)> + [x1=x2=0]", "[x1=x2=x3=0]"]),
    (["x1^2*x2"], 2, ["0", "2*[x1=0] + [x2=0]", "0"]),
    (["3"], 2, ["0", "0", "0"]),
    (["x1", "x2^2", "x3"], 3, ["0", "0", "0", "2*[x1=x2=x3=0]"]),
])
def test_tower_residue_every_level(entries, n, expected):
    space = base_space(n)
    levels = tower_residue([parse_polynomial(s, n) for s in entries], space)
    assert [GeneralizedCycle(space, level, terms).describe()
            for level, terms in enumerate(levels)] == expected


@pytest.mark.parametrize("rows, n, most", [
    ([["x1*x3", "0", "0"], ["0", "x2*x3", "0"], ["0", "0", "x3^2"]], 3, 1 + 3),
    ([["x1", "x2"]], 2, 1),
    ([["x1*x2"], ["x2^2"]], 2, 1),
])
def test_one_tower_walk_per_tuple(monkeypatch, rows, n, most):
    # one walk for the global ring and one per affine chart, whatever the
    # number of levels
    calls = []

    def counted(*args):
        calls.append(args)
        return tower_residue(*args)

    monkeypatch.setattr(engine, "tower_residue", counted)
    engine.compute_Mg(mat(rows, n))
    assert 1 <= len(calls) <= most


def test_chart_check_catches_a_planted_fault(monkeypatch):
    # terms on [a_i = 0] are invisible in chart i; claiming otherwise must
    # make the chart towers disagree with the global one
    monkeypatch.setattr(engine, "_visible_in_chart", lambda t, space, chart: True)
    with pytest.raises(RuntimeError, match="disagrees with the global tower"):
        engine.compute_Mg(mat([["x1", "0"], ["0", "x2"]], 2))
