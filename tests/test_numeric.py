import itertools

import numpy as np
import pytest

from segre_kit.cycles import MovingFactor, VarietyRef
from segre_kit.errors import ContourTooCloseError, InputError, UndecidedError
from segre_kit.numeric import (
    RegConfig,
    _batch_minor_dets,
    _disk_samples,
    contour_root_count,
    crofton_moving_multiplicity,
    epsilon_mass,
    mass_balance_check,
    perturbation_root_count,
)
from segre_kit.poly import PolyMatrix, parse_polynomial


def p(text, n=2):
    return parse_polynomial(text, n)


def mat(rows, n):
    return PolyMatrix([[parse_polynomial(s, n) for s in row] for row in rows])


CFG = RegConfig(samples=30000)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_regconfig_validation():
    with pytest.raises(InputError):
        RegConfig(epsilon_schedule=(1e-2, 1e-1, 1e-3))
    with pytest.raises(InputError):
        RegConfig(epsilon_schedule=(1e-1, 1e-2), extrapolation="RICHARDSON")
    for bad in ({"radius": -1}, {"radius": 0}, {"radius": float("nan")},
                {"radius": float("inf")}, {"radius": "1"},
                {"samples": 0}, {"samples": 10}, {"samples": 15},
                {"samples": 1000.0}, {"samples": "a"}, {"samples": True},
                {"seed": 1.5}, {"seed": "7"}, {"seed": None}, {"seed": -1},
                {"epsilon_schedule": ["a", "b", "c"]}, {"epsilon_schedule": 5},
                {"epsilon_schedule": (1e-1, float("nan"), 1e-3)},
                {"extrapolation_order": 0}):
        with pytest.raises(InputError):
            RegConfig(**bad)
    assert RegConfig(samples=16, seed=0, radius=0.5).samples == 16
    cfg = RegConfig(epsilon_schedule=(1e-1, 1e-2), extrapolation="NONE")
    assert cfg.epsilon_schedule == (1e-1, 1e-2)


def _chart_samples_reference(cfg, ncomplex, power=2.0):
    """The chart sampler that mass_balance_check used before it shared
    _disk_samples, kept verbatim as the reference."""
    import math

    from scipy.stats import qmc

    sampler = qmc.Halton(d=2 * ncomplex, scramble=True, seed=cfg.seed)
    u = sampler.random(cfg.samples)
    z = np.empty((cfg.samples, ncomplex), dtype=complex)
    t = u[:, 0]
    z[:, 0] = cfg.radius * t ** power * np.exp(2j * np.pi * u[:, 1])
    weight = 2 * np.pi * power * cfg.radius ** 2 * t ** (2 * power - 1)
    for j in range(1, ncomplex):
        rad = np.sqrt(u[:, 2 * j])
        z[:, j] = rad * np.exp(2j * np.pi * u[:, 2 * j + 1])
        weight = weight * math.pi
    return z, weight


@pytest.mark.parametrize("radius", [1.0, 0.7, 0.614])
@pytest.mark.parametrize("ncomplex", [1, 2, 3])
@pytest.mark.parametrize("samples", [16, 1000, 4096])
def test_disk_samples_match_chart_reference(radius, ncomplex, samples):
    cfg = RegConfig(samples=samples, seed=11 * samples + ncomplex, radius=radius)
    z, w = _disk_samples(cfg, [(radius, 2.0)] + [(1.0, 0.5)] * (ncomplex - 1))
    z_ref, w_ref = _chart_samples_reference(cfg, ncomplex)
    assert np.array_equal(z, z_ref) and np.array_equal(w, w_ref)


def _minor_dets_reference(jac, rows, cols):
    """The closed forms _batch_minor_dets used for sizes 1-3 before its
    Laplace recursion, kept verbatim as the reference."""
    k = len(rows)
    a = [[jac[i][j] for j in cols] for i in rows]
    if k == 1:
        return a[0][0]
    if k == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_minor_dets_match_closed_forms(k):
    rng = np.random.default_rng(k)
    jac = [[rng.normal(size=500) + 1j * rng.normal(size=500) for _ in range(4)]
           for _ in range(4)]
    for rows in itertools.combinations(range(4), k):
        for cols in itertools.combinations(range(4), k):
            assert np.array_equal(_batch_minor_dets(jac, rows, cols),
                                  _minor_dets_reference(jac, rows, cols))
    det4 = _batch_minor_dets(jac, (0, 1, 2, 3), (0, 1, 2, 3))
    stacked = np.moveaxis(np.array(jac), 2, 0)
    assert np.allclose(det4, np.linalg.det(stacked))


def test_epsilon_mass_four_variables():
    est = epsilon_mass([p("x1", 4), p("x2", 4), p("x3", 4), p("x4", 4)], 4,
                       RegConfig(samples=20000))
    assert abs(est.value - 1.0) < 0.1


# ---------------------------------------------------------------------------
# contour counting
# ---------------------------------------------------------------------------

def test_contour_examples():
    assert contour_root_count(p("x1^3", 1), 1.0) == 3
    assert contour_root_count(p("x1 - 2", 1), 1.0) == 0
    assert contour_root_count(p("x1^2 - 1/2*x1", 1), 1.0) == 2


def test_contour_too_close():
    with pytest.raises(ContourTooCloseError):
        contour_root_count(p("x1 - 1", 1), 1.0)


# ---------------------------------------------------------------------------
# perturbation counting
# ---------------------------------------------------------------------------

def test_perturbation_examples():
    assert perturbation_root_count((p("x1"), p("x2")), 1.0) == 1
    assert perturbation_root_count((p("x1^2"), p("x2")), 1.0) == 2
    assert perturbation_root_count((p("x1^2 - x2^3"), p("x1*x2")), 1.0) == 5


def test_perturbation_seed_determinism():
    a = perturbation_root_count((p("x1^2"), p("x2")), 1.0, seed=123)
    b = perturbation_root_count((p("x1^2"), p("x2")), 1.0, seed=123)
    assert a == b


# ---------------------------------------------------------------------------
# epsilon masses
# ---------------------------------------------------------------------------

def test_epsilon_mass_cubic():
    est = epsilon_mass([p("x1^3", 1)], 1, CFG)
    assert est.extrapolated
    assert abs(est.value - 3) < 0.02 * 3


def test_epsilon_mass_point():
    est = epsilon_mass([p("x1"), p("x2")], 2, CFG)
    assert abs(est.value - 1) < 0.05


def test_epsilon_mass_nonvanishing():
    est = epsilon_mass([p("x1 + 2"), p("x2 + 2")], 2, CFG)
    assert abs(est.value) <= max(3 * est.stderr, 1e-3)


def test_epsilon_mass_seed_determinism():
    a = epsilon_mass([p("x1"), p("x2")], 2, CFG)
    b = epsilon_mass([p("x1"), p("x2")], 2, CFG)
    assert a.value == b.value and a.per_epsilon == b.per_epsilon


def test_epsilon_mass_k_range():
    with pytest.raises(InputError):
        epsilon_mass([p("x1"), p("x2")], 3, CFG)


def test_gram_density_two_paths():
    # Cauchy-Binet: sum of squared k x k minors of J == det(J J^*) for k = N
    rng = np.random.default_rng(11)
    G = [p("x1^2 - x2^3"), p("x1*x2"), p("x1 + 2*x2^2")]
    jac = [[q.differentiate(j) for j in range(2)] for q in G]
    for _ in range(100):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        J = np.array([[complex(jac[i][j].evaluate(list(z))) for j in range(2)]
                      for i in range(3)])
        direct = np.linalg.det(J.conj().T @ J).real
        minors = 0.0
        for i in range(3):
            rows = [r for r in range(3) if r != i]
            d = J[rows[0], 0] * J[rows[1], 1] - J[rows[0], 1] * J[rows[1], 0]
            minors += abs(d) ** 2
        assert abs(direct - minors) <= 1e-10 * max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# crofton multiplicities
# ---------------------------------------------------------------------------

def test_crofton_moving_row_values():
    factor = MovingFactor((p("x1"), p("x2")), 1)
    whole = VarietyRef.whole_space()
    assert crofton_moving_multiplicity([factor], whole, [0, 0], CFG) == 1
    assert crofton_moving_multiplicity([factor], whole, [1, 0], CFG) == 0
    assert crofton_moving_multiplicity([factor], whole, [0, 1], CFG) == 0


def test_crofton_residue_free_square():
    factor = MovingFactor((p("x1"), p("x2")), 2)
    assert crofton_moving_multiplicity([factor], VarietyRef.whole_space(),
                                       [0, 0], CFG) == 0


def test_crofton_subspace_restriction():
    factor = MovingFactor((p("x1", 3), p("x2", 3)), 1)
    sub = VarietyRef.coordinate_subspace([2])
    assert crofton_moving_multiplicity([factor], sub, [0, 0, 0], CFG) == 1
    assert crofton_moving_multiplicity([factor], sub, [0, 0, 1], CFG) == 0


def test_crofton_higher_order_divisor():
    factor = MovingFactor((p("x1^2"), p("x2^2")), 1)
    assert crofton_moving_multiplicity([factor], VarietyRef.whole_space(),
                                       [0, 0], CFG) == 2


def test_crofton_undecided():
    factor = MovingFactor((p("x1", 3), p("x2", 3), p("x3", 3)), 2)
    with pytest.raises(UndecidedError):
        crofton_moving_multiplicity([factor], VarietyRef.whole_space(),
                                    [0, 0, 0], CFG)


# ---------------------------------------------------------------------------
# mass balance
# ---------------------------------------------------------------------------

def test_mass_balance_examples():
    res = mass_balance_check(mat([["x1^2", "0"], ["0", "x1"]], 1), CFG)
    assert res.det_count == 3 and res.passed
    res = mass_balance_check(mat([["x1", "0"], ["0", "x1"]], 1), CFG)
    assert res.det_count == 2 and res.passed
    res = mass_balance_check(mat([["x1 + 2", "0"], ["0", "x1 + 3"]], 1), CFG)
    assert res.det_count == 0 and abs(res.numeric_mass) < 0.05 and res.passed


def test_mass_balance_validation():
    with pytest.raises(InputError):
        mass_balance_check(mat([["x1", "x1"]], 1), CFG)
    with pytest.raises(InputError):
        mass_balance_check(mat([["x1", "0"], ["0", "0"]], 1), CFG)
    with pytest.raises(InputError):
        mass_balance_check(mat([["x1", "0"], ["0", "x2"]], 2), CFG)


def test_comparability_numeric_mass():
    # pre/post-composing with constant invertible matrices leaves the degree-1
    # mass over the disk (the sum of multiplicities there) unchanged
    from segre_kit.poly import Polynomial

    g = mat([["x1^2", "0"], ["0", "x1"]], 1)
    C = [[p("1", 1), p("1/2", 1)], [p("0", 1), p("1", 1)]]
    D = [[p("1", 1), p("0", 1)], [p("i", 1), p("1", 1)]]

    def matmul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(2)),
                     Polynomial.zero(1)) for j in range(2)] for i in range(2)]

    composed = PolyMatrix(matmul(matmul(C, list(map(list, g.entries))), D))
    res = mass_balance_check(composed, CFG.replace(samples=60000))
    assert res.det_count == 3
    assert abs(res.numeric_mass - 3) < 0.1


def test_epsilon_mass_center_shift():
    est = epsilon_mass([p("x1 - 2"), p("x2 - 2")], 2, CFG, center=[2, 2])
    assert abs(est.value - 1) < 0.05


def test_mass_balance_fractional_order_knob():
    # the degenerate entry x1^2 leaves a half-order epsilon tail; the
    # extrapolation-order knob absorbs it
    g = mat([["x1^2", "0"], ["0", "x1"]], 1)
    res = mass_balance_check(g, CFG.replace(extrapolation_order=0.5,
                                            samples=60000))
    assert res.det_count == 3
    assert abs(res.numeric_mass - 3) < 0.03


def test_exact_top_segre_matches_oracles_random():
    # column pairs (x1^a, x2^b): exact top multiplicity a*b must agree with
    # the perturbation count and the epsilon mass
    import numpy as np
    from segre_kit.cycles import multiplicity_at
    from segre_kit.engine import compute_Mg

    rng = np.random.default_rng(5)
    for _ in range(4):
        a, b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        col = PolyMatrix([[p(f"x1^{a}")], [p(f"x2^{b}")]])
        res = compute_Mg(col)
        exact = multiplicity_at(res.M[2], [0, 0])
        assert exact == a * b
        pair = (p(f"x1^{a}"), p(f"x2^{b}"))
        assert perturbation_root_count(pair, 1.0, seed=9) == a * b
        est = epsilon_mass(pair, 2, CFG)
        assert round(est.value) == a * b and abs(est.value - a * b) < 0.05 * a * b
