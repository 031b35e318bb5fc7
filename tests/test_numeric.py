import hashlib
import itertools
import math
import random
import sys
import threading
import weakref
from dataclasses import replace
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from segre_kit.cli import _numeric_multiplicity
from segre_kit.cycles import MovingFactor, VarietyRef, multiplicity_at
from segre_kit import numeric, poly
from segre_kit.engine import compute_Ma, compute_Mg
from segre_kit.errors import (
    ContourTooCloseError,
    InputError,
    NumericalFailureError,
    UndecidedError,
)
from segre_kit.golden import _grid, _random_diag_monomial
from segre_kit.numeric import (
    _BLOCKS,
    MassBalanceResult,
    MassEstimate,
    RegConfig,
    _batch_minor_dets,
    _chart_hessians,
    _chart_rows,
    _disk_samples,
    _fiber_pieces,
    _halton,
    _limit,
    _translate,
    _wedges,
    confirm_origin_only_zero,
    contour_root_count,
    crofton_moving_multiplicity,
    epsilon_mass,
    mass_balance_check,
    perturbation_root_count,
)
from segre_kit.poly import (
    Polynomial,
    PolyMatrix,
    determinant,
    disk_root_count,
    parse_matrix,
    parse_polynomial,
    resultant,
    strip_common_factor,
)
from segre_kit.scalars import Scalar
from test_space import substitute_one


def p(text, n=2):
    return parse_polynomial(text, n)


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
    # 2^22 samples at most, a bound checked before any array is allocated
    assert RegConfig(samples=2 ** 22).samples == 2 ** 22
    for bad in (2 ** 22 + 1, 10 ** 17, 10 ** 30):
        with pytest.raises(InputError) as info:
            RegConfig(samples=bad)
        assert str(info.value) == "samples must be at most 4194304"
    cfg = RegConfig(epsilon_schedule=(1e-1, 1e-2), extrapolation="NONE")
    assert cfg.epsilon_schedule == (1e-1, 1e-2)
    # a schedule is a list or tuple of numbers, or of their text (the
    # --epsilon-schedule flag's comma-split pieces); not a string's
    # characters, an object's keys or bools
    for bad in ("321", {"0.1": 1, "0.01": 2, "0.001": 3}, [True, 0.5, 0.1],
                (0.5, 0.1, False), b"321", 5, None):
        with pytest.raises(InputError) as info:
            RegConfig(epsilon_schedule=bad)
        assert str(info.value) == "epsilon schedule must be a list of numbers"
    assert RegConfig(epsilon_schedule=["0.5", "1e-1", 0.01]).epsilon_schedule \
        == (0.5, 0.1, 0.01)
    # ints past the float range and extrapolations that are no str are
    # refused as input, the value spelled as JSON would spell it
    big = 10 ** 400
    for bad, message in (
            ({"radius": big}, "radius must be a positive finite number"),
            ({"extrapolation_order": big},
             "extrapolation order must be a positive number"),
            ({"epsilon_schedule": [big, 1, 0.1]},
             "epsilon schedule must be positive and finite"),
            ({"extrapolation": False}, "unknown extrapolation false"),
            ({"extrapolation": None}, "unknown extrapolation null"),
            ({"extrapolation": "none"}, 'unknown extrapolation "none"'),
            ({"extrapolation": np.array(["NONE", "RICHARDSON"])},
             "unknown extrapolation <ndarray>"),
            ({"extrapolation": Fraction(1, 2)},
             "unknown extrapolation <Fraction>")):
        with pytest.raises(InputError) as info:
            RegConfig(**bad)
        assert str(info.value) == message, bad


def _draw(cfg, coords):
    """_disk_samples on the whole Halton draw of cfg, in one piece."""
    return _disk_samples(_halton(2 * len(coords), cfg.samples, cfg.seed),
                         coords)


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
@pytest.mark.parametrize("samples", [16, 1000, 4096, 40000])
def test_disk_samples_match_chart_reference(radius, ncomplex, samples):
    cfg = RegConfig(samples=samples, seed=11 * samples + ncomplex, radius=radius)
    z, w = _draw(cfg, [(radius, 2.0)] + [(1.0, 0.5)] * (ncomplex - 1))
    z_ref, w_ref = _chart_samples_reference(cfg, ncomplex)
    assert np.array_equal(z, z_ref) and np.array_equal(w, w_ref)


@pytest.mark.parametrize("d", [2, 4, 6, 8, 12])
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_halton_matches_scipy(d, seed):
    qmc = pytest.importorskip("scipy.stats.qmc")
    # the sizes around powers of 2, 3, 5 and 7 move the split between
    # tabulated low digits and broadcast high digits; below n = 3 no base
    # has a high digit, and at n = 3 only base 2
    for n in (1, 2, 3, 16, 17, 125, 126, 243, 244, 343, 344, 1000, 1024,
              1025, 6561, 6562, 40000, 40007):
        ref = qmc.Halton(d=d, scramble=True, seed=seed).random(n)
        assert np.array_equal(_halton(d, n, seed), ref), n


def test_sample_columns_are_contiguous():
    # every column the masses read, of the whole draw and of either half
    for d, n in ((2, 16), (4, 4099), (6, 40000)):
        u = _halton(d, n, 7)
        cut = n // _BLOCKS * (_BLOCKS // 2)
        for rows in (u, u[:cut], u[cut:]):
            assert all(rows[:, k].flags.c_contiguous for k in range(d))
            z, _w = _disk_samples(rows, [(1.0, 2.0)] * (d // 2))
            assert all(z[:, j].flags.c_contiguous for j in range(d // 2))


def _eval_array_reference(poly, points):
    """Polynomial.eval_array as it was with the power x^1 taken by ``**``."""
    acc = np.zeros(points.shape[0], dtype=complex)
    for m, c in poly.terms.items():
        v = np.full(points.shape[0], complex(c))
        for j, e in enumerate(m):
            if e:
                v = points[:, j] ** e * v
        acc += v
    return acc


@pytest.mark.parametrize("text", [
    "x1", "(2/3 - 5/7*i)*x1*x2 + i*x2", "x1*x2*x3 - 1/9*x3^2*x1 + 3/4 + 1/4*i",
    "(1/3 + 2/7*i)*x1^3*x2 - 5/11*i*x1*x3 + x2^2*x3 - 6"])
def test_eval_array_takes_the_first_power_bit_for_bit(text):
    poly = p(text, 3)
    z, _w = _draw(RegConfig(samples=40000, seed=3), [(1.0, 2.0)] * 3)
    rng = np.random.default_rng(5)
    wild = (rng.standard_normal((4000, 3)) + 1j * rng.standard_normal(
        (4000, 3))) * 10.0 ** rng.integers(-150, 150, (4000, 3))
    # the draw is column-major; its row-major copy, and wild values (which
    # overflow to inf and nan) in either layout
    for points in (z, np.ascontiguousarray(z), wild, np.asfortranarray(wild)):
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = poly.eval_array(points), _eval_array_reference(poly, points)
        assert got.tobytes() == ref.tobytes()


# sha256 of the little-endian float64 bytes of
# scipy.stats.qmc.Halton(d, scramble=True, seed=seed).random(n), scipy 1.17.1
HALTON_SHA256 = {
    (2, 1000, 0): "424e173401ba2881980b7ed8eddc4480ae9e2ff116af846c88baf36e28cee57e",
    (4, 4096, 7): "6a4b73ac7e28c154e9e118345b7fdbad1baced6fe3045479510bac6cc7c6019d",
    (6, 40000, 20250809):
        "ab5a326b493bcb1c48158fe1ab6a4ee57c96b2e8a583a3d4f802698231d29b24",
    (8, 16, 12345): "d2743b1ef5cc200e6c33e6ca0084a360a3155a999f48ebd4dc6e9d4f0958955d",
    (4, 80000, 1): "9d85e699aab59f5e07cde1dcff1f8b82f12c902dd520595d89661a3f6d0269c3",
}


@pytest.mark.parametrize("d, n, seed", sorted(HALTON_SHA256))
def test_halton_pinned(d, n, seed):
    u = np.ascontiguousarray(_halton(d, n, seed), dtype="<f8")
    assert u.shape == (n, d)
    assert hashlib.sha256(u.tobytes()).hexdigest() == HALTON_SHA256[d, n, seed]


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
    (est,) = epsilon_mass([p("x1", 4), p("x2", 4), p("x3", 4), p("x4", 4)],
                          [4], RegConfig(samples=20000))
    assert abs(est.value - 1.0) < 0.1


# ---------------------------------------------------------------------------
# contour counting
# ---------------------------------------------------------------------------

def test_contour_examples():
    assert contour_root_count(p("x1^3", 1), 1.0) == 3
    assert contour_root_count(p("x1 - 2", 1), 1.0) == 0
    assert contour_root_count(p("x1^2 - 1/2*x1", 1), 1.0) == 2


def test_contour_validation():
    for radius in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(InputError):
            contour_root_count(p("x1 - 2", 1), radius)
    with pytest.raises(InputError):
        contour_root_count(p("0", 1), 1.0)


def test_contour_too_close():
    for text in ("x1 - 1", "x1^2 + 1", "x1 - 3/5 - 4/5*i", "x1^3 - x1^2"):
        with pytest.raises(ContourTooCloseError):
            contour_root_count(p(text, 1), 1.0)


def test_contour_count_is_exact():
    # |a0| = |a_d| (Schur-Cohn's singular case) with no root on the circle
    assert contour_root_count(p("x1^2 - 5/2*x1 + 1", 1), 1.0) == 1
    assert contour_root_count(p("x1^2 + 2*x1 - 1", 1), 1.0) == 1
    assert contour_root_count(p("x1 - 999999999999/1000000000000", 1), 1.0) == 1
    # Fraction(0.85) lies just below 17/20: the roots +-17/20 are outside
    assert contour_root_count(p("x1^2 - 289/400", 1), 0.85) == 0
    assert contour_root_count(p("x1^2 - 289/400", 1), 0.8500000000000001) == 2
    assert contour_root_count(p("x1^4 - 4/5*x1^3", 1), 0.85) == 4


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                min_size=2, max_size=9),
       st.sampled_from([1.0, 0.5, 2.0, 0.85]))
def test_contour_count_matches_numpy_roots(coeffs, radius):
    """Away from the circle, floating-point roots decide the count safely."""
    assume(any(a or b for a, b in coeffs[1:]))
    poly = Polynomial(1, [((e,), Scalar(a, b)) for e, (a, b) in enumerate(coeffs)])
    roots = np.roots([complex(a, b) for a, b in reversed(coeffs)])
    assume(np.all(np.abs(np.abs(roots) - radius) >= 1e-3))
    assert contour_root_count(poly, radius) == np.sum(np.abs(roots) < radius)


def reference_confirm_origin_only_zero(f1: Polynomial, f2: Polynomial,
                                       radius: float) -> bool:
    """numeric.confirm_origin_only_zero before it split off the monomial
    contents, kept verbatim as the reference."""
    for eliminate in (0, 1):
        r = resultant(f1, f2, eliminate)
        if r is None or disk_root_count(r, radius) != 0:
            return False
    return True


def gaussian(bound):
    return st.builds(Scalar, st.integers(-bound, bound),
                     st.integers(-bound, bound))


# a large constant term often keeps a cofactor's zeros out of the disk
cofactors = st.builds(
    lambda terms, c0: Polynomial(2, [*terms.items(), ((0, 0), c0)]),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    gaussian(3), min_size=1, max_size=4),
    gaussian(20) | st.just(Scalar(0)))
exponents = st.integers(0, 2)
contents = st.tuples(st.tuples(exponents, exponents),
                     st.tuples(exponents, exponents)) | st.builds(
    lambda a, b: ((a, 0), (0, b)), exponents, exponents)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(contents, cofactors, cofactors, st.sampled_from([0.5, 1.0, 2.0]))
def test_split_certificate_matches_two_resultants(ms, q1, q2, radius):
    """Shared and disjoint monomial contents, Gaussian coefficients, and the
    zero polynomial when a cofactor cancels out; about a fifth of the
    generated pairs are certified."""
    f1, f2 = (q * Polynomial.monomial(2, m) for m, q in zip(ms, (q1, q2)))
    assert confirm_origin_only_zero(f1, f2, radius) == \
        reference_confirm_origin_only_zero(f1, f2, radius)


def test_general_row_of_degree_40_needs_no_resultant(monkeypatch):
    """(x1^d - 3*x2^(d+1), x1*x2^d) at d = 40: both lines x1 = 0 and x2 = 0
    decide the certificate, and Fulton's count gives d^2 + d + 1."""
    calls = []

    def counting(*args):
        calls.append(args)
        return resultant(*args)

    monkeypatch.setattr(poly, "resultant", counting)
    monkeypatch.setattr(numeric, "resultant", counting)
    ma = compute_Ma(parse_matrix([["x1^40 - 3*x2^41", "x1*x2^40"]], 2),
                    cfg=CFG)
    assert ma[2].describe() == "-1641*[point (0, 0)]"
    assert calls == []


def test_confirm_origin_only_zero():
    # a common factor x1 + x2: the resultant vanishes identically
    assert not confirm_origin_only_zero(p("x1^2 + x1*x2 - x1 - x2"),
                                        p("x1*x2 + x2^2"), 1.0)
    # resultants y^m alone: the origin's own factor is divided out exactly
    assert confirm_origin_only_zero(p("x1^3"), p("x2^2"), 1.0)
    assert not confirm_origin_only_zero(p("x1^2 - 1/10000000*x1"), p("x2"), 1.0)
    # the other common zeros are (-4, -4) and its two rotations: outside
    # the bidisk of radius 1, on the boundary of the closed one of radius 4
    pair = p("x1 + 1/4*x2^2"), p("x2 + 1/4*x1^2")
    assert confirm_origin_only_zero(*pair, 1.0)
    assert confirm_origin_only_zero(*pair, 3.999999999999999)
    assert not confirm_origin_only_zero(*pair, 4.0)


# ---------------------------------------------------------------------------
# local intersection numbers
# ---------------------------------------------------------------------------

def test_perturbation_examples():
    assert perturbation_root_count((p("x1"), p("x2"))) == 1
    assert perturbation_root_count((p("x1^2"), p("x2"))) == 2
    assert perturbation_root_count((p("x1^2 - x2^3"), p("x1*x2"))) == 5
    # no common zero at the origin; two cusps with transverse tangents
    assert perturbation_root_count((p("1 + x1"), p("x2"))) == 0
    assert perturbation_root_count((p("x2^2 - x1^3"), p("x2^3 - x1^2"))) == 4
    # a unit generates the local ring, also beside the zero polynomial
    assert perturbation_root_count((Polynomial.constant(2, 1),
                                    Polynomial.zero(2))) == 0
    assert perturbation_root_count((p("0"), p("2 + x1"))) == 0


@pytest.mark.parametrize("a,b", itertools.product((1, 2, 3), repeat=2))
def test_perturbation_general_rows(a, b):
    # the general-row class of the crosscheck workload: a*b + b + 1
    for c, k in ((1, 1), (7, 9)):
        pair = (p(f"x1^{a} - {c}/4*x2^{b + 1}"), p(f"{k}*x1*x2^{b}"))
        assert perturbation_root_count(pair) == a * b + b + 1


def test_perturbation_common_factor_raises():
    s = p("x1 + x2")
    for pair in ((p("x1*x2"), p("x2")), (p("x2^2"), p("x1*x2")),
                 (s, p("2*x1 + 2*x2")), (s * p("x1"), s * p("x2")),
                 (p("0"), p("x1"))):
        with pytest.raises(NumericalFailureError, match="common factor"):
            perturbation_root_count(pair)


def _pair_terms():
    coeff = st.sampled_from([Scalar(1), Scalar(-2), Scalar(3), Scalar(1, 1),
                             Scalar(0, -1), Scalar(2, -3)])
    return st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              coeff), min_size=1, max_size=4)


def _local_poly(terms):
    # no constant term: every pair meets at the origin
    return Polynomial(2, [(m, c) for m, c in terms if m != (0, 0)])


def _count(f, g):
    try:
        return perturbation_root_count((f, g))
    except NumericalFailureError:
        return None


@given(f=_pair_terms(), g=_pair_terms(), h=_pair_terms(), u=_pair_terms(),
       u0=st.integers(1, 5))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_intersection_number_laws(f, g, h, u, u0):
    f, g, h = _local_poly(f), _local_poly(g), Polynomial(2, h)
    u = _local_poly(u) + u0
    assume(not f.is_zero() and not g.is_zero())
    fg = _count(f, g)
    assume(fg is not None)
    assert _count(g, f) == fg
    assert _count(f, g + h * f) == fg
    assert _count(u * f, g) == fg
    if not h.is_zero():
        fh = _count(f, h)
        if fh is not None:
            assert _count(f, g * h) == fg + fh


# ---------------------------------------------------------------------------
# epsilon masses
# ---------------------------------------------------------------------------

def test_epsilon_mass_cubic():
    (est,) = epsilon_mass([p("x1^3", 1)], [1], CFG)
    assert est.extrapolated
    assert abs(est.value - 3) < 0.02 * 3


def test_epsilon_mass_point():
    (est,) = epsilon_mass([p("x1"), p("x2")], [2], CFG)
    assert abs(est.value - 1) < 0.05


def test_epsilon_mass_nonvanishing():
    (est,) = epsilon_mass([p("x1 + 2"), p("x2 + 2")], [2], CFG)
    assert abs(est.value) <= max(3 * est.stderr, 1e-3)


def test_epsilon_mass_seed_determinism():
    (a,) = epsilon_mass([p("x1"), p("x2")], [2], CFG)
    (b,) = epsilon_mass([p("x1"), p("x2")], [2], CFG)
    assert a.value == b.value and a.per_epsilon == b.per_epsilon
    # one draw for several degrees gives each degree's separate estimate,
    # bit for bit
    G = [p("x1^2 - 3/4*x2^3"), p("x2^2")]
    one, two = (epsilon_mass(G, [k], CFG)[0].to_record() for k in (1, 2))
    assert [m.to_record() for m in epsilon_mass(G, [1, 2], CFG)] == [one, two]
    assert [m.to_record() for m in epsilon_mass(G, (2, 1), CFG)] == [two, one]


def test_epsilon_mass_warns_when_samples_miss_the_zero_set():
    # at radius 1e6 the smallest |G|^2 over the samples is about 789, far
    # above every epsilon, and the mass reads about 0; at radius 1 and 100,
    # 1172 and 14 samples lie below epsilon = 1e-3
    G = [p("x1"), p("x2")]
    for extrapolation in ("RICHARDSON", "NONE"):
        cfg = RegConfig(radius=1e6, extrapolation=extrapolation)
        for est in epsilon_mass(G, [1, 2], cfg):
            assert any("miss the zero set" in w for w in est.warnings)
    for radius in (1.0, 100.0):
        for est in epsilon_mass(G, [1, 2], RegConfig(radius=radius)):
            assert not any("miss the zero set" in w for w in est.warnings)


def test_degenerate_richardson_fit_is_not_extrapolated():
    # every eps^order is 1.0 at order 1e-300 and 0.0 at 1e308: no line to
    # fit, so the last epsilon's value is reported, as with NONE
    G = [p("x1", 1), p("x1^2", 1)]
    cfg = RegConfig(samples=4000, extrapolation="NONE")
    (plain,) = epsilon_mass(G, [1], cfg)
    for order in (1e-300, 1e308):
        (est,) = epsilon_mass(G, [1], replace(
            cfg, extrapolation="RICHARDSON", extrapolation_order=order))
        assert est.to_record() == {**plain.to_record(),
                                   "warnings": ["degenerate extrapolation fit"]}
        assert est.to_record()["extrapolated"] is False


def test_epsilon_mass_k_range():
    for ks in ([3], [0], [1, 3], [3, 1], [2, 0, 1], []):
        with pytest.raises(InputError):
            epsilon_mass([p("x1"), p("x2")], ks, CFG)


def test_gram_density_two_paths():
    # Cauchy-Binet: sum of squared k x k minors of J == det(J J^*) for k = N
    rng = np.random.default_rng(11)
    G = [p("x1^2 - x2^3"), p("x1*x2"), p("x1 + 2*x2^2")]
    jac = [[q.differentiate(j) for j in range(2)] for q in G]
    for _ in range(100):
        z = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
        J = np.array([[jac[i][j].eval_array(z)[0] for j in range(2)]
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
    for point in ([0, 0], [1, 0]):
        assert crofton_moving_multiplicity([factor], VarietyRef.whole_space(),
                                           point, CFG) == 0


def test_crofton_two_slices():
    # one generic slice of each factor: a line and a parabola through 0
    # that meet transversally there; off the common zero they miss the point
    factors = [MovingFactor((p("x1"), p("x2")), 1),
               MovingFactor((p("x1^2"), p("x2")), 1)]
    whole = VarietyRef.whole_space()
    assert crofton_moving_multiplicity(factors, whole, [0, 0], CFG) == 1
    assert crofton_moving_multiplicity(factors, whole, [0, 1], CFG) == 0


def test_crofton_two_slices_off_the_origin():
    # the pair of test_crofton_two_slices moved to (1, 0): the arguments are
    # translated once, then every slice is taken at the origin
    factors = [MovingFactor((p("x1 - 1"), p("x2")), 1),
               MovingFactor((p("x1^2 - 2*x1 + 1"), p("x2")), 1)]
    whole = VarietyRef.whole_space()
    assert crofton_moving_multiplicity(factors, whole, [1, 0], CFG) == 1
    assert crofton_moving_multiplicity(factors, whole, [0, 0], CFG) == 0
    square = MovingFactor((p("x1 - 1"), p("x2 + 2")), 2)
    assert crofton_moving_multiplicity([square], whole, [1, -2], CFG) == 0


def test_crofton_subspace_restriction():
    factor = MovingFactor((p("x1", 3), p("x2", 3)), 1)
    sub = VarietyRef.coordinate_subspace([2])
    assert crofton_moving_multiplicity([factor], sub, [0, 0, 0], CFG) == 1
    assert crofton_moving_multiplicity([factor], sub, [0, 0, 1], CFG) == 0


def test_crofton_ignores_weights():
    # positive weights do not change a Lelong number: a power-1 factor of
    # order 2, and a power-2 factor whose Newton covolume is 2 * 5/2
    whole = VarietyRef.whole_space()
    for args, power, want in ((("x1^2", "x2^3"), 1, 2),
                              (("x1^2", "x1*x2", "x2^3"), 2, 5)):
        args = tuple(p(a) for a in args)
        for weights in ((), (2, "1/3", 7)[:len(args)]):
            factor = MovingFactor(args, power, weights)
            assert crofton_moving_multiplicity([factor], whole, [0, 0],
                                               CFG) == want, weights


def test_crofton_higher_order_divisor():
    factor = MovingFactor((p("x1^2"), p("x2^2")), 1)
    assert crofton_moving_multiplicity([factor], VarietyRef.whole_space(),
                                       [0, 0], CFG) == 2


def test_crofton_order_is_exact():
    # M_1 of the row (2 x1^2, 8 x1 x2^2) is [x1=0] plus a moving term whose
    # reduced arguments (2 x1, 8 x2^2) give a generic slice of order 1 at 0;
    # the order is exact, so no seed may leave it undecided (which would
    # drop the row from a comparison block)
    M1 = compute_Mg(parse_matrix([["2*x1^2", "8*x1*x2^2"]], 2)).M[1]
    (term,) = [t for t in M1.terms if t.moving]
    assert multiplicity_at(M1, [0, 0]) == 2
    for seed in range(50):
        cfg = RegConfig(seed=seed)
        assert crofton_moving_multiplicity(list(term.moving), term.fixed,
                                           [0, 0], cfg) == 1
        assert _numeric_multiplicity(M1, [0, 0], cfg) == 2


@st.composite
def coprime_monomial_rows(draw):
    """(row of monomial texts, n): a common factor times pairwise-coprime
    monomials (each variable in one of them), in 2 or 3 variables."""
    n = draw(st.integers(2, 3))
    r = draw(st.integers(2, 3))
    names = [f"x{v + 1}" for v in range(n)]
    owners = draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n))
    common = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    row = []
    for slot in range(r):
        exps = [common[v] + (draw(st.integers(1, 2)) if owners[v] == slot
                             else 0) for v in range(n)]
        row.append("*".join(f"{x}^{e}" for x, e in zip(names, exps) if e)
                   or "1")
    return row, n


def _has_common_factor(g):
    return any(strip_common_factor([g.entries[i][j]
                                    for i, j in g.nonzero_positions()])[0])


@given(coprime_monomial_rows().map(
           lambda row_n: parse_matrix([row_n[0]], row_n[1]))
       | st.integers(0, 2 ** 16).map(
           lambda seed: _random_diag_monomial(random.Random(seed))).filter(
           _has_common_factor))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_crofton_matches_exact_rule_on_coprime_rows(g):
    # every moving term of M_k through the Crofton oracle (the comparison
    # block's count) against the exact order rule, at grid points and for
    # seeds 0-19; a term outside the oracle's rules leaves a count undecided.
    # A diagonal's common factor puts moving terms on [x_v = 0], so both
    # rules restrict and renumber the arguments there
    res = compute_Mg(g)
    decided = 0
    for k, cyc in enumerate(res.M):
        if not any(t.moving for t in cyc.terms):
            continue
        for pt in _grid(g.nvars)[::3]:
            try:
                exact = multiplicity_at(cyc, pt)
            except UndecidedError:
                continue  # a moving power with no exact rule
            for seed in range(20):
                got = _numeric_multiplicity(cyc, pt, RegConfig(seed=seed))
                assert got in (None, exact), (g, k, pt, seed, got, exact)
                decided += got is not None
    assume(decided)


@st.composite
def shifted_polynomials(draw):
    """(p, c, x): a polynomial in 1-3 variables, a shift c and a point x,
    all with Gaussian-rational coefficients."""
    n = draw(st.integers(1, 3))
    part = st.fractions(-3, 3, max_denominator=4)
    gauss = st.builds(Scalar, part, part)
    terms = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 4)] * n),
                                    gauss), max_size=5))
    c, x = (draw(st.lists(gauss, min_size=n, max_size=n)) for _ in range(2))
    return Polynomial(n, terms), c, x


def exact_value(poly, point):
    """The value of ``poly`` at a point of Scalars, term by term."""
    acc = Scalar(0)
    for m, c in poly.terms.items():
        for x, e in zip(point, m):
            for _ in range(e):
                c = c * x
        acc = acc + c
    return acc


@given(shifted_polynomials())
@settings(max_examples=100, deadline=None, derandomize=True)
# exponents near 60 at the shift (2, 1 + i), past the drawn exponents <= 4:
# the binomial rows of _translate come from a recurrence
@example((Polynomial(2, {(60, 0): 1, (3, 59): Scalar(1, -1), (0, 0): 5}),
          [Scalar(2), Scalar(1, 1)], [Scalar(Fraction(1, 2)), Scalar(0, 1)]))
def test_translate_evaluates_at_the_shifted_point(pcx):
    poly, c, x = pcx
    assert exact_value(_translate(poly, c), x) == \
        exact_value(poly, [a + b for a, b in zip(x, c)])


def test_crofton_undecided():
    factor = MovingFactor((p("x1", 3), p("x2", 3), p("x3", 3)), 2)
    with pytest.raises(UndecidedError):
        crofton_moving_multiplicity([factor], VarietyRef.whole_space(),
                                    [0, 0, 0], CFG)


# ---------------------------------------------------------------------------
# mass balance
# ---------------------------------------------------------------------------

def test_mass_balance_examples():
    res = mass_balance_check(parse_matrix([["x1^2", "0"], ["0", "x1"]], 1),
                             CFG)
    assert res.det_count == 3 and res.passed
    res = mass_balance_check(parse_matrix([["x1", "0"], ["0", "x1"]], 1), CFG)
    assert res.det_count == 2 and res.passed
    res = mass_balance_check(
        parse_matrix([["x1 + 2", "0"], ["0", "x1 + 3"]], 1), CFG)
    assert res.det_count == 0 and abs(res.numeric_mass) < 0.05 and res.passed


def test_mass_balance_validation():
    with pytest.raises(InputError):
        mass_balance_check(parse_matrix([["x1", "x1"]], 1), CFG)
    with pytest.raises(InputError):
        mass_balance_check(parse_matrix([["x1", "0"], ["0", "0"]], 1), CFG)
    with pytest.raises(InputError):
        mass_balance_check(parse_matrix([["x1", "0"], ["0", "x2"]], 2), CFG)


def _wedge_coeff_reference(mats):
    """The permutation sum mass_balance_check used before _wedges, kept
    verbatim (with its sign helper) as the reference."""
    N = len(mats[0])
    first = next(v for row in mats[0] for v in row if v is not None)
    acc = np.zeros(first.shape, dtype=complex)
    for pa in itertools.permutations(range(N)):
        sa = _perm_sign_reference(pa)
        for pb in itertools.permutations(range(N)):
            sb = _perm_sign_reference(pb)
            prod = None
            for t in range(N):
                entry = mats[t][pa[t]][pb[t]]
                prod = entry if prod is None else prod * entry
            acc += sa * sb * prod
    return acc


def _perm_sign_reference(p):
    sign, seen = 1, set()
    for i in range(len(p)):
        if i in seen:
            continue
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _close(got, ref, rel=1e-12):
    got, ref = np.broadcast_to(got, np.shape(ref)), np.asarray(ref)
    return np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_wedges_match_permutation_sum(N):
    rng = np.random.default_rng(N)

    def stack():
        return [[rng.normal(size=300) + 1j * rng.normal(size=300)
                 for _ in range(N)] for _ in range(N)]

    A, B = stack(), stack()
    got = _wedges(A, B)
    assert len(got) == N
    for j in range(N):
        assert _close(got[j], _wedge_coeff_reference([A] * (j + 1)
                                                     + [B] * (N - 1 - j)))


def _laplace_reference(jac, rows, cols):
    """_batch_minor_dets before it skipped scalar-0 terms, kept verbatim as
    the reference."""
    if len(rows) == 1:
        return jac[rows[0]][cols[0]]
    acc = None
    for j, c in enumerate(cols):
        t = jac[rows[0]][c] * _laplace_reference(jac, rows[1:],
                                                 cols[:j] + cols[j + 1:])
        acc = t if acc is None else acc - t if j % 2 else acc + t
    return acc


@pytest.mark.parametrize("N", [2, 3, 4])
def test_wedges_skip_scalar_zero_rows_exactly(N):
    """B shaped like the log P Hessian: its base row and column are the
    scalar 0.  The skipped terms are exact zeros, so every bit stays."""
    rng = np.random.default_rng(10 + N)

    def stack():
        return [[rng.normal(size=300) + 1j * rng.normal(size=300)
                 for _ in range(N)] for _ in range(N)]

    A, B = stack(), stack()
    B[0] = [0.0] * N
    for a in range(1, N):
        B[a][0] = np.conj(0.0)
    full = tuple(range(N))
    got = _wedges(A, B)
    for j in full:
        ref = sum(_laplace_reference([A[a] if a in S else B[a] for a in full],
                                     full, full)
                  for S in itertools.combinations(full, j + 1))
        assert np.array_equal(got[j], ref * (math.factorial(j + 1)
                                             * math.factorial(N - 1 - j)))


def _chart_hessians_reference(g, chart, z):
    """_chart_hessians before it shared the powers of P and skipped the
    vanishing terms, kept verbatim as the reference, with the body of the
    lift it called (poly._lift_entries) written out and the removed
    Polynomial.substitute_one as ``test_space.substitute_one``."""
    n, r = g.nvars, g.cols
    N = n + r - 1
    mapping = list(range(n))
    slot = n
    for j in range(r):
        if j == chart:
            mapping.append(-1)
        else:
            mapping.append(slot)
            slot += 1
    lifted = []  # poly._lift_entries: the rows of G = g*alpha
    for row in g.entries:
        acc = Polynomial.zero(n + r)
        for j in range(r):
            if not row[j].is_zero():
                acc = acc + row[j].map_variables(range(n), n + r) \
                    * Polynomial.variable(n + r, n + j)
        lifted.append(acc)
    safe_mapping = [m if m >= 0 else 0 for m in mapping]
    rows = [substitute_one(p, n + chart).map_variables(safe_mapping, N)
            for p in lifted if not p.is_zero()]
    vals = [p.eval_array(z) for p in rows]
    grads = [[p.differentiate(a).eval_array(z) for a in range(N)] for p in rows]
    Q = np.zeros(len(z))
    for v in vals:
        Q += np.abs(v) ** 2
    P = np.ones(len(z))
    for a in range(n, N):
        P += np.abs(z[:, a]) ** 2
    DQ = [sum(grads[i][a] * np.conj(vals[i]) for i in range(len(rows)))
          for a in range(N)]
    Pd = [np.conj(z[:, a]) if a >= n else np.zeros(len(z), dtype=complex)
          for a in range(N)]
    HQ = [[sum(grads[i][a] * np.conj(grads[i][b]) for i in range(len(rows)))
           for b in range(N)] for a in range(N)]
    Hf = [[None] * N for _ in range(N)]
    Hlog = [[None] * N for _ in range(N)]
    for a in range(N):
        for b in range(N):
            hp = (1.0 if (a == b and a >= n) else 0.0)
            Hf[a][b] = (HQ[a][b] / P
                        - np.conj(DQ[b]) * Pd[a] / P ** 2
                        - DQ[a] * np.conj(Pd[b]) / P ** 2
                        - Q * hp / P ** 2
                        + 2 * Q * np.conj(Pd[b]) * Pd[a] / P ** 3)
            Hlog[a][b] = (hp * P - Pd[a] * np.conj(Pd[b])) / P ** 2
    g2 = Q / P
    return Hf, Hlog, g2


def _chart_hessians_per_chart(n: int, rows, grads, z):
    """_chart_hessians before the charts shared _fiber_pieces, kept verbatim
    as the reference: every chart forms P, w and the log P Hessian itself."""
    N = z.shape[1]
    vals = [p.eval_array(z) for p in rows]
    grads = [{a: d.eval_array(z) for a, d in gr.items()} for gr in grads]
    Q = np.zeros(len(z))
    for v in vals:
        Q += np.abs(v) ** 2
    P = np.ones(len(z))
    for a in range(n, N):
        P += np.abs(z[:, a]) ** 2
    inv = 1.0 / P
    g2 = Q * inv
    # the temporary first (see the module docstring)
    DQ = [sum(np.conj(v) * gr[a] for gr, v in zip(grads, vals) if a in gr)
          for a in range(N)]
    # P depends on the fiber coordinates u alone: with w_b = u_b / P,
    # d_a dbar_b log P = (delta_ab - conj(w_a) w_b) / P there, and every
    # P-derivative vanishes on the base coordinates (Hlog entries 0)
    w = {b: z[:, b] * inv for b in range(n, N)}
    Hf = [[None] * N for _ in range(N)]
    Hlog = [[0.0] * N for _ in range(N)]
    for a in range(N):
        for b in range(a, N):  # both Hessians are Hermitian
            h = sum(np.conj(gr[b]) * gr[a] for gr in grads
                    if a in gr and b in gr) * inv
            if b >= n:
                h = h - DQ[a] * w[b] * inv
            if a >= n:
                ww = np.conj(w[a]) * w[b]
                h = h - np.conj(DQ[b] * w[a]) * inv + 2 * g2 * ww
                Hlog[a][b] = -ww
                if a == b:
                    h = h - g2 * inv
                    Hlog[a][b] = Hlog[a][b] + inv
            Hf[a][b] = h
            if b > a:
                Hf[b][a], Hlog[b][a] = np.conj(h), np.conj(Hlog[a][b])
    return Hf, Hlog, g2


CHART_MATRICES = [
    [["x1^2", "0"], ["0", "x1^3"]],
    [["x1 + 2", "1/2*x1"], ["i*x1^2", "x1 - 1/3"]],
    [["x1^2", "0", "0"], ["0", "x1", "0"], ["0", "0", "x1^3"]],
    [["x1", "1", "0"], ["0", "x1^2", "2*i"], ["x1^3", "0", "x1 + 1"]],
]


@pytest.mark.parametrize("rows", CHART_MATRICES)
def test_chart_hessians_match_reference(rows):
    g = parse_matrix(rows, 1)
    r = g.cols
    z, _w = _draw(RegConfig(samples=2000, seed=r),
                  [(1.0, 2.0)] + [(1.0, 0.5)] * (r - 1))
    fiber = _fiber_pieces(g.nvars, z)
    for chart in range(r):
        Hf, Hlog, g2 = _chart_hessians(g.nvars, *_chart_rows(g, chart), z,
                                       fiber)
        Hf_ref, Hlog_ref, g2_ref = _chart_hessians_reference(g, chart, z)
        assert _close(g2, g2_ref)
        for got, ref in ((Hf, Hf_ref), (Hlog, Hlog_ref)):
            for a in range(r):
                for b in range(r):
                    assert _close(got[a][b], ref[a][b]), (chart, a, b)


# 16,384 complex or 32,768 real samples reach the 256 KiB from which numpy
# computes a product in place, into its temporary
@pytest.mark.parametrize("samples", [16, 4099, 32768, 40000])
@pytest.mark.parametrize("rows", CHART_MATRICES)
def test_shared_fiber_pieces_change_no_bit(rows, samples):
    g = parse_matrix(rows, 1)
    r = g.cols
    z, _w = _draw(RegConfig(samples=samples, seed=samples + r),
                  [(1.0, 2.0)] + [(1.0, 0.5)] * (r - 1))
    fiber = _fiber_pieces(g.nvars, z)
    for chart in range(r):
        Hf, Hlog, g2 = _chart_hessians(g.nvars, *_chart_rows(g, chart), z,
                                       fiber)
        Hf_ref, Hlog_ref, g2_ref = _chart_hessians_per_chart(
            g.nvars, *_chart_rows(g, chart), z)
        assert np.array_equal(g2, g2_ref)
        for got, ref in ((Hf, Hf_ref), (Hlog, Hlog_ref)):
            for a in range(r):
                for b in range(r):
                    assert np.array_equal(got[a][b], ref[a][b]), (chart, a, b)


def test_a_half_holds_one_charts_hessians_at_a_time(monkeypatch):
    """When a thread builds chart c + 1's Hessians, no Hf array it returned
    for chart c is alive; the log P entries are the half's, not a chart's."""
    last = {}  # thread id -> weak references to its last chart's Hf arrays
    alive = []

    def tracked(*args):
        refs = last.get(threading.get_ident())
        if refs is not None:
            alive.append(sum(ref() is not None for ref in refs))
        Hf, Hlog, g2 = _chart_hessians(*args)
        last[threading.get_ident()] = [weakref.ref(h) for row in Hf
                                       for h in row]
        return Hf, Hlog, g2

    monkeypatch.setattr(numeric, "_chart_hessians", tracked)
    g = parse_matrix([["x1^2", "0", "0"], ["0", "x1", "0"],
                      ["0", "0", "x1^3"]], 1)
    mass_balance_check(g, RegConfig(samples=4000))
    assert len(last) == 2 and alive == [0] * 4  # two threads, three charts


def test_comparability_numeric_mass():
    # pre/post-composing with constant invertible matrices leaves the degree-1
    # mass over the disk (the sum of multiplicities there) unchanged
    from segre_kit.poly import Polynomial

    g = parse_matrix([["x1^2", "0"], ["0", "x1"]], 1)
    C = [[p("1", 1), p("1/2", 1)], [p("0", 1), p("1", 1)]]
    D = [[p("1", 1), p("0", 1)], [p("i", 1), p("1", 1)]]

    def matmul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(2)),
                     Polynomial.zero(1)) for j in range(2)] for i in range(2)]

    composed = PolyMatrix(matmul(matmul(C, list(map(list, g.entries))), D))
    res = mass_balance_check(composed, replace(CFG, samples=60000))
    assert res.det_count == 3
    assert abs(res.numeric_mass - 3) < 0.1


def test_mass_balance_fractional_order_knob():
    # the degenerate entry x1^2 leaves a half-order epsilon tail; the
    # extrapolation-order knob absorbs it
    g = parse_matrix([["x1^2", "0"], ["0", "x1"]], 1)
    res = mass_balance_check(g, replace(CFG, extrapolation_order=0.5,
                                        samples=60000))
    assert res.det_count == 3
    assert abs(res.numeric_mass - 3) < 0.03


def test_exact_top_segre_matches_oracles_random():
    # column pairs (x1^a, x2^b): exact top multiplicity a*b must agree with
    # the perturbation count and the epsilon mass
    import numpy as np

    rng = np.random.default_rng(5)
    for _ in range(4):
        a, b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        col = PolyMatrix([[p(f"x1^{a}")], [p(f"x2^{b}")]])
        res = compute_Mg(col)
        exact = multiplicity_at(res.M[2], [0, 0])
        assert exact == a * b
        pair = (p(f"x1^{a}"), p(f"x2^{b}"))
        assert perturbation_root_count(pair) == a * b
        (est,) = epsilon_mass(pair, [2], CFG)
        assert round(est.value) == a * b and abs(est.value - a * b) < 0.05 * a * b


# ---------------------------------------------------------------------------
# the two halves: the mass work split after error block _BLOCKS // 2
# ---------------------------------------------------------------------------

def _chart_hessians_whole(g, chart, z):
    """_chart_hessians as the serial bodies below called it, on all of z."""
    return _chart_hessians_per_chart(g.nvars, *_chart_rows(g, chart), z)


def _require_finite_reference(density, z):
    import numpy as np

    if not np.all(np.isfinite(density)):
        bad = int(np.argmax(~np.isfinite(density)))
        raise NumericalFailureError("non-finite integrand sample",
                                    location=z[bad].tolist())


def _epsilon_table_reference(g2, density, weight, power, cfg: RegConfig):
    """Per-epsilon blocked sample means of eps/(g2+eps)^power * density *
    weight and their standard errors (over _BLOCKS equal blocks)."""
    import numpy as np

    per_eps, stderrs = [], []
    for eps in cfg.epsilon_schedule:
        values = eps / (g2 + eps) ** power * density * weight
        m = len(values) // _BLOCKS * _BLOCKS
        chunk = values[:m].reshape(_BLOCKS, -1).mean(axis=1)
        per_eps.append((eps, float(np.mean(chunk))))
        stderrs.append(float(np.std(chunk) / math.sqrt(_BLOCKS)))
    return per_eps, stderrs


def _epsilon_mass_reference(G: Sequence[Polynomial], ks: Sequence[int],
                            cfg: Optional[RegConfig] = None
                            ) -> List[MassEstimate]:
    """The serial epsilon_mass before the two halves, kept verbatim as the
    reference (helpers renamed to their references)."""
    import numpy as np

    cfg = cfg or RegConfig()
    G = [p for p in G]
    N = G[0].nvars
    if any(p.nvars != N for p in G):
        raise InputError("tuple entries live in different ambient dimensions")
    ks = list(ks)
    if not ks or not all(1 <= k <= N for k in ks):
        raise InputError(f"degrees k = {ks} must be a nonempty list in 1..{N}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z, weight = _draw(cfg, [(cfg.radius, 2.0)] * N)
        vals = [p.eval_array(z) for p in G]
        g2 = np.zeros(len(z))
        for v in vals:
            g2 += np.abs(v) ** 2
        # a derivative that vanishes identically stays the scalar 0 (no term)
        jac = [[0.0 if (d := p.differentiate(j)).is_zero() else d.eval_array(z)
                for j in range(N)] for p in G]
        out = []
        for k in ks:
            density = np.zeros(len(z))
            for rows in itertools.combinations(range(len(G)), k):
                for cols in itertools.combinations(range(N), k):
                    density += np.abs(_batch_minor_dets(jac, rows, cols)) ** 2
            density *= math.factorial(k) / math.pi ** k
            _require_finite_reference(density, z)
            if np.any(density < 0):
                raise NumericalFailureError(
                    "negative integrand sample in epsilon_mass")
            out.append(_limit(*_epsilon_table_reference(g2, density, weight,
                                                        k + 1, cfg), cfg))
        if not np.any(g2 <= cfg.epsilon_schedule[-1]):
            for est in out:
                est.warnings.append("no sample has |G|^2 <= the smallest "
                                    "epsilon: the samples miss the zero set")
    return out


def _mass_balance_check_reference(g: PolyMatrix,
                                  cfg: Optional[RegConfig] = None
                                  ) -> MassBalanceResult:
    """The serial mass_balance_check before the two halves, kept verbatim as
    the reference (helpers renamed to their references)."""
    import numpy as np

    cfg = cfg or RegConfig()
    if g.nvars != 1:
        raise InputError("mass_balance_check works over one base variable")
    if g.rows != g.cols:
        raise InputError("mass_balance_check needs a square matrix")
    det = determinant(g)
    if det.is_zero():
        raise InputError("det g is identically zero")
    radius = cfg.radius
    det_count = None
    for _ in range(6):
        try:
            det_count = contour_root_count(det, radius)
            break
        except ContourTooCloseError:
            radius *= 0.85
    if det_count is None:
        raise ContourTooCloseError("could not place the contour off the zeros")

    r = g.cols
    N = 1 + (r - 1)
    run_cfg = replace(cfg, radius=radius) if radius != cfg.radius else cfg
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        per_eps_total = np.zeros(len(cfg.epsilon_schedule))
        stderr_total = np.zeros(len(cfg.epsilon_schedule))
        details = []
        # the base coordinate over the disk of the contour radius, radially
        # concentrated; the fiber chart coordinates uniform over unit disks
        # (the a.e. partition of P^{r-1} by max-modulus charts)
        z, weight = _draw(run_cfg, [(radius, 2.0)] + [(1.0, 0.5)] * (N - 1))
        for chart in range(r):
            Hf, Hlog, g2 = _chart_hessians_whole(g, chart, z)
            for j, wedge in enumerate(_wedges(Hf, Hlog)):
                wedge = wedge / (2 * math.pi) ** N
                if np.max(np.abs(wedge.imag)) > \
                        1e-6 * (1 + np.max(np.abs(wedge.real))):
                    raise NumericalFailureError("wedge coefficient not real")
                density = wedge.real * 2 ** N
                _require_finite_reference(density, z)
                coeff = math.comb(r, j + 1)
                table, stderrs = _epsilon_table_reference(g2, density, weight,
                                                          j + 2, cfg)
                per = [(eps, coeff * val) for eps, val in table]
                per_eps_total += [val for _eps, val in per]
                stderr_total += coeff * np.array(stderrs)
                details.append(MassEstimate(per[-1][1], coeff * stderrs[-1],
                                            per, False, []))
        per_eps = [(eps, float(per_eps_total[i]))
                   for i, eps in enumerate(cfg.epsilon_schedule)]
        mass = _limit(per_eps, list(stderr_total), cfg).value
    passed = bool(abs(mass - det_count) < 0.1)
    return MassBalanceResult(float(mass), det_count, passed, radius, details)


def _bits(result):
    """Every float of a MassEstimate or MassBalanceResult, in one array."""
    if isinstance(result, MassBalanceResult):
        return np.concatenate([[result.numeric_mass, result.det_count,
                                result.radius, result.passed]]
                              + [_bits(m) for m in result.detail])
    return np.array([result.value, result.stderr, result.extrapolated]
                    + [x for pair in result.per_epsilon for x in pair])


SPLIT_TUPLES = [
    (["x1^2 - 3/4*x2^3", "x2^2"], 2, [1, 2]),
    (["x1 + i*x3^2", "x2^3", "x3 - x1*x2"], 3, [3, 1, 2]),
    (["x1^3"], 1, [1]),
]
SPLIT_MATRICES = [
    [["x1^2", "0"], ["0", "x1^3"]],
    [["x1 + 2", "1/2*x1"], ["i*x1^2", "x1 - 1/3"]],
    [["x1", "0", "0"], ["0", "x1^2", "0"], ["0", "0", "x1"]],
]


# at 16,384 samples and more a whole draw's complex temporaries reach the
# 256 KiB where numpy computes a product in place, into its temporary; from
# 32,768 on, a half's do too
@pytest.mark.parametrize("samples", [16, 17, 1000, 4099, 24000, 30000, 32768,
                                     40000])
def test_two_halves_change_no_bit(samples):
    cfg = RegConfig(samples=samples, seed=samples + 5)
    for texts, n, ks in SPLIT_TUPLES:
        G = [p(t, n) for t in texts]
        got, ref = epsilon_mass(G, ks, cfg), _epsilon_mass_reference(G, ks, cfg)
        assert len(got) == len(ref) == len(ks)
        for a, b in zip(got, ref):
            assert np.array_equal(_bits(a), _bits(b)), (texts, samples)
            assert a.warnings == b.warnings
    for rows in SPLIT_MATRICES:
        got = mass_balance_check(parse_matrix(rows, 1), cfg)
        ref = _mass_balance_check_reference(parse_matrix(rows, 1), cfg)
        assert np.array_equal(_bits(got), _bits(ref)), (rows, samples)


def test_two_halves_keep_the_warning_and_the_shrunk_radius():
    # no sample reaches |G|^2 <= 1e-3 at radius 1e6; a zero of det g on the
    # unit circle shrinks the radius to 0.85 before sampling
    G = [p("x1"), p("x2")]
    cfg = RegConfig(radius=1e6, samples=4099)
    for a, b in zip(epsilon_mass(G, [1, 2], cfg),
                    _epsilon_mass_reference(G, [1, 2], cfg)):
        assert a.warnings == b.warnings and "miss the zero set" in a.warnings[0]
        assert np.array_equal(_bits(a), _bits(b))
    # at radius 100 only sample 1812 has |G|^2 <= 1e-3 among the first 4000:
    # in the first half of 4000 samples, in the second half of 3000
    for samples, half in ((4000, 0), (3000, 1)):
        cfg = RegConfig(radius=100.0, samples=samples)
        z, _w = _draw(cfg, [(100.0, 2.0)] * 2)
        assert list(np.nonzero(np.sum(np.abs(z) ** 2, axis=1) <= 1e-3)[0]) \
            == [1812]
        assert (1812 >= samples // _BLOCKS * (_BLOCKS // 2)) == half
        for est in epsilon_mass(G, [1, 2], cfg):
            assert est.warnings == []
    g = parse_matrix([["x1 - 1", "0"], ["0", "x1"]], 1)
    cfg = RegConfig(samples=4099)
    got = mass_balance_check(g, cfg)
    assert got.radius == 0.85
    assert np.array_equal(_bits(got), _bits(_mass_balance_check_reference(g, cfg)))


def _planted(monkeypatch, at):
    """Let _disk_samples, in numeric and in the references here, put the
    point x1 = 1e200 at the given sample indices, where the derivative
    3 x1^2 of x1^3 overflows.  The indices count in the whole draw: a half
    of it is a view of its rows, found from its offset in the draw over its
    own row stride (which holds for a draw of either memory layout)."""
    real = numeric._disk_samples

    def planted(u, coords):
        z, weight = real(u, coords)
        draw = u if u.base is None else u.base
        start = (u.ctypes.data - draw.ctypes.data) // u.strides[0]
        z[[i - start for i in at if start <= i < start + len(u)], 0] = 1e200
        return z, weight

    monkeypatch.setattr(numeric, "_disk_samples", planted)
    monkeypatch.setitem(globals(), "_disk_samples", planted)


# with 4099 samples the blocks hold 256 samples: the first half is 0..2047,
# the second 2048..4098, and the samples 4096..4098 lie past the last block
@pytest.mark.parametrize("at, reported", [
    ((3000,), 3000), ((4097,), 4097), ((2048,), 2048), ((3000, 2047), 2047),
    ((5, 3000), 5), ((100, 7), 7)])
def test_non_finite_sample_reported_as_before(monkeypatch, at, reported):
    cfg = RegConfig(samples=4099, seed=3)
    _planted(monkeypatch, at)
    G = [p("x1^3"), p("x2")]
    locations = []
    for mass in (epsilon_mass, _epsilon_mass_reference):
        with pytest.raises(NumericalFailureError,
                           match="non-finite integrand sample") as exc:
            mass(G, [1, 2], cfg)
        locations.append(exc.value.location)
    monkeypatch.undo()
    z, _w = _draw(cfg, [(1.0, 2.0)] * 2)
    z[list(at), 0] = 1e200
    assert locations[0] == locations[1] == z[reported].tolist()
    assert locations[0][0] == 1e200


def test_non_finite_sample_in_the_mass_balance(monkeypatch):
    cfg = RegConfig(samples=4099, seed=3)
    g = parse_matrix([["x1^3", "0"], ["0", "x1"]], 1)
    z, _w = _draw(cfg, [(1.0, 2.0), (1.0, 0.5)])
    z[[1000, 3000], 0] = 1e200
    for at, reported in (((3000,), 3000), ((3000, 1000), 1000)):
        monkeypatch.undo()
        _planted(monkeypatch, at)
        for check in (mass_balance_check, _mass_balance_check_reference):
            with pytest.raises(NumericalFailureError,
                               match="non-finite integrand sample") as exc:
                check(g, cfg)
            assert exc.value.location == z[reported].tolist()


def _wedges_planting(monkeypatch, imaginary_in, large_real_in):
    """Add i to one wedge sample of the half of length ``imaginary_in``,
    and 1e7 to one of the half of length ``large_real_in`` (both after the
    division by (2 pi)^N): the imaginary part then passes only against the
    largest real part over all samples."""
    real = numeric._wedges

    def planted(A, B):
        out = real(A, B)
        scale = (2 * math.pi) ** len(A)
        half = len(A[0][0])
        if half == imaginary_in:
            out[0] = out[0] + 0.0j
            out[0][0] += 1j * scale
        if half == large_real_in:
            out[0] = out[0] + 0.0j
            out[0][1] += 1e7 * scale
        return out

    monkeypatch.setattr(numeric, "_wedges", planted)


@pytest.mark.parametrize("imaginary_in, large_real_in, raises", [
    (2048, None, True), (2051, None, True),
    (2048, 2051, False), (2051, 2048, False)])
def test_wedge_reality_decided_over_all_samples(monkeypatch, imaginary_in,
                                                large_real_in, raises):
    # 4099 samples: the first half holds 2048 samples, the second 2051
    _wedges_planting(monkeypatch, imaginary_in, large_real_in)
    g = parse_matrix([["x1^2", "0"], ["0", "x1"]], 1)
    if raises:
        with pytest.raises(NumericalFailureError,
                           match="wedge coefficient not real"):
            mass_balance_check(g, RegConfig(samples=4099))
    else:
        mass_balance_check(g, RegConfig(samples=4099))


def test_every_call_joins_its_worker(monkeypatch):
    before = threading.active_count()
    epsilon_mass([p("x1"), p("x2")], [1, 2], RegConfig(samples=1000))
    mass_balance_check(parse_matrix([["x1^2", "0"], ["0", "x1"]], 1),
                       RegConfig(samples=1000))
    assert threading.active_count() == before
    _planted(monkeypatch, (700,))
    with pytest.raises(NumericalFailureError):
        epsilon_mass([p("x1^3"), p("x2")], [1], RegConfig(samples=1000))
    assert threading.active_count() == before
    # an exception inside either half's work reaches the caller after the
    # join, the calling thread's first when both raise; 1000 samples cut
    # into 496 and 504
    cfg, coords = RegConfig(samples=1000), [(1.0, 2.0)]
    for failing in ((0,), (1,), (0, 1)):
        def work(z, _weight, failing=failing):
            part = {496: 0, 504: 1}[len(z)]
            if part in failing:
                raise ValueError(part)
            return part

        with pytest.raises(ValueError) as exc:
            numeric._sample_halves(work, cfg, coords)
        assert exc.value.args == (failing[0],)
        assert threading.active_count() == before
    assert numeric._sample_halves(lambda z, _w: len(z), cfg, coords) \
        == (496, 504)


def test_concurrent_calls_under_a_short_switch_interval():
    # four callers at once (eight threads on fewer cores), switching every
    # microsecond: a lost or misplaced write to a shared array would change
    # some bit
    cfg = RegConfig(samples=1000, seed=9)
    G = [p("x1^2 - 3/4*x2^3"), p("x2^2")]
    g = parse_matrix([["x1^2", "0"], ["0", "x1^3"]], 1)
    expected = ([_bits(m) for m in _epsilon_mass_reference(G, [1, 2], cfg)],
                _bits(_mass_balance_check_reference(g, cfg)))
    results = [None] * 4

    def call(i):
        results[i] = ([_bits(m) for m in epsilon_mass(G, [1, 2], cfg)],
                      _bits(mass_balance_check(g, cfg)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in callers)
    for masses, balance in results:
        assert all(map(np.array_equal, masses, expected[0]))
        assert np.array_equal(balance, expected[1])


def test_worker_runs_under_the_callers_errstate():
    # numpy's errstate lives in the context, which a new thread does not
    # inherit by itself
    def state(_z, _weight):
        return np.geterr()["over"]

    cfg, coords = RegConfig(samples=1000), [(1.0, 2.0)]
    with np.errstate(over="ignore"):
        assert numeric._sample_halves(state, cfg, coords) \
            == ("ignore", "ignore")
    with np.errstate(over="raise"):
        assert numeric._sample_halves(state, cfg, coords) \
            == ("raise", "raise")


def test_halves_cut_after_the_middle_block():
    # the halves are the rows 0..8 * size and 8 * size..n of the whole draw
    coords = [(0.7, 2.0), (1.0, 0.5)]
    for n in (16, 17, 31, 32, 1000, 4099, 40000):
        cfg = RegConfig(samples=n, seed=n)
        z, weight = _draw(cfg, coords)
        first, second = numeric._sample_halves(lambda *half: half, cfg, coords)
        cut = n // 16 * 8
        for got, rows in ((first, slice(0, cut)), (second, slice(cut, n))):
            assert np.array_equal(got[0], z[rows])
            assert np.array_equal(got[1], weight[rows])
