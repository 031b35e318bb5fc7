"""The golden corpus: worked examples, the paper's invariance statements and,
unless numerics are skipped, the M^a and numeric oracle cross-checks."""

from __future__ import annotations

import random
import time
from typing import List, Tuple

from segre_kit.cycles import (
    GeneralizedCycle,
    MovingFactor,
    VarietyRef,
    fixed_moving_split,
    multiplicity_at,
)
from segre_kit.engine import compute_Ma, compute_Mg, segre_numbers
from segre_kit.numeric import (
    RegConfig,
    crofton_moving_multiplicity,
    epsilon_mass,
    mass_balance_check,
    perturbation_root_count,
)
from segre_kit.poly import (
    PolyMatrix,
    Polynomial,
    determinant,
    parse_matrix,
    parse_polynomial,
)
from segre_kit.tower import _divisor_terms


def _check(name, expected, got) -> dict:
    return {"name": name, "expected": expected, "got": got,
            "pass": expected == got}


def _approx_check(name, expected, got, tol) -> dict:
    return {"name": name, "expected": expected, "got": got,
            "pass": abs(expected - got) < tol}


def _grid(n: int):
    from itertools import product

    return [pt for pt in product([0, 1, -1, 2], repeat=n)]


def _fixed_part_map(cyc: GeneralizedCycle) -> list:
    fixed, _ = fixed_moving_split(cyc)
    return sorted([t.fixed.describe(cyc.space), str(t.coefficient)]
                  for t in fixed.terms)


def _random_diag_monomial(rng: random.Random):
    """A random permuted-diagonal monomial matrix, n and r from 1 to 3 and
    exponents at most 3, whose gcd-reduced entries are pairwise coprime (the
    exact engine's diagonal class)."""
    n = rng.randint(1, 3)
    r = rng.randint(1, 3)
    # pairwise-coprime reduced parts: each variable belongs to one slot
    owners = [rng.randint(-1, r - 1) for _ in range(n)]
    common = [rng.randint(0, 1) for _ in range(n)]
    entries = []
    for slot in range(r):
        exps = [0] * n
        for v in range(n):
            if owners[v] == slot:
                exps[v] = rng.randint(0, 3 - common[v])
            exps[v] += common[v]
        entries.append(Polynomial.monomial(n, exps, rng.randint(1, 3)))
    perm_r, perm_c = rng.sample(range(r), r), rng.sample(range(r), r)
    z = Polynomial.zero(n)
    rows = [[z] * r for _ in range(r)]
    for i in range(r):
        rows[perm_r[i]][perm_c[i]] = entries[i]
    return PolyMatrix(rows)


def golden_suite(skip_numeric: bool, reg: RegConfig) -> Tuple[List[dict], float]:
    """Run every golden fixture plus the property suites; returns the checks
    and the seconds they took."""
    t_start = time.perf_counter()
    checks: List[dict] = []

    def disting(res):
        """Distinguished varieties of ``res`` as sorted [variety, coefficient]."""
        return sorted([t.describe(res.M[0].space), int(c)]
                      for t, c, _k in res.distinguished)

    # --- the diagonal axes pair diag(x1, x2) ------------------------------------------------
    g_diag2 = parse_matrix([["x1", "0"], ["0", "x2"]], 2)
    res_diag2 = compute_Mg(g_diag2)
    checks.append(_check("diag2.M1", "[x1=0] + [x2=0]", res_diag2.M[1].describe()))
    checks.append(_check("diag2.M2", "[x1=x2=0]", res_diag2.M[2].describe()))
    checks.append(_check("diag2.ring2",
                         "[x1=a2=0] + [x1=x2=0] + [x2=a1=0]",
                         res_diag2.ring_M[2].describe()))
    checks.append(_check("diag2.segre_origin", [0, 2, 1],
                         segre_numbers(res_diag2, [0, 0]).numbers))

    # --- diag(x^2, x) over C^1 ----------------------------------------------
    g_pow = parse_matrix([["x1^2", "0"], ["0", "x1"]], 1)
    res_pow = compute_Mg(g_pow)
    checks.append(_check("diagpow.M1", "3*[x1=0]", res_pow.M[1].describe()))
    checks.append(_check("diagpow.ring1", "[x1=0]", res_pow.ring_M[1].describe()))
    checks.append(_check("diagpow.ring2", "2*[x1=a2=0]",
                         res_pow.ring_M[2].describe()))

    # --- the moving-term row [x1 x2] ------------------------------------------------------
    g_s1 = parse_matrix([["x1", "x2"]], 2)
    res_s1 = compute_Mg(g_s1)
    checks.append(_check("row2.M0", "X", res_s1.M[0].describe()))
    checks.append(_check("row2.M1", "X ^ <dd^c log(|x1|^2 + |x2|^2)>",
                         res_s1.M[1].describe()))
    checks.append(_check("row2.M2", "0", res_s1.M[2].describe()))
    checks.append(_check("row2.mult", [[1, 1, 0], [1, 0, 0], [1, 0, 0]],
                         [segre_numbers(res_s1, pt).numbers
                          for pt in ([0, 0], [1, 0], [0, 1])]))
    res_s1_alt = compute_Mg(g_s1, fiber_metric_weights=(1, 2))
    checks.append(_check("row2.alt_metric",
                         "X ^ <dd^c log(2*|x1|^2 + |x2|^2)>",
                         res_s1_alt.M[1].describe()))

    # --- the common-factor diagonal diag(x1x3, x2x3, x3^2) --------------------------------------
    g_s2 = parse_matrix([["x1*x3", "0", "0"], ["0", "x2*x3", "0"], ["0", "0", "x3^2"]], 3)
    res_s2 = compute_Mg(g_s2)
    checks.append(_check("gcd_diag3.ring1", "[x3=0]", res_s2.ring_M[1].describe()))
    checks.append(_check("gcd_diag3.ring2",
                         "[x3=0] ^ <dd^c log(|x1*a1|^2 + |x2*a2|^2)>",
                         res_s2.ring_M[2].describe()))
    checks.append(_check(
        "gcd_diag3.ring3",
        "[x1=a2=a3=0] + [x1=x2=a3=0] + 2*[x1=x2=x3=0] + 2*[x1=x3=a2=0] "
        "+ [x2=a1=a3=0] + 2*[x2=x3=a1=0] + 2*[x3=a1=a2=0]",
        res_s2.ring_M[3].describe()))
    m2_on_x3 = [t for t in res_s2.M[2].terms
                if t.moving and t.fixed.base_zeros == {2}]
    checks.append(_check("gcd_diag3.M2_x3_term", True,
                         len(m2_on_x3) == 1 and m2_on_x3[0].coefficient > 0))
    space3 = res_s2.M[1].space
    div_s2 = GeneralizedCycle(space3, 1,
                              _divisor_terms(space3, determinant(g_s2)))
    checks.append(_check("gcd_diag3.det_law", _fixed_part_map(div_s2),
                         _fixed_part_map(res_s2.M[1])))

    # --- paragraph-10 contrast pair -------------------------------------------
    g_ideal = parse_matrix([["x1*x2", "0"], ["0", "1"]], 2)
    res_ideal = compute_Mg(g_ideal)
    checks.append(_check("sheaf.diag_x1x2_1.M1", "[x1=0] + [x2=0]",
                         res_ideal.M[1].describe()))
    checks.append(_check("sheaf.diag_x1x2_1.M2", "0", res_ideal.M[2].describe()))
    checks.append(_check("sheaf.contrast.distinguished",
                         [["[x1=0]", 1], ["[x2=0]", 1]], disting(res_ideal)))
    disting_diag2 = disting(res_diag2)
    checks.append(_check("sheaf.diag2.distinguished",
                         [["[x1=0]", 1], ["[x1=x2=0]", 1], ["[x2=0]", 1]],
                         disting_diag2))

    # --- direct-sum invariance --------------------------------------------------
    g_dsum = parse_matrix([["x1", "0", "0"], ["0", "x2", "0"], ["0", "0", "1"]], 2)
    res_dsum = compute_Mg(g_dsum)
    grid2 = _grid(2)
    checks.append(_check(
        "dsum.segre_grid", True,
        all(segre_numbers(res_diag2, pt).numbers
            == segre_numbers(res_dsum, pt).numbers
            for pt in grid2)))
    checks.append(_check("dsum.distinguished", disting_diag2,
                         disting(res_dsum)))

    # --- comparability: permutation / scalar rescaling ----------------------------
    g_cmp = parse_matrix([["0", "2*x2"], ["(1+1*i)*x1", "0"]], 2)
    res_cmp = compute_Mg(g_cmp)
    checks.append(_check(
        "comparability.grid", True,
        all(segre_numbers(res_diag2, pt).numbers
            == segre_numbers(res_cmp, pt).numbers
            for pt in grid2)))

    # --- determinant law on random diagonal matrices -----------------------------
    rng = random.Random(reg.seed)
    det_ok, det_total = 0, 0
    while det_total < 50:
        g_rand = _random_diag_monomial(rng)
        det = determinant(g_rand)
        if det.is_zero() or det.is_constant():
            continue
        det_total += 1
        res_rand = compute_Mg(g_rand)
        space = res_rand.M[1].space
        div = GeneralizedCycle(space, 1, _divisor_terms(space, det))
        if _fixed_part_map(res_rand.M[1]) == _fixed_part_map(div):
            det_ok += 1
    checks.append(_check("determinant_law.random50", 50, det_ok))

    # --- non-negativity and stratum properties over the corpus ---------------------
    corpus = [(g_diag2, res_diag2), (g_pow, res_pow), (g_s1, res_s1),
              (g_s2, res_s2), (g_ideal, res_ideal), (g_dsum, res_dsum)]
    nonneg = True
    stratum = True
    for g, res in corpus:
        moving_parts = [fixed_moving_split(cyc)[1] for cyc in res.M]
        for pt in _grid(g.nvars):
            for k, (cyc, moving) in enumerate(zip(res.M, moving_parts)):
                mult = multiplicity_at(cyc, pt)
                if mult < 0:
                    nonneg = False
                if not moving.is_zero() and multiplicity_at(moving, pt) != 0:
                    vanishing = sum(1 for c in pt if c == 0)
                    if vanishing < k + 1:
                        stratum = False
    checks.append(_check("property.nonnegative_multiplicities", True, nonneg))
    checks.append(_check("property.moving_stratum", True, stratum))

    # --- M^a fixtures and numeric cross-checks ------------------------------------
    if not skip_numeric:
        ma1 = compute_Ma(parse_matrix([["x1", "x2"]], 2), cfg=reg)
        checks.append(_check("quotient.Ma(x1,x2).deg2", "-1*[point (0, 0)]",
                             ma1[2].describe()))
        checks.append(_check("quotient.Ma(x1,x2).mult", -1,
                             multiplicity_at(ma1[2], [0, 0])))
        ma2 = compute_Ma(parse_matrix([["x1^2", "x2"]], 2), cfg=reg)
        checks.append(_check("quotient.Ma(x1^2,x2).deg2", "-2*[point (0, 0)]",
                             ma2[2].describe()))
        ma3 = compute_Ma(parse_matrix([["x1", "x1"]], 2), cfg=reg)
        checks.append(_check("quotient.Ma(x1,x1)", ["0", "[x1=0]", "0"],
                             [c.describe() for c in ma3]))

        crofton_vals = []
        factor = MovingFactor((parse_polynomial("x1", 2),
                               parse_polynomial("x2", 2)), 1)
        for pt in ([0, 0], [1, 0], [0, 1]):
            crofton_vals.append(crofton_moving_multiplicity(
                [factor], VarietyRef.whole_space(), pt, reg))
        checks.append(_check("row2.crofton_cross", [1, 0, 0], crofton_vals))

        mb = mass_balance_check(g_pow, reg)
        checks.append(_check("mass_balance.diagpow.det", 3, mb.det_count))
        checks.append(_approx_check("mass_balance.diagpow.mass", 3.0,
                                    mb.numeric_mass, 0.1))

        for label, polys, expected in (
                ("x1,x2", ["x1", "x2"], 1),
                ("x1^2,x2", ["x1^2", "x2"], 2),
                ("x1^2-x2^3,x1x2", ["x1^2 - x2^3", "x1*x2"], 5)):
            pair = tuple(parse_polynomial(s, 2) for s in polys)
            count = perturbation_root_count(pair)
            (est,) = epsilon_mass(pair, [2], reg)
            checks.append(_check(f"br.{label}.count", expected, count))
            agree = abs(est.value - count) < 0.05 * max(count, 1) and \
                round(est.value) == count
            checks.append(_check(f"br.{label}.mass_agrees", True, agree))

        (est1,) = epsilon_mass([parse_polynomial("x1^3", 1)], [1], reg)
        (est2,) = epsilon_mass([parse_polynomial("x1^3", 1)], [1], reg)
        checks.append(_check("epsmass.x3.seed_deterministic", True,
                             est1.value == est2.value
                             and est1.per_epsilon == est2.per_epsilon))
        checks.append(_approx_check("epsmass.x3.converges", 3.0, est1.value,
                                    0.02 * 3.0))

    elapsed = time.perf_counter() - t_start
    budget = 10.0 if skip_numeric else 300.0
    checks.append(_check("runtime_budget_seconds", True, elapsed < budget))

    return checks, elapsed

