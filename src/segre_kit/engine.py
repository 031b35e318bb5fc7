"""The exact pipeline: lift g to the section G = g*alpha on X x P^{r-1},
run the Monge-Ampere tower there, wedge with the tautological Segre powers
and push down to the base.

Degree bookkeeping: M_k is the pushforward of the (k+r-1)-degree part of
sum_e omega^e ^ ring_M, so the list of ring currents at every level fully
determines the morphism currents.  Chart consistency is asserted for the
diagonal class: the same tower runs in every affine chart alpha_i = 1 and the
homogenized chart terms must agree with the global terms visible there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from segre_kit.cycles import (
    EXACT,
    ORACLE,
    CycleTerm,
    GeneralizedCycle,
    MovingFactor,
    Space,
    VarietyRef,
    _in_fixed_part,
    multiplicity_at,
    proj_space,
    term,
    wedge,
)
from segre_kit.errors import InputError, UndecidedError, UnsupportedInputError
from segre_kit.numeric import (
    RegConfig,
    confirm_origin_only_zero,
    crofton_moving_multiplicity,
    perturbation_root_count,
)
from segre_kit.poly import (
    Polynomial,
    PolyMatrix,
    StructureClass,
    classify_structure,
    determinant,
    monomial_degree,
    strip_common_factor,
)
from segre_kit.tower import (
    _divisor_terms,
    _normalized_weights,
    _recognize_omega,
    pushforward_cycle,
    tower_residue,
)


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class MorphismResult:
    M: List[GeneralizedCycle]              # degree k = 0..n on the base
    ring_M: List[GeneralizedCycle]         # level l = 0..n+r-1 on P(E)
    Z_description: Optional[str] = None    # derived from M when not given
    # fixed-part components of every M_k: (VarietyRef, coefficient, codim k)
    distinguished: list = field(init=False)

    def __post_init__(self):
        self.distinguished = [(t.fixed, int(t.coefficient), k)
                              for k, cyc in enumerate(self.M)
                              for t in cyc.terms if _in_fixed_part(t, cyc)]
        if self.Z_description is None:
            self.Z_description = _describe_Z(self)

    def to_record(self):
        return {
            "engine": EXACT,
            "Z": self.Z_description,
            "M": [c.to_record() for c in self.M],
            "ring_M": [c.to_record() for c in self.ring_M],
        }


def _distinguished_records(distinguished, space: Space) -> list:
    """The report records of (VarietyRef, coefficient, codim) triples."""
    return [{"equations": ref.equations(space), "coefficient": int(co),
             "codim": k} for ref, co, k in distinguished]


@dataclass
class SegreReport:
    point: tuple
    numbers: List[int]
    distinguished: list            # (VarietyRef, int coefficient, codim)
    provenance: List[str]
    space: Space

    def to_record(self):
        return {
            "point": [str(c) for c in self.point],
            "numbers": list(self.numbers),
            "distinguished": _distinguished_records(self.distinguished,
                                                    self.space),
            "provenance": list(self.provenance),
        }


# ---------------------------------------------------------------------------
# the lifted section and its ring currents
# ---------------------------------------------------------------------------

def ring_M_Galpha(g: PolyMatrix) -> List[GeneralizedCycle]:
    """The list of twisted Monge-Ampere residues of G = g*alpha on P(E),
    levels 0..n+r-1, for the supported structure classes."""
    structure = classify_structure(g)
    if structure is StructureClass.GENERAL:
        raise UnsupportedInputError(
            f"structure {structure.value} is outside the exact engine; "
            "'segre-kit mass' estimates its masses", structure=structure.value)
    n, r = g.nvars, g.cols
    if r < 2:
        raise InputError("ring currents live on P(E) with rank E >= 2")
    space = proj_space(n, r)
    entries = [p for p in map(space.lift, g.entries) if not p.is_zero()]
    out = [GeneralizedCycle(space, level, terms)
           for level, terms in enumerate(tower_residue(entries, space))]
    if structure == StructureClass.DIAGONAL_MONOMIAL:
        _verify_charts(entries, space, out)
    return out


def _verify_charts(entries, space: Space, global_ring):
    """Recompute the tower of the lifted rows in every affine chart
    alpha_i = 1 and check the homogenized chart terms against the globally
    visible ones."""
    for chart in range(space.r):
        chart_entries = [space.dehomogenize(p, chart) for p in entries]
        for level, local in enumerate(tower_residue(chart_entries, space)):
            local_terms = {}
            for t in local:
                ht = _homogenize_chart_term(t, space, chart)
                key = ht.key()
                local_terms[key] = local_terms.get(key, 0) + ht.coefficient
            global_visible = {}
            for t in global_ring[level].terms:
                if _visible_in_chart(t, chart):
                    global_visible[t.key()] = t.coefficient
            local_terms = {k: v for k, v in local_terms.items() if v != 0}
            if local_terms != global_visible:
                raise RuntimeError(
                    f"chart {chart + 1} disagrees with the global tower at "
                    f"level {level}: {local_terms} vs {global_visible}")


def _visible_in_chart(t: CycleTerm, chart: int) -> bool:
    return chart not in t.fixed.fiber_zeros


def _homogenize_chart_term(t: CycleTerm, space: Space, chart: int) -> CycleTerm:
    """Map a chart-local term to global coordinates: multiply alpha-free
    moving arguments by alpha_chart and re-run the omega recognition."""
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


# ---------------------------------------------------------------------------
# the morphism currents
# ---------------------------------------------------------------------------

def _strip_unit_blocks(g: PolyMatrix):
    """Remove rows/columns of nonzero-constant entries that are alone in both
    their row and column: a pointwise-injective unit summand leaves M^g
    unchanged at trivial metrics.  Returns the reduced matrix and its
    columns' indices in g, or None when nothing can be removed."""
    row_counts, col_counts = g.line_counts()
    drop_rows, drop_cols = set(), set()
    for i, j in g.nonzero_positions():
        p = g.entries[i][j]
        if p.is_constant() and row_counts[i] == 1 and col_counts[j] == 1:
            drop_rows.add(i)
            drop_cols.add(j)
    if not drop_rows or len(drop_cols) == g.cols or len(drop_rows) == g.rows:
        return None
    cols = [j for j in range(g.cols) if j not in drop_cols]
    kept = [[g.entries[i][j] for j in cols]
            for i in range(g.rows) if i not in drop_rows]
    return PolyMatrix(kept), cols


def compute_Mg(g: PolyMatrix,
               fiber_metric_weights: Optional[Sequence] = None) -> MorphismResult:
    """All currents M^g_k, k = 0..n, for an exact-class input; the fiber
    metric sum w_j |a_j|^2 takes r positive int or Fraction weights
    (default all 1)."""
    n, r = g.nvars, g.cols
    base = Space(n)
    if fiber_metric_weights is not None:
        _normalized_weights(fiber_metric_weights, r)  # refuses bad weights

    if g.is_zero():
        M = [GeneralizedCycle.one(base)]
        M += [GeneralizedCycle.zero(base, k) for k in range(1, n + 1)]
        return MorphismResult(M, [], "Z = X (zero morphism)")

    if r == 1:
        # E is a line bundle: the classical section case, no projectivization
        entries = [g.entries[i][0] for i in range(g.rows)
                   if not g.entries[i][0].is_zero()]
        M = [GeneralizedCycle(base, k, terms)
             for k, terms in enumerate(tower_residue(entries, base))]
        return MorphismResult(M, [])

    try:
        ring = ring_M_Galpha(g)
    except UnsupportedInputError:
        stripped = _strip_unit_blocks(g)
        if stripped is None:
            raise
        # a unit diagonal summand leaves the morphism currents unchanged
        kept, cols = stripped
        res = compute_Mg(kept, fiber_metric_weights and
                         [fiber_metric_weights[j] for j in cols])
        res.Z_description += " (computed from the unit-reduced presentation)"
        return res
    # omega^e ^ ring_M_l, 0 <= e <= r - 1, pushes down to degree
    # k = l + e - (r - 1)
    terms = [[] for _ in range(n + 1)]
    for level, cyc in enumerate(ring):
        if cyc.is_zero():
            continue
        for k in range(max(0, level - r + 1), min(n, level) + 1):
            e = k + r - 1 - level
            part = wedge(cyc, e) if e else cyc
            terms[k] += pushforward_cycle(part, fiber_metric_weights).terms
    return MorphismResult([GeneralizedCycle(base, k, ts)
                           for k, ts in enumerate(terms)], ring)


def _describe_Z(res: MorphismResult) -> str:
    if any(k == 0 for _ref, _co, k in res.distinguished):
        return "Z = X"  # M_0 = 1_Z: g is nowhere injective
    if not res.distinguished:
        return "Z is empty"
    base = res.M[0].space
    return "Z contains " + ", ".join(f"{ref.describe(base)} (codim {k})"
                                     for ref, _co, k in res.distinguished)


# ---------------------------------------------------------------------------
# Segre numbers and distinguished varieties
# ---------------------------------------------------------------------------

def segre_numbers(res: MorphismResult, point, cfg=None) -> SegreReport:
    """e_k of the currents ``res`` at the query point together with their
    distinguished varieties.  Each e_k is read by the exact rules alone and,
    only when one of them is undecided and ``cfg`` is given, read again with
    the Crofton oracle for the terms no exact rule decides (ORACLE)."""
    numbers, provenance = [], []
    for k, cyc in enumerate(res.M):
        try:
            e, source = multiplicity_at(cyc, point), EXACT
        except UndecidedError:
            if cfg is None:
                raise
            e, source = multiplicity_at(cyc, point, functools.partial(
                crofton_moving_multiplicity, cfg=cfg)), ORACLE
        if e < 0:
            raise RuntimeError(f"negative Segre number e_{k} = {e}")
        numbers.append(e)
        provenance.append(source)
    return SegreReport(tuple(point), numbers, res.distinguished, provenance,
                       res.M[0].space)


# ---------------------------------------------------------------------------
# the quotient current M^a
# ---------------------------------------------------------------------------

def compute_Ma(g: PolyMatrix, cfg=None) -> List[GeneralizedCycle]:
    """The signed currents of the generically defined quotient morphism for a
    two-entry row (g1, g2); degree-n point masses may be negative."""
    if g.rows != 1 or g.cols != 2:
        raise InputError("compute_Ma expects a 1x2 matrix (g1, g2)")
    cfg = cfg or RegConfig()
    n = g.nvars
    if not n:
        raise InputError("the spec has no variables: M^a needs x1 at least")
    base = Space(n)
    g1, g2 = g.entries[0]
    if g1.is_zero() and g2.is_zero():
        raise InputError("compute_Ma needs (g1, g2) not both zero")
    out = [GeneralizedCycle.zero(base, 0)]

    if g1.is_zero() or g2.is_zero():
        live = g2 if g1.is_zero() else g1
        if live.as_monomial() is None:
            raise UnsupportedInputError(
                "single-entry quotient supported for monomial entries only")
        out.append(GeneralizedCycle(base, 1, _divisor_terms(base, live)))
        out += [GeneralizedCycle.zero(base, k) for k in range(2, n + 1)]
        return out

    h, (r1, r2) = strip_common_factor([g1, g2])

    # M^a_1 = [div h]: the exceptional component of div(a') pushes to zero
    out.append(GeneralizedCycle(base, 1, _divisor_terms(
        base, Polynomial.monomial(n, h))))

    if n < 2:
        return out

    # the reduced pair's common zeros: none when an entry is a unit, else
    # only the origin (refused when that cannot be shown), with Fulton's count
    point_terms = []
    if not (r1.is_constant() or r2.is_constant()):
        monomial = all(p.as_monomial() is not None for p in (r1, r2))
        if n != 2:
            raise UnsupportedInputError(
                "reduced monomial pair has non-isolated zeros for n != 2"
                if monomial else "general-pair zero counting needs n = 2")
        if not monomial:  # confirm, exactly, that the origin is the only zero
            if not (r1.constant_value().is_zero()
                    and r2.constant_value().is_zero()):
                raise UnsupportedInputError(
                    "reduced pair does not vanish at the origin; "
                    "unsupported recipe")
            if not confirm_origin_only_zero(r1, r2, cfg.radius):
                raise UnsupportedInputError(
                    "reduced pair has common zeros away from the origin in "
                    "the polydisk")
        point_terms.append(term(-perturbation_root_count((r1, r2)),
                                VarietyRef.point_at([0] * n)))

    symbolic = []
    if monomial_degree(h) > 0 and not (r1.is_constant() and r2.is_constant()):
        factor = MovingFactor((r1, r2), 1)
        for v, e in enumerate(h):
            if e:
                symbolic.append(term(-e, VarietyRef.coordinate_subspace([v]),
                                     moving=(factor,)))
    out.append(GeneralizedCycle(base, 2, point_terms + symbolic))
    out += [GeneralizedCycle.zero(base, k) for k in range(3, n + 1)]
    return out


# ---------------------------------------------------------------------------
# singular-metric Segre / Chern forms
# ---------------------------------------------------------------------------

def singular_metric_forms(g: PolyMatrix,
                          result: Optional[MorphismResult] = None) -> dict:
    """Every form for the singular metrics induced by g, at trivial smooth
    metrics, as {name: (cycles, metadata)}: s(E-hat) = 1 + sum M_k (plus the
    smooth tail as metadata), c(E-hat) = 1 - sum M_k and, for square
    generically invertible g only, s(F-hat) = 1 - sum M_k."""
    res = result or compute_Mg(g)
    one = GeneralizedCycle.one(res.M[0].space)
    negated = [one] + [c.scale(-1) for c in res.M[1:]]
    tail = "1_{X\\Z} s(Im g) (not expanded; trivial metrics)"
    forms = {"SEGRE_E_HAT": ([one] + res.M[1:], {"smooth_tail": tail}),
             "CHERN_E_HAT": (negated, {})}
    if g.rows == g.cols and not determinant(g).is_zero():
        forms["SEGRE_F_HAT"] = (negated, {})
    return forms
