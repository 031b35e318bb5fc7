"""Batch front end: parse a morphism spec file, run the requested engines,
emit a JSON report, and run the built-in golden verification suite.

Exit codes: 0 all checks pass, 1 golden/verify mismatch, 2 parse error or
an unwritable --out, 3 structure unsupported by the exact engine, 4 undecided
numerics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field, fields, replace
from json.encoder import INFINITY, encode_basestring_ascii
from typing import List, Optional

from segre_kit import __version__
from segre_kit.cycles import (
    GeneralizedCycle,
    MovingFactor,
    VarietyRef,
    _term_sum,
    fixed_moving_split,
    multiplicity_at,
)
from segre_kit.engine import (
    _distinguished_records,
    compute_Ma,
    compute_Mg,
    segre_numbers,
    singular_metric_forms,
)
from segre_kit.errors import (
    InputError,
    NumericalFailureError,
    ParseError,
    UndecidedError,
    UnsupportedInputError,
)
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
    _parse_terms,
    determinant,
    parse_polynomial,
)
from segre_kit.scalars import Scalar
from segre_kit.tower import _divisor_terms

ALL_TASKS = ("Mg", "segre", "distinguished", "Ma", "singular_metrics", "verify")
EXACT_TASKS = ("Mg", "segre", "distinguished", "singular_metrics")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_UNDECIDED = 4


# ---------------------------------------------------------------------------
# morphism specs
# ---------------------------------------------------------------------------

@dataclass
class MorphismSpec:
    matrix: PolyMatrix
    engine: str = "exact"
    points: list = field(default_factory=list)
    tasks: tuple = ("Mg", "segre")
    reg: RegConfig = field(default_factory=RegConfig)
    raw: dict = field(default_factory=dict)


def parse_scalar_text(text: str) -> Scalar:
    """Exact coordinate syntax: 'a/b', 'i', '-2', '(1+2*i)': the sum of the
    terms of constant polynomial text, with no Polynomial built."""
    (_, first), *rest = _parse_terms(str(text), 0, {})
    return sum((c for _, c in rest), first)


def load_spec(data: dict) -> MorphismSpec:
    try:
        variables = data["variables"]
        rows = data["matrix"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"spec needs 'variables' and 'matrix': {exc}")
    if not isinstance(variables, list):
        raise ParseError("'variables' must be a list of names")
    # reports name the base coordinates x1..xn and the fiber ones a1..ar
    n = len(variables)
    for j, name in enumerate(variables):
        if name != f"x{j + 1}":
            raise ParseError(f"'variables' must be x1..x{n} in order: "
                             f"name {j + 1} is {name!r}, not 'x{j + 1}'")
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(isinstance(cell, str) for cell in row)
            for row in rows):
        raise ParseError("'matrix' must be a list of rows of polynomial strings")
    matrix = PolyMatrix([[parse_polynomial(cell, n) for cell in row] for row in rows])
    engine = data.get("engine", "exact")
    if engine not in ("exact", "both"):
        raise ParseError(f"unknown engine {engine!r}")
    raw_points = data.get("points", [])
    if not isinstance(raw_points, list) or not all(
            isinstance(pt, list) for pt in raw_points):
        raise ParseError("'points' must be a list of coordinate lists")
    points = []
    for pt in raw_points:
        if len(pt) != n:
            raise ParseError(f"point {pt} has wrong length (n = {n})")
        points.append(tuple(parse_scalar_text(c) for c in pt))
    tasks = data.get("tasks", ["Mg", "segre"])
    if not isinstance(tasks, list):
        raise ParseError("'tasks' must be a list of task names")
    for t in tasks:
        if t not in ALL_TASKS:
            raise ParseError(f"unknown task {t!r}")
    tasks = tuple(tasks)
    reg = data.get("reg", {})
    if not isinstance(reg, dict):
        raise ParseError("'reg' must be an object")
    known = [f.name for f in fields(RegConfig)]
    unknown = sorted(set(reg) - set(known))
    if unknown:
        raise ParseError(f"unknown reg keys {unknown}; accepted: {known}")
    reg = RegConfig(**reg)
    return MorphismSpec(matrix, engine, points, tasks, reg, dict(data))


def read_spec_file(path: str) -> MorphismSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno,
                         column=exc.colno)
    except (ValueError, RecursionError) as exc:
        # text that is not UTF-8, an integer past the int-digit limit, or
        # nesting past the recursion limit
        raise ParseError(f"invalid JSON: {exc}")
    except OSError as exc:
        raise ParseError(str(exc))
    return load_spec(data)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _check(name, expected, got) -> dict:
    return {"name": name, "expected": expected, "got": got,
            "pass": expected == got}


def _approx_check(name, expected, got, tol) -> dict:
    return {"name": name, "expected": expected, "got": got,
            "pass": abs(expected - got) < tol}


def _report(input, results, checks, seed) -> dict:
    return {"input": input, "results": results, "checks": checks,
            "versions": {"segre_kit": __version__,
                         "python": sys.version.split()[0]},
            "seed": seed}


def run_spec(spec: MorphismSpec, skip_numeric: bool = False) -> dict:
    results, checks = {}, []
    res = reports = None
    if any(t in spec.tasks for t in EXACT_TASKS):
        res = compute_Mg(spec.matrix)

    def segre_reports():
        cfg = None if skip_numeric else spec.reg
        return [segre_numbers(res, pt, cfg=cfg) for pt in spec.points]

    if "Mg" in spec.tasks:
        results["Mg"] = res.to_record()
    if "segre" in spec.tasks:
        reports = segre_reports()
        results["segre"] = [r.to_record() for r in reports]
    if "distinguished" in spec.tasks:
        results["distinguished"] = _distinguished_records(res.distinguished,
                                                          res.M[0].space)
    if "Ma" in spec.tasks:
        ma = compute_Ma(spec.matrix, cfg=spec.reg)
        results["Ma"] = [c.to_record() for c in ma]
    if "singular_metrics" in spec.tasks:
        results["singular_metrics"] = {
            name: {"cycles": [c.to_record() for c in cycles], "metadata": meta}
            for name, (cycles, meta)
            in singular_metric_forms(spec.matrix, res).items()}

    if spec.engine == "both" and res is not None and not skip_numeric:
        results["comparison"] = _comparison_block(
            res, reports if reports is not None else segre_reports(), spec.reg)

    if "verify" in spec.tasks:
        golden = golden_suite(skip_numeric=skip_numeric, reg=spec.reg)
        checks.extend(golden["checks"])
    return _report(spec.raw, results, checks, spec.reg.seed)


def _comparison_block(res, reports, cfg: RegConfig) -> list:
    """The Segre numbers of ``reports`` against the same multiplicities
    re-estimated through the numeric oracles."""
    out = []
    for report in reports:
        for k, cyc in enumerate(res.M):
            exact = report.numbers[k]
            numeric = _numeric_multiplicity(cyc, report.point, cfg)
            if numeric is None:
                continue
            out.append({"point": [str(c) for c in report.point], "k": k,
                        "exact": exact, "numeric": numeric,
                        "agree": exact == numeric})
    return out


def _numeric_multiplicity(cyc: GeneralizedCycle, point, cfg) -> Optional[int]:
    """Pure fixed terms by membership, every moving term through the oracle;
    None when some term is outside the oracle's reach."""
    try:
        return _term_sum(cyc, point, lambda t: crofton_moving_multiplicity(
            list(t.moving), t.fixed, point, cfg))
    except (UndecidedError, NumericalFailureError, InputError):
        return None


# ---------------------------------------------------------------------------
# golden fixtures
# ---------------------------------------------------------------------------

def _mat(rows, n) -> PolyMatrix:
    return PolyMatrix([[parse_polynomial(s, n) for s in row] for row in rows])


def _grid(n: int):
    from itertools import product

    return [pt for pt in product([0, 1, -1, 2], repeat=n)]


def _fixed_part_map(cyc: GeneralizedCycle) -> list:
    fixed, _ = fixed_moving_split(cyc)
    return sorted([t.fixed.describe(cyc.space), str(t.coefficient)]
                  for t in fixed.terms)


def _random_diag_monomial(rng: random.Random, n_max=3, r_max=3, exp_max=3):
    """A random permuted-diagonal monomial matrix whose gcd-reduced entries
    are pairwise coprime (the exact engine's diagonal class)."""
    n = rng.randint(1, n_max)
    r = rng.randint(1, r_max)
    # pairwise-coprime reduced parts: each variable belongs to one slot
    owners = [rng.randint(-1, r - 1) for _ in range(n)]
    common = [rng.randint(0, 1) for _ in range(n)]
    entries = []
    for slot in range(r):
        exps = [0] * n
        for v in range(n):
            if owners[v] == slot:
                exps[v] = rng.randint(0, exp_max - common[v])
            exps[v] += common[v]
        entries.append(Polynomial.monomial(n, exps, rng.randint(1, 3)))
    perm_r, perm_c = rng.sample(range(r), r), rng.sample(range(r), r)
    z = Polynomial.zero(n)
    rows = [[z] * r for _ in range(r)]
    for i in range(r):
        rows[perm_r[i]][perm_c[i]] = entries[i]
    return PolyMatrix(rows)


def golden_suite(skip_numeric: bool = False,
                 reg: Optional[RegConfig] = None) -> dict:
    """Run every golden fixture plus the property suites; returns a report."""
    t_start = time.perf_counter()
    reg = reg or RegConfig()
    checks: List[dict] = []

    def disting(res):
        """Distinguished varieties of ``res`` as sorted [variety, coefficient]."""
        return sorted([t.describe(res.M[0].space), int(c)]
                      for t, c, _k in res.distinguished)

    # --- the diagonal axes pair diag(x1, x2) ------------------------------------------------
    g_diag2 = _mat([["x1", "0"], ["0", "x2"]], 2)
    res_diag2 = compute_Mg(g_diag2)
    checks.append(_check("diag2.M1", "[x1=0] + [x2=0]", res_diag2.M[1].describe()))
    checks.append(_check("diag2.M2", "[x1=x2=0]", res_diag2.M[2].describe()))
    checks.append(_check("diag2.ring2",
                         "[x1=a2=0] + [x1=x2=0] + [x2=a1=0]",
                         res_diag2.ring_M[2].describe()))
    checks.append(_check("diag2.segre_origin", [0, 2, 1],
                         segre_numbers(res_diag2, [0, 0]).numbers))

    # --- diag(x^2, x) over C^1 ----------------------------------------------
    g_pow = _mat([["x1^2", "0"], ["0", "x1"]], 1)
    res_pow = compute_Mg(g_pow)
    checks.append(_check("diagpow.M1", "3*[x1=0]", res_pow.M[1].describe()))
    checks.append(_check("diagpow.ring1", "[x1=0]", res_pow.ring_M[1].describe()))
    checks.append(_check("diagpow.ring2", "2*[x1=a2=0]",
                         res_pow.ring_M[2].describe()))

    # --- the moving-term row [x1 x2] ------------------------------------------------------
    g_s1 = _mat([["x1", "x2"]], 2)
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
    g_s2 = _mat([["x1*x3", "0", "0"], ["0", "x2*x3", "0"], ["0", "0", "x3^2"]], 3)
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
    g_ideal = _mat([["x1*x2", "0"], ["0", "1"]], 2)
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
    g_dsum = _mat([["x1", "0", "0"], ["0", "x2", "0"], ["0", "0", "1"]], 2)
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
    g_cmp = _mat([["0", "2*x2"], ["(1+1*i)*x1", "0"]], 2)
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
        ma1 = compute_Ma(_mat([["x1", "x2"]], 2), cfg=reg)
        checks.append(_check("quotient.Ma(x1,x2).deg2", "-1*[point (0, 0)]",
                             ma1[2].describe()))
        checks.append(_check("quotient.Ma(x1,x2).mult", -1,
                             multiplicity_at(ma1[2], [0, 0])))
        ma2 = compute_Ma(_mat([["x1^2", "x2"]], 2), cfg=reg)
        checks.append(_check("quotient.Ma(x1^2,x2).deg2", "-2*[point (0, 0)]",
                             ma2[2].describe()))
        ma3 = compute_Ma(_mat([["x1", "x1"]], 2), cfg=reg)
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

    return _report({"suite": "golden", "skip_numeric": skip_numeric},
                   {"elapsed_seconds": round(elapsed, 2)}, checks, reg.seed)


# ---------------------------------------------------------------------------
# the mass command
# ---------------------------------------------------------------------------

def run_mass(spec: MorphismSpec) -> dict:
    """mass_balance_check for square matrices over one variable; otherwise the
    epsilon-mass table of the entry tuple at k = 1..n."""
    g = spec.matrix
    if not g.nvars:
        raise InputError("the spec has no variables: a mass needs x1 at least")
    results = {}
    if g.rows == g.cols and g.nvars == 1 and not determinant(g).is_zero():
        results["mass_balance"] = mass_balance_check(g, spec.reg).to_record()
    else:
        tup = [g.entries[i][j] for i, j in g.nonzero_positions()]
        if not tup:
            raise InputError("mass of the zero matrix is not defined")
        ks = range(1, g.nvars + 1)
        results["epsilon_mass"] = {
            str(k): est.to_record()
            for k, est in zip(ks, epsilon_mass(tup, ks, spec.reg))}
    return _report(spec.raw, results, [], spec.reg.seed)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _json_text(value) -> str:
    """The text ``json.dumps(value, indent=2)`` gives, without the
    pure-Python encoder that ``indent`` selects: strings go through the same
    C escaper, numbers through ``int.__repr__`` and ``float.__repr__``.
    Dict keys are str, int, float, bool or None, as ``json.dumps`` needs."""
    parts = []
    _json_parts(value, "\n", parts)
    return "".join(parts)


# the text of the two commonest leaves of a report, by exact type
_LEAF_TEXT = {str: encode_basestring_ascii, int: int.__repr__}


def _json_parts(value, newline: str, parts: list):
    """Append the text of ``value`` to ``parts`` piece by piece; ``newline``
    is a line break followed by the indent of the line ``value`` ends on."""
    kind = type(value)
    if kind is dict:
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in value.items():
            parts += (sep, encode_basestring_ascii(
                k if isinstance(k, str) else _json_atom(k)), ": ")
            leaf = _LEAF_TEXT.get(type(v))
            if leaf is None:
                _json_parts(v, inner, parts)
            else:
                parts.append(leaf(v))
            sep = comma
        parts.append(newline + "}" if value else "{}")
    elif kind is list or kind is tuple:
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for v in value:
            parts.append(sep)
            leaf = _LEAF_TEXT.get(type(v))
            if leaf is None:
                _json_parts(v, inner, parts)
            else:
                parts.append(leaf(v))
            sep = comma
        parts.append(newline + "]" if value else "[]")
    elif isinstance(value, dict):
        _json_parts(dict(value), newline, parts)
    elif isinstance(value, (list, tuple)):
        _json_parts(list(value), newline, parts)
    else:
        parts.append(_json_atom(value))


def _json_atom(value) -> str:
    """The text of a string, number, bool or None."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == INFINITY:
            return "Infinity"
        if value == -INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def _emit(report: dict, out_path: Optional[str]):
    text = _json_text(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)


def _flag_reg(reg: RegConfig, args) -> RegConfig:
    """``reg`` with the numeric command-line flags applied; RegConfig
    converts and validates them."""
    schedule = args.epsilon_schedule
    overrides = {"seed": args.seed, "samples": args.samples,
                 "epsilon_schedule": schedule and schedule.split(","),
                 "radius": args.radius, "extrapolation": args.extrapolation}
    return replace(reg, **{k: v for k, v in overrides.items() if v is not None})


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="segre-kit",
        description="residue currents, Segre numbers and distinguished "
                    "varieties of polynomial morphisms")
    sub = parser.add_subparsers(dest="command", required=True)
    run, mass, golden = map(sub.add_parser, ("run", "mass", "golden"))
    for sp in (run, mass):
        sp.add_argument("spec", help="path to a morphism spec (JSON)")
    run.add_argument("--engine", choices=("exact", "both"))
    for sp in (run, golden):
        sp.add_argument("--skip-numeric", action="store_true")
    for sp in (run, mass, golden):
        _common_flags(sp)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command == "golden":
            report = golden_suite(skip_numeric=args.skip_numeric,
                                  reg=_flag_reg(RegConfig(), args))
        else:
            spec = read_spec_file(args.spec)
            spec.reg = _flag_reg(spec.reg, args)
            if args.command == "mass":
                report = run_mass(spec)
            else:
                spec.engine = args.engine or spec.engine
                report = run_spec(spec, skip_numeric=args.skip_numeric)
    except ParseError as exc:
        pos = ", ".join(f"{name} {value}" for name, value in
                        (("line", exc.line), ("column", exc.column))
                        if value is not None)
        print(f"parse error: {exc}" + (f" ({pos})" if pos else ""),
              file=sys.stderr)
        return EXIT_PARSE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedInputError as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (UndecidedError, NumericalFailureError) as exc:
        diag = getattr(exc, "diagnostics", None)
        print(f"undecided: {exc}" + (f" [{diag}]" if diag else ""),
              file=sys.stderr)
        return EXIT_UNDECIDED

    try:
        _emit(report, args.out)
    except OSError as exc:
        if args.out or not isinstance(exc, BrokenPipeError):
            print(f"output error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        # the reader closed stdout (``| head``): as the signal module's docs
        # advise, point it at devnull so that the last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    failures = [c for c in report["checks"] if not c["pass"]]
    for c in failures:
        print(f"CHECK FAILED {c['name']}: expected {c['expected']!r}, "
              f"got {c['got']!r}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _common_flags(sp):
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--epsilon-schedule", default=None,
                    help="comma-separated decreasing positive floats")
    sp.add_argument("--radius", type=float, default=None)
    sp.add_argument("--extrapolation", choices=("NONE", "RICHARDSON"),
                    default=None)
    sp.add_argument("--out", default=None, help="write the report here")


if __name__ == "__main__":
    sys.exit(main())
