"""Batch front end: parse a morphism spec file, run the requested engines
and emit a JSON report; ``golden`` reports the checks of segre_kit.golden.

Exit codes: 0 all checks pass, 1 golden/verify mismatch or a failed
self-check, 2 parse error or an unwritable --out, 3 structure unsupported by
the exact engine, 4 undecided numerics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from json.encoder import INFINITY, encode_basestring_ascii
from typing import Optional

from segre_kit import __version__
from segre_kit.cycles import GeneralizedCycle, _term_sum
from segre_kit.engine import (
    _distinguished_records,
    compute_Ma,
    compute_Mg,
    segre_numbers,
    singular_metric_forms,
)
from segre_kit.errors import (
    CheckFailedError,
    InputError,
    NumericalFailureError,
    ParseError,
    UndecidedError,
    UnsupportedInputError,
    _as_json,
)
from segre_kit.golden import golden_suite
from segre_kit.numeric import (
    RegConfig,
    crofton_moving_multiplicity,
    epsilon_mass,
    mass_balance_check,
)
from segre_kit.poly import (
    PolyMatrix,
    determinant,
    parse_matrix,
    parse_scalar_text,
)

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
    engine: str
    points: list
    tasks: tuple
    reg: RegConfig
    raw: dict


def load_spec(data: dict) -> MorphismSpec:
    if not isinstance(data, dict):
        raise ParseError("spec must be a JSON object")
    try:
        variables = data["variables"]
        rows = data["matrix"]
    except KeyError as exc:
        raise ParseError(f"spec needs 'variables' and 'matrix': {exc}")
    if not isinstance(variables, list):
        raise ParseError("'variables' must be a list of names")
    # reports name the base coordinates x1..xn and the fiber ones a1..ar
    n = len(variables)
    for j, name in enumerate(variables):
        if name != f"x{j + 1}":
            raise ParseError(f"'variables' must be x1..x{n} in order: "
                             f"name {j + 1} is {_as_json(name)}, "
                             f'not "x{j + 1}"')
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(isinstance(cell, str) for cell in row)
            for row in rows):
        raise ParseError("'matrix' must be a list of rows of polynomial strings")
    matrix = parse_matrix(rows, n)
    engine = data.get("engine", "exact")
    if engine not in ("exact", "both"):
        raise ParseError(f"unknown engine {_as_json(engine)}")
    raw_points = data.get("points", [])
    if not isinstance(raw_points, list) or not all(
            isinstance(pt, list) for pt in raw_points):
        raise ParseError("'points' must be a list of coordinate lists")
    points = []
    for pt in raw_points:
        if len(pt) != n:
            raise ParseError(
                f"point {_as_json(pt)} has wrong length (n = {n})")
        for c in pt:  # a bool, null or float would be read as its repr
            if isinstance(c, bool) or not isinstance(c, (str, int)):
                raise ParseError("point coordinates must be strings or "
                                 f"integers, not {_as_json(c)}")
        points.append(tuple(parse_scalar_text(c) for c in pt))
    tasks = data.get("tasks", ["Mg", "segre"])
    if not isinstance(tasks, list):
        raise ParseError("'tasks' must be a list of task names")
    for t in tasks:
        if t not in ALL_TASKS:
            raise ParseError(f"unknown task {_as_json(t)}")
    tasks = tuple(tasks)
    reg = data.get("reg", {})
    if not isinstance(reg, dict):
        raise ParseError("'reg' must be an object")
    known = [f.name for f in fields(RegConfig)]
    unknown = sorted(set(reg) - set(known), key=str)  # keys of any type
    if unknown:
        raise ParseError(f"unknown reg keys {_as_json(unknown)}; "
                         f"accepted: {_as_json(known)}")
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
    records = {}  # id -> (cycle, record): the forms share Mg's cycle objects

    def record(c: GeneralizedCycle) -> dict:
        if id(c) not in records:
            records[id(c)] = c, c.to_record()
        return records[id(c)][1]

    def segre_reports():
        cfg = None if skip_numeric else spec.reg
        return [segre_numbers(res, pt, cfg=cfg) for pt in spec.points]

    if "Mg" in spec.tasks:
        results["Mg"] = res.to_record(record)
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
            name: {"cycles": [record(c) for c in cycles], "metadata": meta}
            for name, (cycles, meta)
            in singular_metric_forms(spec.matrix, res).items()}

    if spec.engine == "both" and res is not None and not skip_numeric:
        results["comparison"] = _comparison_block(
            res, reports if reports is not None else segre_reports(), spec.reg)

    if "verify" in spec.tasks:
        checks.extend(golden_suite(skip_numeric, spec.reg)[0])
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
    """The text ``json.dumps(value, indent=2)`` gives for a value built of
    plain dicts, lists and tuples, as every report is, without the
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
            reg = _flag_reg(RegConfig(), args)
            checks, elapsed = golden_suite(args.skip_numeric, reg)
            report = _report(
                {"suite": "golden", "skip_numeric": args.skip_numeric},
                {"elapsed_seconds": round(elapsed, 2)}, checks, reg.seed)
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
    except CheckFailedError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED

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
