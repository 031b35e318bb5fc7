import hashlib
import json
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from segre_kit.cli import _json_text, load_spec, main, run_spec
from segre_kit.errors import ParseError
from segre_kit.numeric import RegConfig
from segre_kit.poly import parse_scalar_text
from segre_kit.scalars import Scalar

DIAG2_SPEC = {
    "variables": ["x1", "x2"],
    "matrix": [["x1", "0"], ["0", "x2"]],
    "engine": "exact",
    "points": [["0", "0"]],
    "tasks": ["Mg", "segre", "distinguished"],
}


# spec fields of the wrong type or shape; each must be a parse error (exit 2)
BAD_SHAPES = (
    {"points": [5]}, {"points": 5}, {"tasks": 3},
    {"variables": "ab", "matrix": [["a", "0"], ["0", "b"]]},
    {"variables": ["x1", "x1"], "matrix": [["x1", "0"], ["0", "x1"]]},
)

# mass specs whose oracle values overflow: undecided (exit 4)
OVERFLOW_SPECS = (
    {"variables": ["x1"], "matrix": [["x1^200", "0"], ["0", "x1"]],
     "reg": {"radius": 100.0, "samples": 1000}},
    {"variables": ["x1"], "matrix": [["x1^200", "0"], ["0", "x1"]],
     "reg": {"radius": 10.0}},
    {"variables": ["x1", "x2"], "matrix": [["x1^2", "x2"]],
     "reg": {"radius": 1e200}},
    # each coordinate's weight is finite, their product is not
    {"variables": ["x1", "x2"], "matrix": [["x1", "x2"]],
     "reg": {"radius": 1e80}},
    {"variables": ["x1"],
     "matrix": [["x1^200", "0", "0"], ["0", "x1", "0"], ["0", "0", "x1^2"]],
     "reg": {"radius": 10.0, "samples": 4096}},
)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def fuzz_specs(draw):
    """Specs for either engine over n = 0..3 with up to 3x3 cells; sometimes
    one key holds an arbitrary JSON value instead."""
    n = draw(st.integers(0, 3))
    names = [f"x{i + 1}" for i in range(n)]
    monomials = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
        lambda exps: "*".join(f"{v}^{e}" for v, e in zip(names, exps) if e)
        or "1")
    # the parenthesized forms: a Gaussian coefficient, constant expressions,
    # and text the grammar refuses ('2i' without '*', a name in parentheses)
    parenthesized = ["(1+2*i)*x1", "(2*3)", "(1+2i)", "(x1)", "((1))",
                     "(-1/2)*x1", "-(i)*x2", "(2*(3+i))"]
    # a minus sign starts a term, and nowhere else
    signed = ["-x1", "x1 - 2*x2", "-i*x1 + x2", "- 1/2*x2", "x1*-x2", "--x1",
              "x1^-1", "2*-3", "x1 + -x2", "-"]
    cells = monomials | st.sampled_from(["0", "x1 + x2", "1/2*x1", "i*x2",
                                         "i", "-i", *parenthesized, *signed])
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # off-diagonal zeros often enough to reach the exact classes
    diagonal = draw(st.booleans())
    coords = st.sampled_from(["0", "1", "-1", "1/2", "i", "-i", "(-1)",
                              "--1", "1*-1", "-(1+i)", *parenthesized])
    spec = {
        "variables": names,
        "matrix": [[draw(cells) if i == j or not diagonal else "0"
                    for j in range(cols)] for i in range(rows)],
        "engine": draw(st.sampled_from(["exact", "both"])),
        "points": draw(st.lists(st.lists(coords, min_size=n, max_size=n),
                                max_size=2)),
        "tasks": draw(st.lists(st.sampled_from(
            ["Mg", "segre", "distinguished", "Ma", "singular_metrics"]),
            min_size=1, max_size=5, unique=True)),
    }
    key = draw(st.none() | st.sampled_from(["reg", *spec]))
    if key is not None:
        spec[key] = draw(JSON_VALUES)
    return spec


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_scalar_text():
    assert parse_scalar_text("1/2") == Scalar("1/2")
    assert parse_scalar_text("-2") == Scalar(-2)
    assert parse_scalar_text("i") == Scalar(0, 1)
    assert parse_scalar_text("(1+2*i)") == Scalar(1, 2)


def test_load_spec_validation():
    spec = load_spec(DIAG2_SPEC)
    assert spec.matrix.rows == 2 and spec.engine == "exact"
    for engine in ("quantum", "numeric"):
        with pytest.raises(ParseError):
            load_spec({**DIAG2_SPEC, "engine": engine})
    with pytest.raises(ParseError):
        load_spec({**DIAG2_SPEC, "tasks": ["Mg", "nope"]})
    with pytest.raises(ParseError):
        load_spec({**DIAG2_SPEC, "points": [["0"]]})
    for bad in ({"reg": {"foo": 1}}, {"reg": {"chi_thresholds": [0.5, 0.75]}},
                {"reg": [1]}, {"reg": {1: 2, "a": 3}}, {"matrix": [[1, "0"], ["0", "x2"]]},
                {"matrix": [["x1", None], ["0", "x2"]]},
                {"matrix": ["x1", "x2"]}, {"matrix": "x1"}, {"matrix": 5}):
        with pytest.raises(ParseError):
            load_spec({**DIAG2_SPEC, **bad})
    for bad in BAD_SHAPES:
        with pytest.raises(ParseError):
            load_spec({**DIAG2_SPEC, **bad})
    # names that polynomial text cannot refer to: the imaginary unit, and
    # anything that is not one whole identifier token
    for names, bad in ((["i", "x2"], '"i"'), (["x1", "x1 "], '"x1 "'),
                       (["x 1", "x2"], '"x 1"'), (["2x", "x2"], '"2x"')):
        with pytest.raises(ParseError, match=bad):
            load_spec({**DIAG2_SPEC, "variables": names,
                       "matrix": [[names[0], names[1]]]})
    # reports name the coordinates x1..xn: other names, or the right names
    # out of order, are refused at the first one that differs
    for names, bad in ((["x2", "x1"], '"x2"'), (["a1", "x"], '"a1"'),
                       (["x1", "x2", 3], "3")):
        with pytest.raises(ParseError, match=f"name .* is {bad}"):
            load_spec({**DIAG2_SPEC, "variables": names})
    spec = load_spec({**DIAG2_SPEC, "reg": {"samples": 5000, "radius": 0.5}})
    assert (spec.reg.samples, spec.reg.radius) == (5000, 0.5)
    assert load_spec({**DIAG2_SPEC, "points": [[0, 0]]}).points == \
        [(Scalar(0), Scalar(0))]


def test_run_spec_diag2():
    report = run_spec(load_spec(DIAG2_SPEC), skip_numeric=True)
    assert report["results"]["segre"][0]["numbers"] == [0, 2, 1]
    assert json.loads(json.dumps(report)) == report


def test_exit_codes(tmp_path, capsys):
    ok = write_spec(tmp_path, DIAG2_SPEC)
    assert main(["run", ok, "--out", str(tmp_path / "r.json"),
                 "--skip-numeric"]) == 0

    general = write_spec(tmp_path, {
        "variables": ["x1", "x2"],
        "matrix": [["x1", "x2 + 1"], ["x2", "x1"]],
        "engine": "exact", "tasks": ["Mg"]}, "general.json")
    assert main(["run", general, "--out", str(tmp_path / "g.json")]) == 3
    assert "'segre-kit mass'" in capsys.readouterr().err

    # well formed, but P(E) needs n + r = 5 + 4 variables, past MAX_VARS
    wide = write_spec(tmp_path, {
        "variables": ["x1", "x2", "x3", "x4", "x5"],
        "matrix": [["x1", "0", "0", "0"], ["0", "x2", "0", "0"],
                   ["0", "0", "x3", "0"], ["0", "0", "0", "x4*x5"]],
        "engine": "exact", "tasks": ["Mg"]}, "wide.json")
    assert main(["run", wide, "--out", str(tmp_path / "w.json")]) == 3
    assert "n + r = 5 + 4" in capsys.readouterr().err
    # the mass balance lives on the same P(E), so mass refuses it alike
    diag8 = write_spec(tmp_path, {
        "variables": ["x1"],
        "matrix": [["x1" if i == j else "0" for j in range(8)]
                   for i in range(8)]}, "diag8.json")
    for command in ("run", "mass"):
        assert main([command, diag8, "--out", str(tmp_path / "d.json")]) == 3
        assert capsys.readouterr().err.endswith(
            "P(E) needs n + r = 1 + 8 variables, more than 8\n"), command
    # a unit summand is stripped first: diag(x1, .., x4, 1) runs on 4 + 4
    unit = write_spec(tmp_path, {
        "variables": ["x1", "x2", "x3", "x4"],
        "matrix": [["x1", "0", "0", "0", "0"], ["0", "x2", "0", "0", "0"],
                   ["0", "0", "x3", "0", "0"], ["0", "0", "0", "x4", "0"],
                   ["0", "0", "0", "0", "1"]],
        "engine": "exact", "tasks": ["Mg"]}, "unit.json")
    assert main(["run", unit, "--out", str(tmp_path / "u.json")]) == 0

    # a non-monomial two-entry row: the exact tower refuses it, while the
    # origin certificate and Fulton's count give its M^a
    pair = {"variables": ["x1", "x2"], "matrix": [["x1^2 - x2^3", "x1*x2"]],
            "engine": "exact"}
    path = write_spec(tmp_path, {**pair, "tasks": ["Mg"]}, "pair_mg.json")
    assert main(["run", path, "--out", str(tmp_path / "pg.json")]) == 3
    assert "structure GENERAL is outside the exact engine" in capsys.readouterr().err
    path = write_spec(tmp_path, {**pair, "tasks": ["Ma"]}, "pair_ma.json")
    assert main(["run", path, "--out", str(tmp_path / "pa.json")]) == 0

    # a common zero at (1e-7, 0) besides the origin: no exact M^a
    near = write_spec(tmp_path, {
        "variables": ["x1", "x2"], "matrix": [["x1^2 - 1/10000000*x1", "x2"]],
        "engine": "exact", "tasks": ["Ma"]}, "near.json")
    assert main(["run", near, "--out", str(tmp_path / "n.json")]) == 3
    # a common zero at (-1e-800, -1e-1200): resultant coefficients far
    # beyond the float range are still decided exactly
    huge = write_spec(tmp_path, {
        "variables": ["x1", "x2"],
        "matrix": [[f"x1^2 - {10 ** 400}*x1*x2", "x2^2 + x1^3"]],
        "engine": "exact", "tasks": ["Ma"]}, "huge.json")
    assert main(["run", huge, "--out", str(tmp_path / "h.json")]) == 3

    # a spec with no variables has no polydisk to take a mass over
    capsys.readouterr()
    empty = write_spec(tmp_path, {"variables": [], "matrix": [["1"]]},
                       "empty.json")
    assert main(["mass", empty]) == 2
    assert capsys.readouterr().err == \
        "input error: the spec has no variables: a mass needs x1 at least\n"
    # nor a signed current M^a
    for engine in ("exact", "both"):
        empty = write_spec(tmp_path, {"variables": [], "matrix": [["1", "2"]],
                                      "engine": engine, "tasks": ["Ma"]},
                           "empty_ma.json")
        assert main(["run", empty]) == 2
        assert capsys.readouterr().err == "input error: the spec has no " \
            "variables: M^a needs x1 at least\n", engine

    # the exact tower's refusals of a non-monomial hypersurface and of a
    # non-monomial column
    for matrix, message in (
            ([["x1 + x2^2"]], "divisor of a non-monomial base polynomial is "
                              "outside the exact tower"),
            ([["x1 + x2"], ["x2"]], "exact tower needs scalar*monomial "
                                    "entries for tuples of length >= 2")):
        path = write_spec(tmp_path, {"variables": ["x1", "x2"],
                                     "matrix": matrix}, "tower.json")
        assert main(["run", path]) == 3
        assert capsys.readouterr().err == f"unsupported input: {message}\n"

    # a sample count past 2^22, from the spec or from the flag, is refused
    # before any array is allocated
    big = write_spec(tmp_path, {"variables": ["x1"],
                                "matrix": [["x1^2", "0"], ["0", "x1"]],
                                "reg": {"samples": 10 ** 17}}, "big.json")
    for argv in (["mass", big], ["run", ok, "--samples", str(10 ** 30)],
                 ["golden", "--samples", str(10 ** 17)],
                 ["mass", ok, "--samples", str(2 ** 22 + 1)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == \
            "input error: samples must be at most 4194304\n", argv

    # a spec that is not a JSON object, and point coordinates that are not
    # strings or JSON integers, named as the JSON value
    for data, message in (
            ([1, 2], "spec must be a JSON object"),
            ({**DIAG2_SPEC, "points": [[True, 0]]}, "point coordinates must "
             "be strings or integers, not true"),
            ({**DIAG2_SPEC, "points": [["0", None]]}, "point coordinates "
             "must be strings or integers, not null"),
            ({**DIAG2_SPEC, "points": [[1.0, 0]]}, "point coordinates must "
             "be strings or integers, not 1.0")):
        path = write_spec(tmp_path, data, "shape.json")
        for argv in (["run", path, "--skip-numeric"], ["mass", path]):
            assert main(argv) == 2, (data, argv)
            assert capsys.readouterr().err == f"parse error: {message}\n"
    # every other refused value is named as the JSON the spec holds, and
    # ints past the float range are refused as input
    big = 10 ** 400
    for data, message in (
            ({**DIAG2_SPEC, "engine": True}, "parse error: unknown engine true"),
            ({**DIAG2_SPEC, "tasks": [None]}, "parse error: unknown task null"),
            ({**DIAG2_SPEC, "variables": [True, "x2"]},
             "parse error: 'variables' must be x1..x2 in order: name 1 is "
             'true, not "x1"'),
            ({"variables": ["x1"], "matrix": [["x1"]], "points": [[True, None]]},
             "parse error: point [true, null] has wrong length (n = 1)"),
            ({**DIAG2_SPEC, "reg": {"extrapolation": False}},
             "input error: unknown extrapolation false"),
            ({**DIAG2_SPEC, "reg": {"true": 1}},
             'parse error: unknown reg keys ["true"]; accepted: '
             '["epsilon_schedule", "samples", "seed", "radius", '
             '"extrapolation", "extrapolation_order"]'),
            ({**DIAG2_SPEC, "reg": {"radius": big}},
             "input error: radius must be a positive finite number"),
            ({**DIAG2_SPEC, "reg": {"extrapolation_order": big}},
             "input error: extrapolation order must be a positive number"),
            ({**DIAG2_SPEC, "reg": {"epsilon_schedule": [big, 1, 0.1]}},
             "input error: epsilon schedule must be positive and finite")):
        path = write_spec(tmp_path, data, "named.json")
        assert main(["run", path, "--skip-numeric"]) == 2, data
        assert capsys.readouterr().err == message + "\n"
    path = write_spec(tmp_path, {**DIAG2_SPEC, "points": [[1, -2]]}, "int.json")
    assert main(["run", path, "--skip-numeric", "--out",
                 str(tmp_path / "int_out.json")]) == 0

    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["run", str(broken)]) == 2

    # files the JSON decoder cannot read: not UTF-8, nested past the
    # recursion limit, an integer past the int-digit limit (Python >= 3.11)
    unreadable = {"latin1.json": '{"variables": ["\xe9"]}'.encode("latin-1"),
                  "deep.json": b"[" * 100000 + b"]" * 100000}
    if hasattr(sys, "get_int_max_str_digits") and sys.get_int_max_str_digits():
        seed = "1" + "0" * sys.get_int_max_str_digits()
        unreadable["digits.json"] = json.dumps(
            {**DIAG2_SPEC, "reg": {"seed": 0}}).replace(
            '"seed": 0', f'"seed": {seed}').encode()
    for name, data in unreadable.items():
        (tmp_path / name).write_bytes(data)
        for command in ("run", "mass"):
            assert main([command, str(tmp_path / name)]) == 2, name

    bad_poly = write_spec(tmp_path, {**DIAG2_SPEC, "matrix": [["x1", "+"], ["0", "x2"]]},
                          "badpoly.json")
    assert main(["run", bad_poly]) == 2

    # variables other than x1..xn in order, whose reports would name the
    # coordinates otherwise or clash with the fiber coordinates a1..ar
    capsys.readouterr()
    for i, (names, cells) in enumerate(((["x2", "x1"], ["x2^2", "x1"]),
                                        (["a1", "x"], ["a1", "x"]))):
        path = write_spec(tmp_path, {**DIAG2_SPEC, "variables": names,
                                     "matrix": [[cells[0], "0"], ["0", cells[1]]]},
                          f"names{i}.json")
        for command in ("run", "mass"):
            assert main([command, path]) == 2
            assert f'is "{names[0]}", not "x1"' in capsys.readouterr().err

    # truncated text in a matrix cell or a point coordinate
    for i, bad in enumerate(({"matrix": [["x1^", "0"], ["0", "x2"]]},
                             {"points": [["1/", "0"]]})):
        path = write_spec(tmp_path, {**DIAG2_SPEC, **bad}, f"truncated{i}.json")
        assert main(["run", path, "--skip-numeric"]) == 2, bad

    # integer literals past the int-digit limit (Python >= 3.11) in a matrix
    # cell, a point coordinate and an exponent
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        big = "1" + "0" * 5000
        for i, bad in enumerate(({"matrix": [[f"{big}*x1", "0"], ["0", "x2"]]},
                                 {"points": [[big, "0"]]},
                                 {"matrix": [[f"x1^{big}", "0"], ["0", "x2"]]})):
            path = write_spec(tmp_path, {**DIAG2_SPEC, **bad}, f"digits{i}.json")
            for command in ("run", "mass"):
                assert main([command, path]) == 2, (command, i)

    # malformed specs and bad regularization values exit 2, never a traceback
    for i, bad in enumerate(({"reg": {"foo": 1}},
                             {"reg": {"chi_thresholds": [0.5, 0.75]}},
                             {"matrix": [[1, "0"], ["0", "x2"]]},
                             {"matrix": ["x1", "x2"]},
                             {"reg": {"samples": 0}}, {"reg": {"samples": "a"}},
                             {"reg": {"radius": -1.0}}, {"reg": {"seed": 1.5}})
                            + BAD_SHAPES):
        path = write_spec(tmp_path, {**DIAG2_SPEC, **bad}, f"bad{i}.json")
        assert main(["run", path, "--skip-numeric"]) == 2, bad

    # values that overflow in the numeric oracles are undecided, not a
    # traceback or a NaN report
    for i, bad in enumerate(OVERFLOW_SPECS):
        path = write_spec(tmp_path, bad, f"overflow{i}.json")
        assert main(["mass", path]) == 4, bad

    # an epsilon schedule is a JSON list of numbers: not a string, an object
    # or a list with bools, whose characters, keys or 1.0 would run
    capsys.readouterr()
    for i, schedule in enumerate(("321", {"0.1": 1, "0.01": 2, "0.001": 3},
                                  [True, 0.5, 0.1])):
        path = write_spec(tmp_path, {"variables": ["x1"], "matrix": [["x1^2"]],
                                     "reg": {"epsilon_schedule": schedule}},
                          f"schedule{i}.json")
        assert main(["mass", path]) == 2, schedule
        assert capsys.readouterr().err == \
            "input error: epsilon schedule must be a list of numbers\n"

    # numeric flags are validated by RegConfig, for golden as for run
    assert main(["run", ok, "--skip-numeric", "--epsilon-schedule", "abc"]) == 2
    assert main(["golden", "--skip-numeric", "--epsilon-schedule", "5,1"]) == 2
    # the spec engine is exact or both; only run takes --engine, and only
    # run and golden take --skip-numeric
    numeric = write_spec(tmp_path, {**DIAG2_SPEC, "engine": "numeric"},
                         "numeric.json")
    assert main(["run", numeric]) == 2
    for argv in (["golden", "--engine", "both"],
                 ["run", ok, "--engine", "numeric"],
                 ["mass", ok, "--engine", "both"], ["mass", ok, "--skip-numeric"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_overflow_reaches_stderr_as_one_line(tmp_path, capsys):
    # the oracles turn non-finite values into an undecided exit themselves,
    # so numpy's own RuntimeWarnings would only add noise to stderr
    for i, bad in enumerate(OVERFLOW_SPECS):
        path = write_spec(tmp_path, bad, f"overflow{i}.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["mass", path]) == 4, bad
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], bad
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 1 and "NaN" not in out, bad


def test_parse_error_positions(tmp_path, capsys):
    """Positions point at the offending token, 1-based; unknown parts are
    left out."""
    cases = [({"matrix": [["x1 + -x2", "0"], ["0", "x2"]]},
              "unknown symbol '-' (column 6)"),
             ({"matrix": [["@x1", "0"], ["0", "x2"]]},
              "unexpected character '@' (column 1)"),
             ({"matrix": [["x1", "0"], ["0", "x2^y"]]},
              "exponent must be a decimal integer (column 4)"),
             ({"matrix": [["(1", "0"], ["0", "x2"]]}, "expected ')'")]
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        cases.append(({"points": [["1/2", "(1 + " + "7" * 5000 + "*i)"]]},
                      "integer literal of 5000 digits is too long (column 6)"))
    for i, (bad, message) in enumerate(cases):
        path = write_spec(tmp_path, {**DIAG2_SPEC, **bad}, f"pos{i}.json")
        assert main(["run", path, "--skip-numeric"]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"
    broken = tmp_path / "broken.json"
    broken.write_text('{\n  "matrix": oops}')
    assert main(["run", str(broken)]) == 2
    assert capsys.readouterr().err.endswith("(line 2, column 13)\n")


SPEC_SECONDS = 5.0


@given(spec=fuzz_specs())
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_contract_on_generated_specs(tmp_path, capsys, spec):
    # any spec, with or without the numeric oracles: an exit code of the
    # contract, never an escaping exception or a traceback, and no NaN or
    # infinite value in a report
    path = write_spec(tmp_path, spec)
    for flags in (["--skip-numeric"], []):
        start = time.perf_counter()
        code = main(["run", path, *flags])
        # a few milliseconds each today; a spec that hangs fails here
        assert time.perf_counter() - start < SPEC_SECONDS, (spec, flags)
        assert code in (0, 2, 3, 4)
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert "NaN" not in out and "Infinity" not in out


def test_undecided_exit_code(tmp_path, capsys):
    # a two-factor product has no exact rule and the oracle refuses it too
    spec = write_spec(tmp_path, {
        "variables": ["x1", "x2", "x3"],
        "matrix": [["x1*x3", "0", "0"], ["0", "x2*x3", "0"], ["0", "0", "x3^2"]],
        "engine": "exact",
        "points": [["0", "0", "0"]],
        "tasks": ["segre"],
        "reg": {"samples": 2000},
    }, "s2.json")
    # the gcd-diagonal query at the origin is decidable; force the undecided
    # path with a crafted cycle instead
    from segre_kit.cycles import (GeneralizedCycle, MovingFactor, Space,
                                  VarietyRef, multiplicity_at, term)
    from segre_kit.errors import UndecidedError
    from segre_kit.poly import parse_polynomial

    f1 = MovingFactor((parse_polynomial("x1", 2), parse_polynomial("x2", 2)), 1)
    f2 = MovingFactor((parse_polynomial("x1 - x2", 2),
                       parse_polynomial("x2", 2)), 1)
    c = GeneralizedCycle(Space(2), 2,
                         [term(1, VarietyRef.whole_space(), moving=(f1, f2))])
    with pytest.raises(UndecidedError):
        multiplicity_at(c, [0, 0])
    # the CLI still answers the gcd-diagonal query (oracle succeeds there)
    assert main(["run", spec, "--out", str(tmp_path / "o.json")]) == 0


def test_golden_detects_corruption(monkeypatch):
    # a corrupted fixture must fail with a readable diff and exit code 1
    import segre_kit.golden as golden

    real_check = golden._check

    def corrupt(name, expected, got):
        if name == "diag2.M1":
            return real_check(name, expected, "[x1=0]")
        return real_check(name, expected, got)

    monkeypatch.setattr(golden, "_check", corrupt)
    checks, _ = golden.golden_suite(True, RegConfig())
    bad = [c for c in checks if not c["pass"]]
    assert len(bad) == 1 and bad[0]["name"] == "diag2.M1"
    assert bad[0]["expected"] != bad[0]["got"]


def test_mass_command(tmp_path):
    spec = write_spec(tmp_path, {
        "variables": ["x1"],
        "matrix": [["x1^2", "0"], ["0", "x1"]],
        "reg": {"samples": 20000},
    }, "mass.json")
    out = tmp_path / "mass_report.json"
    assert main(["mass", spec, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    mb = rep["results"]["mass_balance"]
    assert mb["det_count"] == 3 and mb["pass"]


# one spec per mass class, and the sha256 of its report re-encoded by
# json.dumps(indent=2) without "versions" and without the mass-balance
# details' "stderr"; pinned before the mass oracles skipped their
# identically zero terms, which must leave every other byte as it was
MASS_SPECS = {
    "balance2": ({"variables": ["x1"], "matrix": [["x1^2", "0"], ["0", "x1^3"]],
                  "reg": {"seed": 11, "samples": 4096}},
                 "38f4c5cd29b6f922c37de31b461b65040ad0f87ac38d2c8cd68bd522113f3ef9"),
    "balance3": ({"variables": ["x1"],
                  "matrix": [["x1^2", "0", "0"], ["0", "x1", "0"],
                             ["0", "0", "x1^3"]],
                  "reg": {"seed": 12, "samples": 4096}},
                 "30b19cf9f2ffc27f84b4d871292ae996e82280aa119c653da1946ec8248b1390"),
    "eps_table": ({"variables": ["x1", "x2"],
                   "matrix": [["x1^2 - 3/4*x2^3", "x2^2"]],
                   "reg": {"seed": 13, "samples": 4096}},
                  "f102cf8be9cee6dbc231f30ca880397fcef768ea3d60f4ce4786012c45317348"),
}


@pytest.mark.parametrize("name", sorted(MASS_SPECS))
def test_mass_report_pinned(tmp_path, capsys, name):
    spec, digest = MASS_SPECS[name]
    assert main(["mass", write_spec(tmp_path, spec)]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["versions"]
    for detail in report["results"].get("mass_balance", {}).get("detail", []):
        assert detail.pop("stderr") > 0
    text = json.dumps(report, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# one exact spec per report shape and the sha256 of its report without
# "versions"; pinned while reports were still written by json.dumps, and
# cli._json_text must leave every byte as it was
EXACT_TASKS = ["Mg", "segre", "distinguished", "singular_metrics"]
RUN_SPECS = {
    "diag_monomial": ({"variables": ["x1", "x2", "x3"],
                       "matrix": [["x1*x3", "0", "0"], ["0", "2*x2*x3", "0"],
                                  ["0", "0", "x3^2"]],
                       "points": [["0", "0", "0"], ["1", "0", "0"],
                                  ["0", "-1", "0"]],
                       "tasks": EXACT_TASKS},
                      "f12cb3b08199634cb92016b16c97d363a5715a4972c0de8fc409e101d38dcdeb"),
    "coprime_row": ({"variables": ["x1", "x2", "x3"],
                     "matrix": [["x1^2*x3", "3*x2*x3"]],
                     "points": [["0", "0", "0"], ["0", "2", "0"]],
                     "tasks": EXACT_TASKS},
                    "a60e0d56f7a009beeaea4b382bb0b5097885719c55346a5cc2fd18a4cc3149e6"),
    "general_row_both": ({"variables": ["x1", "x2"],
                          "matrix": [["x1^2 - 3/4*x2^3", "x1*x2^2"]],
                          "engine": "both", "tasks": ["Ma"]},
                         "fdd0de84620ff5ffb3fffb66e1456aa169bee42bdfe3c0676d4f5713dcc4c67e"),
    "monomial_row_both": ({"variables": ["x1", "x2"],
                           "matrix": [["2*x1^2*x2", "3*x1*x2^3"]],
                           "engine": "both",
                           "points": [["0", "0"], ["1", "0"], ["0", "-1"],
                                      ["2", "1"]],
                           "tasks": ["Mg", "segre", "Ma"]},
                          "b832e0e1eb4ab4af56c788a02aa779ae8b89515621bb47a7145efde0b2821d99"),
    # no s(F-hat): a square g with det g = 0, and a row left by a unit block
    "degenerate_square": ({"variables": ["x1", "x2"],
                           "matrix": [["x1", "0"], ["0", "0"]],
                           "points": [["0", "0"], ["0", "1"]],
                           "tasks": EXACT_TASKS},
                          "23ef3d706cf6625cef8e6d1f5ac8abe5dfc76e8483b7bce2c3e84ca63c89373a"),
    "unit_reduced_row": ({"variables": ["x1", "x2"],
                          "matrix": [["x1", "x2", "0"], ["0", "0", "1"]],
                          "points": [["0", "0"], ["1", "0"]],
                          "tasks": EXACT_TASKS},
                         "58668410ead6fa958feedfefc68e24554194f92ca886938d7b6bc684d87e00b8"),
}


@pytest.mark.parametrize("name", sorted(RUN_SPECS))
def test_run_report_pinned(tmp_path, capsys, name):
    spec, digest = RUN_SPECS[name]
    path = write_spec(tmp_path, spec)
    out = tmp_path / "report.json"
    assert main(["run", path]) == 0
    text = capsys.readouterr().out
    assert main(["run", path, "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()
    report = json.loads(text)
    assert text == json.dumps(report, indent=2) + "\n"
    del report["versions"]
    text = json.dumps(report, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


JSON_STRINGS = st.text() | st.sampled_from(
    ["", " ", "\ud800", "\udfff\ud800", "\x00\x1f\x7f\n\t", '"\\/', "\u00e9\u2211",
     "\U0001f600"])
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-10 ** 300, 10 ** 300) | st.floats()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0,
                       5e-324, 1e16])
    | JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_STRINGS | st.integers() | st.booleans() | st.none()
                      | st.floats(), inner, max_size=4),
    max_leaves=25)


@given(value=REPORT_VALUES)
@settings(max_examples=400, deadline=None, derandomize=True)
@example(value=[[], {}, (), {"a": [{}]}, [[()]]])
@example(value={"x": True, "y": 1, "z": [False, 0, 10 ** 200, -0.0]})
def test_report_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "segre_kit.cli", "golden", "--skip-numeric"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert all(c["pass"] for c in rep["checks"])


def test_closed_stdout_keeps_the_exit_code(tmp_path):
    # the reader is gone before the report is written (``| head``): the
    # checks' exit code, and nothing on stderr
    spec = write_spec(tmp_path, DIAG2_SPEC)
    with subprocess.Popen(
            [sys.executable, "-m", "segre_kit.cli", "run", spec,
             "--skip-numeric"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_out_is_an_output_error(tmp_path, target):
    spec = write_spec(tmp_path, DIAG2_SPEC)
    proc = subprocess.run(
        [sys.executable, "-m", "segre_kit.cli", "run", spec, "--skip-numeric",
         "--out", str(tmp_path / target)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("output error: ")
    assert proc.stderr.count("\n") == 1


def test_flag_overrides(tmp_path):
    spec = write_spec(tmp_path, {**DIAG2_SPEC, "tasks": ["Mg"]})
    out = tmp_path / "o.json"
    assert main(["run", spec, "--seed", "42", "--samples", "5000",
                 "--epsilon-schedule", "0.1,0.01,0.001",
                 "--out", str(out), "--skip-numeric"]) == 0
    rep = json.loads(out.read_text())
    assert rep["seed"] == 42


def test_parser_is_reused_across_calls(tmp_path, capsys):
    # the parser is built once per process: a call after one with other
    # flags prints what a first call prints
    import segre_kit.cli as cli

    spec = write_spec(tmp_path, {**DIAG2_SPEC, "tasks": ["Mg", "segre"]})
    calls = (["run", spec, "--engine", "both"], ["run", spec],
             ["run", spec, "--seed", "7"], ["run", spec])
    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append((main(argv), capsys.readouterr()))
    again = [(main(argv), capsys.readouterr()) for argv in calls]
    assert again == first
    # the flags take effect: --engine both adds the comparison block, and the
    # seed is reported
    assert [code for code, _ in first] == [0, 0, 0, 0]
    assert '"comparison"' in first[0][1].out
    assert '"comparison"' not in first[1][1].out
    assert '"seed": 7' in first[2][1].out and '"seed": 7' not in first[3][1].out


def test_verify_task_populates_checks():
    spec = load_spec({**DIAG2_SPEC, "tasks": ["verify"]})
    report = run_spec(spec, skip_numeric=True)
    assert report["checks"] and all(c["pass"] for c in report["checks"])


def test_exit_code_one_on_check_failure(tmp_path, monkeypatch):
    import segre_kit.cli as cli
    import segre_kit.golden as golden

    real_check = golden._check

    def corrupt(name, expected, got):
        if name == "diag2.M1":
            return real_check(name, expected, "[x1=0]")
        return real_check(name, expected, got)

    monkeypatch.setattr(golden, "_check", corrupt)
    assert cli.main(["golden", "--skip-numeric",
                     "--out", str(tmp_path / "g.json")]) == 1


def test_exit_code_four_on_undecided(tmp_path, monkeypatch):
    import segre_kit.cli as cli
    from segre_kit.errors import UndecidedError

    def boom(spec, skip_numeric=False):
        raise UndecidedError("estimate did not stabilize",
                             diagnostics={"estimates": [1, 2]})

    monkeypatch.setattr(cli, "run_spec", boom)
    spec = write_spec(tmp_path, DIAG2_SPEC)
    assert cli.main(["run", spec]) == 4


def test_radius_and_extrapolation_flags(tmp_path):
    spec = write_spec(tmp_path, {
        "variables": ["x1"],
        "matrix": [["x1", "0"], ["0", "x1"]],
        "reg": {"samples": 20000},
    }, "radius.json")
    out = tmp_path / "o.json"
    assert main(["mass", spec, "--radius", "0.7", "--extrapolation", "NONE",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["input"]["reg"]["samples"] == 20000
    assert rep["results"]["mass_balance"]["radius"] == 0.7


def test_both_engine_on_gcd_diagonal(tmp_path):
    spec = write_spec(tmp_path, {
        "variables": ["x1", "x2", "x3"],
        "matrix": [["x1*x3", "0", "0"], ["0", "x2*x3", "0"], ["0", "0", "x3^2"]],
        "engine": "both",
        "points": [["0", "0", "0"], ["0", "1", "0"]],
        "tasks": ["Mg", "segre"],
        "reg": {"samples": 5000},
    }, "gcd3.json")
    out = tmp_path / "r.json"
    assert main(["run", spec, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    comp = rep["results"]["comparison"]
    assert comp and all(c["agree"] for c in comp)
    by_point = {(tuple(c["point"]), c["k"]): c["exact"] for c in comp}
    assert by_point[(("0", "0", "0"), 1)] == 6
    assert by_point[(("0", "1", "0"), 1)] == 5
    assert by_point[(("0", "1", "0"), 2)] == 2
