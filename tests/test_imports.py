"""Every name a segre_kit module imports is referenced in that module,
every private module-level helper is referenced somewhere in the package and
every public one there or in the package's ``__all__``, every public method
of a module-level class is reached as an attribute (``x.name``,
``Cls.name``) somewhere in the package, not just named (no linter runs on
the package, and deletions tend to leave strays behind), no
function body imports a segre_kit module (the package's imports form no
cycle), numeric imports no private name from cycles, the third-party modules the package imports are exactly its declared
dependencies, the mass command runs without importing scipy, every exact
path (exact runs, the Crofton oracle, `--engine both`, `golden
--skip-numeric`) without importing numpy or starting a thread and the full
golden suite loads it when it needs it, and every function the benchmark's tracer wraps by name
exists, no module but cycles.py knows where the fiber exponents of the
ambient start, and no module but cycles.py and tower.py names the kind of a
variety."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "segre_kit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = ("from segre_kit.errors import InputError, ParseError\n"
              "raise InputError('x')\n")
    assert unused_imports(source) == ["ParseError"]


def private_imports(source: str, module: str):
    """The underscore-prefixed names the source imports from ``module``."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == module
            for a in node.names if a.name.startswith("_")]


def test_numeric_imports_no_private_name_from_cycles():
    # the oracles reach the cycle layer through its public localization
    source = (SRC / "numeric.py").read_text()
    assert private_imports(source, "segre_kit.cycles") == []
    assert private_imports("from segre_kit.cycles import _x, y\n",
                           "segre_kit.cycles") == ["_x"]


def nested_package_imports(source: str):
    """``function:module`` for each segre_kit module that a function body
    in the source imports."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] if node.level == 0 else ["."]
            else:
                continue
            found += [f"{fn.name}:{m}" for m in mods
                      if m == "." or m.split(".")[0] == "segre_kit"]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_package_imports_in_function_bodies(path):
    assert nested_package_imports(path.read_text()) == []


def test_nested_package_import_is_caught():
    source = ("import numpy\nfrom segre_kit.poly import Polynomial\n"
              "def f():\n    import json\n    from segre_kit.engine import g\n"
              "    def h():\n        import segre_kit.numeric\n")
    assert nested_package_imports(source) == [
        "f:segre_kit.engine", "f:segre_kit.numeric", "h:segre_kit.numeric"]


def attribute_lines(source: str) -> dict:
    """Each attribute name the source reaches (``x.name``, ``Cls.name``),
    with the lines it is reached on."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found.setdefault(node.attr, set()).add(node.lineno)
    return found


def unreferenced_names(sources, public=False, exported=()):
    """``module:name`` for each module-level function or class, private
    (leading underscore) or, with ``public``, public, that no source in
    ``sources`` (a dict of module name to text) mentions outside the lines
    of its own definition and that ``exported`` does not list; with
    ``public`` also ``module:Class.name`` for each public function or class
    in the body of a module-level class that no source reaches as an
    attribute outside the lines of its own definition.  A method's name
    alone (a parameter, a local, a word in a docstring) does not use it."""
    found = []
    reached = {name: attribute_lines(text) for name, text in sources.items()}
    for module, source in sources.items():
        lines = source.splitlines()
        body = ast.parse(source).body
        nodes = [(node, "") for node in body]
        if public:
            nodes += [(node, f"{cls.name}.") for cls in body
                      if isinstance(cls, ast.ClassDef) for node in cls.body]
        others = [text for name, text in sources.items() if name != module]
        for node, owner in nodes:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_") == public or node.name in exported:
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if owner:
                used = any(name != module or not start <= line <= node.end_lineno
                           for name, attrs in reached.items()
                           for line in attrs.get(node.name, ()))
            else:
                rest = lines[:start - 1] + lines[node.end_lineno:]
                word = re.compile(rf"\b{re.escape(node.name)}\b")
                used = any(word.search(text)
                           for text in ["\n".join(rest), *others])
            if not used:
                found.append(f"{module}:{owner}{node.name}")
    return found


def test_private_helpers_are_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_names(sources) == []


def test_unreferenced_private_helper_is_caught():
    sources = {"a.py": ("def _orphan(n):\n    return _orphan(n - 1)\n\n\n"
                        "class _Used:\n    pass\n"),
               "b.py": "from a import _Used\n"}
    assert unreferenced_names(sources) == ["a.py:_orphan"]


def exported_names(source: str) -> set:
    """The names a module lists in its ``__all__``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    return set()


def test_public_names_are_referenced_or_exported():
    # a public function or class that only tests call is a door the
    # package does not use; the package's API is what __init__ exports
    sources = {p.name: p.read_text() for p in MODULES}
    exported = exported_names((SRC / "__init__.py").read_text())
    assert exported and unreferenced_names(sources, True, exported) == []


def test_unreferenced_public_name_is_caught():
    sources = {"a.py": ("def orphan(n):\n    return orphan(n - 1)\n\n\n"
                        "def api():\n    pass\n\n\nclass Used:\n    pass\n"
                        "\n\ndef _private():\n    pass\n"),
               "b.py": "from a import Used\n"}
    exported = exported_names("__all__ = ['api']\n")
    assert unreferenced_names(sources, True, exported) == ["a.py:orphan"]


def test_unreferenced_public_method_is_caught():
    # a method that only tests call is caught; private and dunder methods,
    # and methods of nested classes, are not checked
    sources = {"a.py": ("class Used:\n"
                        "    def orphan(self):\n        return self.orphan()\n\n"
                        "    def called(self):\n        pass\n\n"
                        "    def __eq__(self, other):\n        return True\n\n"
                        "    def _helper(self):\n        pass\n\n"
                        "    class Inner:\n        def deep(self):\n"
                        "            pass\n"),
               "b.py": "from a import Used\nUsed().called()\nUsed.Inner\n"}
    assert unreferenced_names(sources, True) == ["a.py:Used.orphan"]
    # a method is used only where a source reaches it as an attribute: a
    # parameter of the same name, called elsewhere, does not use it
    sources["b.py"] += "\n\ndef run(orphan):\n    orphan()\n\n\nrun(print)\n"
    assert unreferenced_names(sources, True) == ["a.py:Used.orphan"]
    sources["b.py"] += "run(Used().orphan)\n"
    assert unreferenced_names(sources, True) == []


def _is_n(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "n"


def fiber_layout_sites(source: str):
    """The expressions in the source that know where the fiber exponents of
    the ambient (x, a) start: a subscript sliced at some ``.n``
    (``m[:space.n]``, ``m[space.n:]``), a sum or difference with some
    ``.n`` (``space.n + j``, ``var - space.n``), and ``n`` plus a
    non-constant (``n + chart``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
            hit = any(_is_n(b) for b in (node.slice.lower, node.slice.upper))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            sides = (node.left, node.right)
            hit = any(map(_is_n, sides)) or isinstance(node.op, ast.Add) and any(
                isinstance(a, ast.Name) and a.id == "n"
                and not isinstance(b, ast.Constant) for a, b in (sides, sides[::-1]))
        else:
            continue
        if hit:
            found.append(ast.get_source_segment(source, node))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_space_knows_the_fiber_layout(path):
    # cycles.Space lifts, splits and charts every polynomial on X x P^{r-1}
    if path.name != "cycles.py":
        assert fiber_layout_sites(path.read_text()) == []


def test_fiber_layout_site_is_caught():
    source = ("def f(space, m, j, n, samples):\n"
              "    base, fiber = m[:space.n], m[space.n:]\n"
              "    index, back = space.n + j, j - space.n\n"
              "    return n + j, n + 1, samples[:n], space.n * 2\n")
    assert fiber_layout_sites(source) == [
        "m[:space.n]", "m[space.n:]", "space.n + j", "j - space.n", "n + j"]


KIND_READERS = {"cycles.py", "tower.py"}


def variety_kind_lines(source: str):
    """The lines of the source that name ``VarietyKind``: an import of it,
    a bare use or an attribute of a module."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.alias) and node.name == "VarietyKind"
                   or isinstance(node, ast.Name) and node.id == "VarietyKind"
                   or isinstance(node, ast.Attribute)
                   and node.attr == "VarietyKind"})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cycles_and_tower_name_the_variety_kind(path):
    # everything else reads a support's zero sets, codim and text
    if path.name not in KIND_READERS:
        assert variety_kind_lines(path.read_text()) == []


def test_variety_kind_name_is_caught():
    source = ('"""Reads VarietyKind only in this docstring."""\n'
              "from segre_kit.cycles import VarietyKind as K, VarietyRef\n"
              "import segre_kit.cycles as cycles\n"
              "def f(t):\n"
              "    return t.kind == cycles.VarietyKind.POINT or \\\n"
              "        isinstance(t, VarietyKind)\n")
    assert variety_kind_lines(source) == [2, 5, 6]


def third_party_modules(source: str):
    """Top-level modules imported anywhere in the source (function bodies
    included) that are neither standard library nor segre_kit."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"segre_kit"}


def test_third_party_modules_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    # each distribution here installs a module of the same name
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in deps}
    imported = set().union(*(third_party_modules(p.read_text())
                             for p in SRC.glob("*.py")))
    assert imported == declared


def test_third_party_modules_found_in_function_bodies():
    source = ("import os.path\nfrom segre_kit.poly import Polynomial\n"
              "def f():\n    from scipy.stats import qmc\n    import numpy as np\n")
    assert third_party_modules(source) == {"numpy", "scipy"}


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Runs ``code`` in a new interpreter that imports segre_kit from SRC."""
    return subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(SRC.parent)!r})\n{code}"],
        capture_output=True, text=True)


MASS_SPECS = {
    "mass_balance": {"variables": ["x1"], "matrix": [["x1^2", "0"], ["0", "x1"]]},
    "epsilon_mass": {"variables": ["x1", "x2"], "matrix": [["x1", "x2"]]},
}


# each spec makes one oracle call, which starts exactly one worker thread
@pytest.mark.parametrize("kind", sorted(MASS_SPECS))
def test_mass_command_does_not_import_scipy(tmp_path, kind):
    spec, out = tmp_path / "spec.json", tmp_path / "out.json"
    spec.write_text(json.dumps({**MASS_SPECS[kind], "reg": {"samples": 1000}}))
    proc = run_fresh(
        COUNT_THREADS + "from segre_kit import cli\n"
        f"assert cli.main(['mass', {str(spec)!r}, '--out', {str(out)!r}]) == 0\n"
        "assert 'scipy' not in sys.modules and 'numpy' in sys.modules\n"
        "assert len(started) == 1 and threading.active_count() == 1, started\n")
    assert proc.returncode == 0, proc.stderr
    assert kind in json.loads(out.read_text())["results"]


# fresh-interpreter runs after which numpy must not be loaded: (spec written
# to SPEC, code, expected stderr).  Every exact task with the moving term
# decided by its exact rule; a power-2 moving term in dimension 3 that no
# oracle rule covers (exit 4); the comparison block, every row present and
# agreeing; a direct Crofton call; the exact golden checks
ROW_SPEC = {"variables": ["x1", "x2"], "matrix": [["x1", "x2"]],
            "points": [["0", "0"]], "reg": {"samples": 1000}}
RUN = ("from segre_kit import cli\n"
       "code = cli.main(['run', SPEC, '--out', OUT])\n"
       "assert code == {}, code\n")
EXACT_RUNS = {
    "import": (ROW_SPEC, "import segre_kit\n", ""),
    "tasks": ({"variables": ["x1", "x2", "x3"],
               "matrix": [["x1*x3", "x2*x3", "x3^2"]],
               "points": [["0", "0", "0"], ["1", "0", "0"]],
               "tasks": ["Mg", "segre", "distinguished", "singular_metrics"]},
              RUN.format(0), ""),
    "no_oracle_rule": (
        {"variables": ["x1", "x2", "x3", "x4"],
         "matrix": [["3*x1*x4", "0", "0"], ["0", "3*x1*x3^2", "0"],
                    ["0", "0", "x1*x2"]],
         "points": [["0", "0", "0", "0"]]},
        RUN.format(4),
        "undecided: no oracle rule for total slice power 2 in dimension 3\n"),
    "run_engine_both": (
        ROW_SPEC,
        "import json\n"
        "from segre_kit import cli\n"
        "assert cli.main(['run', SPEC, '--engine', 'both', '--out', OUT]) == 0\n"
        "rows = json.load(open(OUT))['results']['comparison']\n"
        "assert [row['k'] for row in rows] == [0, 1, 2], rows\n"
        "assert all(row['agree'] for row in rows), rows\n", ""),
    "crofton": (
        ROW_SPEC,
        "from segre_kit import MovingFactor, VarietyRef, parse_polynomial\n"
        "from segre_kit import crofton_moving_multiplicity\n"
        "f = MovingFactor((parse_polynomial('x1', 2),\n"
        "                  parse_polynomial('x2^2', 2)), 1)\n"
        "assert crofton_moving_multiplicity(\n"
        "    [f], VarietyRef.whole_space(), [0, 0]) == 1\n", ""),
    "golden_skip_numeric": (
        ROW_SPEC,
        "from segre_kit import cli\n"
        "assert cli.main(['golden', '--skip-numeric', '--out', OUT]) == 0\n",
        ""),
}


# counts every thread started after it runs (a mass oracle call starts one)
COUNT_THREADS = ("import threading\n"
                 "started = []\n"
                 "_start = threading.Thread.start\n"
                 "def counting_start(self):\n"
                 "    started.append(self.name)\n"
                 "    _start(self)\n"
                 "threading.Thread.start = counting_start\n")


@pytest.mark.parametrize("kind", sorted(EXACT_RUNS))
def test_exact_path_does_not_import_numpy(tmp_path, kind):
    data, code, stderr = EXACT_RUNS[kind]
    spec, out = tmp_path / "spec.json", tmp_path / "out.json"
    spec.write_text(json.dumps(data))
    proc = run_fresh(COUNT_THREADS
                     + f"SPEC, OUT = {str(spec)!r}, {str(out)!r}\n" + code
                     + "assert 'numpy' not in sys.modules\n"
                     + "assert not started, started\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == stderr


def test_full_golden_loads_numpy_on_demand(tmp_path):
    out = tmp_path / "out.json"
    proc = run_fresh("from segre_kit import cli\n"
                     "assert 'numpy' not in sys.modules\n"
                     f"assert cli.main(['golden', '--out', {str(out)!r}]) == 0\n"
                     "assert 'numpy' in sys.modules\n")
    assert proc.returncode == 0, proc.stderr


def traced_names(source: str):
    """``module.function`` for each entry of the ``TRACED`` dict literal in
    the source of perfbench/spans.py, read without importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return [f"{mod}.{fn}" for mod, fns in
                    ast.literal_eval(node.value).items() for fn in fns]
    raise AssertionError("no TRACED literal")


def missing_span_targets(names):
    """The names among ``module.function`` that segre_kit.module does not
    define as a callable: the tracer's getattr would fail on them."""
    return [name for name in names if not callable(getattr(
        importlib.import_module(f"segre_kit.{name.split('.')[0]}"),
        name.split(".")[1], None))]


def test_traced_span_names_exist():
    names = traced_names((ROOT / "perfbench" / "spans.py").read_text())
    assert "numeric.contour_root_count" in names
    assert missing_span_targets(names) == []


def test_missing_span_target_is_caught():
    source = ('QMC = "numeric.qmc"\n'
              'TRACED = {"numeric": ["contour_root_count", "no_such_fn"],\n'
              '          "poly": ["resultant", "MAX_VARS"]}\n')
    assert missing_span_targets(traced_names(source)) == [
        "numeric.no_such_fn", "poly.MAX_VARS"]
