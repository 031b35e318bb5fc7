"""Every name a segre_kit module imports is referenced in that module and
every private module-level helper is referenced somewhere in the package (no
linter runs on the package, and deletions tend to leave strays behind), the
third-party modules the package imports are exactly its declared
dependencies, the mass command runs without importing scipy, and every
function the benchmark's tracer wraps by name exists."""

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


def unreferenced_private_names(sources):
    """``module:name`` for each module-level private function or class
    (leading underscore) that no source in ``sources`` (a dict of module
    name to text) mentions outside the lines of its own definition."""
    found = []
    for module, source in sources.items():
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    not node.name.startswith("_"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = lines[:start - 1] + lines[node.end_lineno:]
            others = [text for name, text in sources.items() if name != module]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(text) for text in ["\n".join(rest), *others]):
                found.append(f"{module}:{node.name}")
    return found


def test_private_helpers_are_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_unreferenced_private_helper_is_caught():
    sources = {"a.py": ("def _orphan(n):\n    return _orphan(n - 1)\n\n\n"
                        "class _Used:\n    pass\n"),
               "b.py": "from a import _Used\n"}
    assert unreferenced_private_names(sources) == ["a.py:_orphan"]


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


MASS_SPECS = {
    "mass_balance": {"variables": ["x1"], "matrix": [["x1^2", "0"], ["0", "x1"]]},
    "epsilon_mass": {"variables": ["x1", "x2"], "matrix": [["x1", "x2"]]},
}


@pytest.mark.parametrize("kind", sorted(MASS_SPECS))
def test_mass_command_does_not_import_scipy(tmp_path, kind):
    spec, out = tmp_path / "spec.json", tmp_path / "out.json"
    spec.write_text(json.dumps({**MASS_SPECS[kind], "reg": {"samples": 1000}}))
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r})\n"
            "from segre_kit import cli\n"
            f"assert cli.main(['mass', {str(spec)!r}, '--out', {str(out)!r}]) == 0\n"
            "assert 'scipy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert kind in json.loads(out.read_text())["results"]


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
