"""Every name a segre_kit module imports is referenced in that module (no
linter runs on the package, and deletions tend to leave stray imports), the
third-party modules the package imports are exactly its declared
dependencies, and the mass command runs without importing scipy."""

import ast
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
