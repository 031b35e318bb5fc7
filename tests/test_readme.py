"""The README's library quick start runs as written: each line it prints is
the ``# ...`` comment on its ``print`` line.  Its spec example runs as written
through ``segre-kit run``: every requested task is reported, every
comparison row agrees, and numpy is never loaded."""

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_quick_start_prints_its_comments():
    block, = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == \
        [line.split("#", 1)[1].strip() for line in prints]


def test_spec_example_runs_through_the_command(tmp_path):
    block, = re.findall(r"^```json\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    spec, out = tmp_path / "spec.json", tmp_path / "out.json"
    spec.write_text(block)
    # the segre-kit script of pyproject.toml, in a fresh interpreter
    script, = re.findall(r'^segre-kit = "([\w.]+):(\w+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.M)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
         f"from {script[0]} import {script[1]} as command\n"
         f"code = command(['run', {str(spec)!r}, '--out', {str(out)!r}])\n"
         "assert 'numpy' not in sys.modules\n"
         "sys.exit(code)\n"], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    data = json.loads(block)
    results = json.loads(out.read_text())["results"]
    assert set(data["tasks"]) <= set(results)
    rows = results["comparison"]
    assert data["engine"] == "both" and rows
    assert all(row["agree"] for row in rows), rows
