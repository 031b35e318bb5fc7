"""The README's library quick start runs as written: each line it prints is
the ``# ...`` comment on its ``print`` line."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
