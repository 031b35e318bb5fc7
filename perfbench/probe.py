"""Set-up probe, run in a fresh interpreter: import segre_kit from the given
source tree, run one operation, then print ``done <exit code> <seconds>
<loop seconds>``, the seconds counted from the wall-clock time the parent
passed in just before starting this interpreter, and the loop seconds the
median time of the interpreter's reference loop (``run.python_loop``), taken
afterwards in this process, so on the CPU that ran the probe.

usage: python3 perfbench/probe.py <src dir> <run|mass> <spec.json> <start>
"""

import contextlib
import io
import sys
import time

src, command, spec, start = sys.argv[1:5]
sys.path.insert(0, src)

from segre_kit import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    code = cli.main([command, spec])
elapsed = time.time() - float(start)

import statistics  # noqa: E402

from run import MIN_WINDOW, host_kernel  # noqa: E402

loop = statistics.median(host_kernel() for _ in range(MIN_WINDOW))
print("done", code, elapsed, loop, flush=True)
