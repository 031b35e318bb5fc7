"""Tests of the benchmark itself: seeded generators, output checkers and the
self-time arithmetic.

usage: python3 -m pytest perfbench
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.BLOCKS))
def test_generators_are_seeded(workload):
    first = [op.spec_text() for op in workloads.take(workload, 7, 60)]
    again = [op.spec_text() for op in workloads.take(workload, 7, 60)]
    other = [op.spec_text() for op in workloads.take(workload, 8, 60)]
    assert first == again
    assert first != other
    assert len(set(first)) == len(first)


def _report(tmp_path, op):
    from segre_kit import cli

    path = tmp_path / "spec.json"
    path.write_text(op.spec_text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([op.command, str(path)]) == 0
    return json.loads(out.getvalue())


def _first(workload, kind, accept=lambda op: True):
    return next(op for op in workloads.generate(workload, 3)
                if op.kind == kind and accept(op))


def _fixed_term(cycle):
    return next(t for t in cycle["terms"]
                if t["omega_power"] == 0 and not t["moving"])


def _bump_coefficient(cycle):
    term = _fixed_term(cycle)
    term["coefficient"] = str(int(term["coefficient"]) + 1)


CORRUPTIONS = [
    ("exact_specs", "diag", lambda op: True,
     lambda r: r["results"]["segre"][0]["numbers"].__setitem__(0, -1)),
    ("exact_specs", "diag", lambda op: True,
     lambda r: _bump_coefficient(r["results"]["Mg"]["M"][1])),
    ("mass_tables", "balance2", lambda op: op.facts["det_count"] <= 3,
     lambda r: r["results"]["mass_balance"].__setitem__("pass", False)),
    ("mass_tables", "balance2", lambda op: op.facts["det_count"] <= 3,
     lambda r: r["results"]["mass_balance"].__setitem__("det_count", 99)),
    ("mass_tables", "eps_table", lambda op: True,
     lambda r: r["results"]["epsilon_mass"]["2"].__setitem__(
         "value", r["results"]["epsilon_mass"]["2"]["value"] + 0.6)),
    ("crosscheck_both", "mono_row", lambda op: True,
     lambda r: r["results"]["comparison"][0].__setitem__("agree", False)),
    ("crosscheck_both", "general_row", lambda op: True,
     lambda r: _bump_coefficient(r["results"]["Ma"][2])),
]


@pytest.mark.parametrize("workload,kind,accept,corrupt", CORRUPTIONS)
def test_checkers_reject_corrupted_reports(tmp_path, workload, kind, accept,
                                           corrupt):
    op = _first(workload, kind, accept)
    report = _report(tmp_path, op)
    check = checks.CHECKERS[workload]
    assert check(op, report) == []
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert check(op, bad)


def test_self_time_on_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],     # overlaps a: covered once
        ["c", 8.0, 12.0, 0, 0],    # runs past root: clipped at 10
        ["other_op", 20.0, 21.5, -1, 1],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 1.5])


def test_tracer_restores_bindings_and_accounts_time(tmp_path):
    from segre_kit import cli, engine

    main, compute_mg = cli.main, engine.compute_Mg
    op = _first("exact_specs", "diag")
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not main and cli.compute_Mg is engine.compute_Mg
        report = _report(tmp_path, op)
    finally:
        tracer.uninstall()
    assert cli.main is main and engine.compute_Mg is compute_mg
    assert checks.check_exact(op, report) == []
    assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][3] == -1
    top = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    assert sum(self_times(tracer.spans)) == pytest.approx(top)
    assert tracer.counts["poly.Polynomial.inits"] > 0


def test_host_factors_use_the_local_median():
    import run

    ref = run.KERNEL_REF_S
    # loop times: reference speed for 10 s, then half speed for 10 s
    kernel_at = [0.1 * i for i in range(200)]
    kernel_s = [ref if t < 10.0 else 2 * ref for t in kernel_at]
    kernel_s[30] = 50 * ref            # one outlier, outvoted by the median
    factors = run.host_factors([3.0, 5.0, 15.0, 19.95], kernel_at, kernel_s)
    assert factors == pytest.approx([1.0, 1.0, 0.5, 0.5])
    # fewer samples than the window wants: the nearest MIN_WINDOW are used
    sparse_at = [2.0 * i for i in range(run.MIN_WINDOW + 2)]
    sparse_s = [ref] * len(sparse_at)
    assert run.host_factors([0.0, 11.0, 99.0], sparse_at, sparse_s) == \
        pytest.approx([1.0, 1.0, 1.0])
