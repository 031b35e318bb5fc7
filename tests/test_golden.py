"""The golden corpus of ``segre-kit golden`` as tier-1 cases: the suite runs
once per mode and every check it reports is its own test."""

import json

import pytest

from segre_kit.cli import golden_suite

COUNTS = {"skip_numeric": 28, "full": 43}
REPORTS = {mode: golden_suite(skip_numeric=mode == "skip_numeric")
           for mode in COUNTS}


@pytest.mark.parametrize("mode", COUNTS)
def test_golden_report(mode):
    report = REPORTS[mode]
    assert len(report["checks"]) == COUNTS[mode]
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize("check", [
    pytest.param(c, id=f"{mode}:{c['name']}")
    for mode in COUNTS for c in REPORTS[mode]["checks"]])
def test_golden_check(check):
    assert check["pass"], \
        f"expected {check['expected']!r}, got {check['got']!r}"
