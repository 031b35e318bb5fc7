"""The golden corpus of ``segre-kit golden`` as tier-1 cases: the suite runs
once per mode and every check it reports is its own test."""

import json

import pytest

from segre_kit.golden import golden_suite
from segre_kit.numeric import RegConfig

COUNTS = {"skip_numeric": 28, "full": 43}
CHECKS = {mode: golden_suite(mode == "skip_numeric", RegConfig())[0]
          for mode in COUNTS}


@pytest.mark.parametrize("mode", COUNTS)
def test_golden_report(mode):
    checks = CHECKS[mode]
    assert len(checks) == COUNTS[mode]
    assert json.loads(json.dumps(checks)) == checks


@pytest.mark.parametrize("check", [
    pytest.param(c, id=f"{mode}:{c['name']}")
    for mode in COUNTS for c in CHECKS[mode]])
def test_golden_check(check):
    assert check["pass"], \
        f"expected {check['expected']!r}, got {check['got']!r}"
