"""Output checks, one per workload.

Every expected value comes from the generator's own parameters (``Op.facts``)
or from a property any correct report has; nothing here calls the program
under test.  A checker returns the list of problems it found; an empty list
means the report passed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from workloads import Op

# A report that flags its own verification as failed (a mass balance with
# ``pass`` false, a comparison row with ``agree`` false): the operation
# failed, but the output contradicts nothing computed independently.
OWN_CHECK_FAILED = "the report's own check failed"


def _pure_fixed(cycle: dict):
    """(equations, coefficient) of the terms with no moving factor and no
    omega power: the fixed part of a reported cycle."""
    for t in cycle["terms"]:
        if t["omega_power"] == 0 and not t["moving"]:
            yield tuple(t["fixed"]["equations"]), Fraction(t["coefficient"])


def check_exact(op: Op, report: dict) -> List[str]:
    problems = []
    results = report["results"]
    for seg in results["segre"]:
        if any(e < 0 for e in seg["numbers"]):
            problems.append(f"negative Segre number at {seg['point']}: "
                            f"{seg['numbers']}")
    if "det_divisor" in op.facts:
        got = {eqs: co for eqs, co in _pure_fixed(results["Mg"]["M"][1])}
        want = {(v,): Fraction(e) for v, e in op.facts["det_divisor"].items()}
        if got != want:
            problems.append(f"fixed part of M_1 {got} != div(det) {want}")
    return problems


def check_mass(op: Op, report: dict) -> List[str]:
    results = report["results"]
    if "det_count" in op.facts:
        mb = results["mass_balance"]
        problems = []
        if mb["det_count"] != op.facts["det_count"]:
            problems.append(f"det_count {mb['det_count']} != "
                            f"{op.facts['det_count']}")
        if mb["pass"] is not True:
            problems.append(f"{OWN_CHECK_FAILED}: mass balance {mb}")
        return problems
    want = op.facts["top_mass"]
    top = results["epsilon_mass"][str(len(op.spec["variables"]))]["value"]
    if abs(top - want) > 0.05 * want or round(top) != want:
        return [f"top-degree epsilon-mass {top} is not {want}"]
    return []


def check_both(op: Op, report: dict) -> List[str]:
    results = report["results"]
    problems = [f"{OWN_CHECK_FAILED}: comparison disagrees: {row}"
                for row in results.get("comparison", []) if not row["agree"]]
    if "ma_point_mass" in op.facts:
        origin = ("x1", "x2")
        mass = sum(co for eqs, co in _pure_fixed(results["Ma"][2])
                   if eqs == origin)
        if mass != op.facts["ma_point_mass"]:
            problems.append(f"M^a point mass {mass} != "
                            f"{op.facts['ma_point_mass']}")
    return problems


CHECKERS = {
    "exact_specs": check_exact,
    "mass_tables": check_mass,
    "crosscheck_both": check_both,
}
