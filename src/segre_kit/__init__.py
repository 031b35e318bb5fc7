"""Residue currents of polynomial morphisms: exact engine, numeric oracles, CLI.

The library computes the currents M^g_k attached to a polynomial matrix g
(viewed as a bundle morphism over a polydisk around 0 in C^n), their
fixed/moving decomposition, Segre numbers and distinguished varieties of the
cokernel sheaf, the signed current M^a of the induced quotient morphism, and
Segre/Chern forms of the associated singular metrics.  Exact results are
produced for monomial-structured matrices; seeded numeric oracles
cross-validate them and estimate the masses of general inputs at desk scale.
"""

from segre_kit.scalars import Scalar
from segre_kit.poly import (
    Monomial,
    Polynomial,
    PolyMatrix,
    StructureClass,
    classify_structure,
    parse_polynomial,
)
from segre_kit.cycles import (
    CycleTerm,
    GeneralizedCycle,
    MovingFactor,
    VarietyRef,
    fixed_moving_split,
    multiplicity_at,
    wedge,
)
from segre_kit.engine import (
    MorphismResult,
    SegreReport,
    compute_Ma,
    compute_Mg,
    ring_M_Galpha,
    segre_numbers,
    singular_metric_forms,
)
from segre_kit.numeric import (
    MassEstimate,
    RegConfig,
    contour_root_count,
    crofton_moving_multiplicity,
    epsilon_mass,
    mass_balance_check,
    perturbation_root_count,
)
from segre_kit.tower import pushforward_cycle

__version__ = "0.1.0"

__all__ = [
    "Scalar", "Monomial", "Polynomial", "PolyMatrix", "StructureClass",
    "classify_structure", "parse_polynomial",
    "CycleTerm", "GeneralizedCycle", "MovingFactor", "VarietyRef",
    "fixed_moving_split", "multiplicity_at", "wedge", "pushforward_cycle",
    "MorphismResult", "SegreReport", "compute_Ma", "compute_Mg",
    "ring_M_Galpha", "segre_numbers", "singular_metric_forms",
    "MassEstimate", "RegConfig", "contour_root_count",
    "crofton_moving_multiplicity", "epsilon_mass", "mass_balance_check",
    "perturbation_root_count",
]
