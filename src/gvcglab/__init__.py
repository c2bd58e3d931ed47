"""gvcglab: exact generalized-VCG engine and axiom auditor.

Combinatorial auctions with non-quasilinear dichotomous preferences,
computed and audited in exact rational arithmetic: winner determination,
externality payments at a reference transfer level, Pareto-dominance search,
strategyproofness / IR / no-subsidy audits, and reproducible random property
suites.
"""

from types import ModuleType as _ModuleType

from .prefs import (
    Comparison,
    Dichotomous,
    Outcome,
    Preference,
    PwlMap,
    StructuralError,
    Tabular,
    ZERO_MAP,
    compare_outcomes,
    empty_equivalent_transfer,
    pwl_leq,
    pwl_pointwise_max,
    rat,
    wp,
    wp_map,
)
from .allocation import (
    Economy,
    SearchSpaceError,
    validate_allocation,
    winner_determination,
)
from .mechanism import (
    InternalAuditError,
    MechanismResult,
    run_gvcg,
    run_gvcg_with_audit,
)
from .audit import (
    DominanceWitness,
    IrNoSubsidyReport,
    ManipulationWitness,
    OutcomeProfile,
    audit_dsic,
    audit_ir_no_subsidy,
    dominates,
    find_pareto_improvement,
    max_retained_payment,
)
from .generate import (
    INCOME_EFFECT_MODES,
    random_deviation_grid,
    random_dichotomous,
    random_economy,
    random_pwl_map,
)
from .scenarios import (
    AUDIT_NAMES,
    BUILTIN_NAMES,
    REPRODUCE_NAMES,
    Scenario,
    expected_matches,
    inefficiency_trio,
    load_scenario,
    negative_income_trio,
    positive_income_trio,
    reproduce,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
    survey_axioms,
    survey_dominance,
    survey_two_agent_efficiency,
    unit_demand_misreport,
    unit_demand_pref,
    unit_demand_trio,
)

__version__ = "0.1.0"

# every name imported above, and no submodule
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
