"""Named scenarios, scenario files, audit reports, and property surveys.

A scenario bundles an economy with a reference transfer level, the audits to
run, optional per-agent deviation lists for the strategyproofness audit, and
an optional expectation block.  Expectations use the same serialization as
reports, so a mismatch is a plain diff.

The built-in scenarios are the files ``scenarios/<name>.json``.  The
constructors here build their economies, which the reproductions and the
test suite use: a three-agent negative-income-effect economy whose mechanism
outcome is dominated (``ex1``), its positive-income-effect twin where no
improvement exists (``ex2``), a heterogeneous unit-demand economy where a
bidder profitably misreports (``ex3``), and a single-minded trio whose
dominance gain is exactly 1 - 2*epsilon (``prop2-5``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .allocation import Economy
from .audit import (
    OutcomeProfile,
    audit_dsic,
    audit_ir_no_subsidy,
    find_pareto_improvement,
    max_retained_payment,
)
from .generate import random_deviation_grid, random_economy
from .mechanism import _reference_checks, run_gvcg, run_gvcg_with_audit
from .prefs import (
    Dichotomous,
    Preference,
    PwlMap,
    Rational,
    StructuralError,
    Tabular,
    rat,
)
from . import serialize

AUDIT_NAMES = ("dominance", "dsic", "ir_no_subsidy", "guarantees")
BUILTIN_NAMES = ("ex1", "ex2", "ex3", "prop2-5")
REPRODUCE_NAMES = BUILTIN_NAMES + ("thm2-sample", "n2-efficiency")

_F = Fraction


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    economy: Economy
    t_l: Fraction
    audits: tuple[str, ...] = ()
    deviations: tuple[tuple[Preference, ...], ...] | None = None
    expected: Mapping[str, Any] | None = None


# ---------------------------------------------------------------------------
# built-in economies


def negative_income_trio() -> Economy:
    """Two objects; agent 0 single-minded on both at value 39/10; agents 1-2
    accept any non-empty bundle with WP map 2 + 3t above -1/2, constant 1/2
    below (negative income effect)."""
    rising = PwlMap((_F(-1, 2),), ((_F(1, 2), _F(0)), (_F(2), _F(3))))
    both = Dichotomous((0b11,), PwlMap.constant(_F(39, 10)))
    either = Dichotomous((0b01, 0b10), rising)
    return Economy(("a", "b"), (both, either, either))


def positive_income_trio() -> Economy:
    """Same shape as :func:`negative_income_trio` but agents 1-2 have a
    nonincreasing WP map with value 2 at zero (positive income effect)."""
    falling = PwlMap((_F(3),), ((_F(2), _F(-1, 2)), (_F(1, 2), _F(0))))
    both = Dichotomous((0b11,), PwlMap.constant(_F(39, 10)))
    either = Dichotomous((0b01, 0b10), falling)
    return Economy(("a", "b"), (both, either, either))


def unit_demand_pref() -> Tabular:
    """Heterogeneous unit-demand preference with strict positive income effect
    on the working range: WP({a},t) = 3 - t/8 and WP({b},t) = 4 - t/4 (flat
    tails keep the maps positive), WP({a,b}) their pointwise max."""
    map_a = PwlMap((_F(16),), ((_F(3), _F(-1, 8)), (_F(1), _F(0))))
    map_b = PwlMap((_F(12),), ((_F(4), _F(-1, 4)), (_F(1), _F(0))))
    map_ab = PwlMap(
        (_F(8), _F(16)),
        ((_F(4), _F(-1, 4)), (_F(3), _F(-1, 8)), (_F(1), _F(0))),
    )
    return Tabular.from_table(2, {0b01: map_a, 0b10: map_b, 0b11: map_ab})


def unit_demand_trio() -> Economy:
    """Agent 0 single-minded on {a,b} at value 5; agents 1-2 unit demand."""
    both = Dichotomous((0b11,), PwlMap.constant(_F(5)))
    shared = unit_demand_pref()
    return Economy(("a", "b"), (both, shared, shared))


def unit_demand_misreport() -> Dichotomous:
    """The profitable single-minded misreport for agents of
    :func:`unit_demand_trio`: bundle {b} at constant value 4."""
    return Dichotomous((0b10,), PwlMap.constant(_F(4)))


def _kinked_single_minded(
    bundle: int, value_at_ref: Fraction, drop_to: Fraction, t_l: Fraction, eps: Fraction
) -> Dichotomous:
    """Single-minded preference whose WP is ``value_at_ref`` at ``t_l`` but
    only ``drop_to`` at ``t_l - eps`` (steep negative income effect),
    constant to the left of the kink."""
    slope = (value_at_ref - drop_to) / eps
    kink = t_l - eps
    return Dichotomous(
        (bundle,),
        PwlMap((kink,), ((drop_to, _F(0)), (drop_to - slope * kink, slope))),
    )


def inefficiency_trio(t_l: Rational = 0, eps: Rational = _F(1, 100)) -> Economy:
    """Single-minded agents on {a}, {b}, {a,b} with WP 2, 2, 3 at ``t_l``.

    The two winners' WP collapses to 1 + eps at ``t_l - eps``, so reselling
    both objects to agent 2 yields a payment gain of exactly 1 - 2*eps.
    """
    t = rat(t_l)
    e = rat(eps)
    w1, w2, w3 = _F(2), _F(2), _F(3)
    return Economy(
        ("a", "b"),
        (
            _kinked_single_minded(0b01, w1, (w3 - w2) + e, t, e),
            _kinked_single_minded(0b10, w2, (w3 - w1) + e, t, e),
            Dichotomous((0b11,), PwlMap.constant(w3)),
        ),
    )


# ---------------------------------------------------------------------------
# scenario files


def scenario_to_json(scenario: Scenario) -> dict[str, Any]:
    names = scenario.economy.object_names
    return {
        "name": scenario.name,
        "economy": serialize.economy_to_json(scenario.economy),
        "t_L": serialize.fraction_str(scenario.t_l),
        "audits": list(scenario.audits),
        "deviations": None
        if scenario.deviations is None
        else [
            [serialize.preference_to_json(p, names) for p in agent_devs]
            for agent_devs in scenario.deviations
        ],
        "expected": None if scenario.expected is None else dict(scenario.expected),
    }


def scenario_from_json(obj: Mapping[str, Any]) -> Scenario:
    serialize.check_type(obj, dict, "scenario")
    economy = serialize.economy_from_json(serialize.required(obj, "economy"))
    names = economy.object_names
    raw_audits = obj.get("audits")
    if raw_audits is None:
        raw_audits = []
    if not isinstance(raw_audits, list):
        raise StructuralError("audits must be a list of audit selectors")
    audits = tuple(raw_audits)
    for audit in audits:
        if audit not in AUDIT_NAMES:
            raise StructuralError(f"unknown audit selector {audit!r}")
    raw_devs = obj.get("deviations")
    deviations = None
    if raw_devs is not None:
        if not isinstance(raw_devs, list):
            raise StructuralError("deviations must be a list of per-agent lists")
        if len(raw_devs) != economy.num_agents:
            raise StructuralError("need one deviation list per agent")
        for i, agent_devs in enumerate(raw_devs):
            if not isinstance(agent_devs, list):
                raise StructuralError(f"deviations[{i}] must be a list of preferences")
        deviations = tuple(
            tuple(
                serialize.preference_at(p, names, f"deviations[{i}][{j}]")
                for j, p in enumerate(agent_devs)
            )
            for i, agent_devs in enumerate(raw_devs)
        )
    expected = obj.get("expected")
    if expected is not None:
        serialize.check_type(expected, dict, "expected")
    return Scenario(
        name=serialize.check_type(obj.get("name", ""), str, "name"),
        economy=economy,
        t_l=serialize.rat_at(serialize.required(obj, "t_L"), "t_L"),
        audits=audits,
        deviations=deviations,
        expected=expected,
    )


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (ValueError, RecursionError) as exc:
            # bad JSON, text that is not UTF-8, an integer past Python's
            # digit limit, or nesting past the recursion limit
            raise StructuralError(f"{path}: {exc}") from exc
    return scenario_from_json(doc)


# ---------------------------------------------------------------------------
# scenario execution


def run_scenario(
    scenario: Scenario, *, t_l_override: Rational | None = None
) -> dict[str, Any]:
    """Run the mechanism plus the selected audits; return the report dict."""
    economy = scenario.economy
    names = economy.object_names
    t = scenario.t_l if t_l_override is None else rat(t_l_override)
    audits = scenario.audits or ("dominance", "ir_no_subsidy", "guarantees")

    checks: dict[str, Any] = {}
    if "guarantees" in audits:
        result = run_gvcg_with_audit(economy, t)  # raises if a guarantee fails
        checks["guarantees"] = {"ok": True}
    else:
        result = run_gvcg(economy, t)

    if "dominance" in audits:
        witness = find_pareto_improvement(economy, OutcomeProfile.from_result(result))
        checks["dominance"] = {
            "dominated": witness is not None,
            "witness": None
            if witness is None
            else serialize.dominance_witness_to_json(witness, names),
            "payment_gain": None
            if witness is None
            else serialize.fraction_str(witness.payment_gain),
            "dominating_payment_sum": None
            if witness is None
            else serialize.fraction_str(witness.dominating.payment_total()),
        }
    if "dsic" in audits:
        if scenario.deviations is None:
            raise StructuralError("dsic audit requires per-agent deviation lists")
        witness = audit_dsic(run_gvcg, economy, scenario.deviations, t)
        checks["dsic"] = {
            "manipulable": witness is not None,
            "witness": None
            if witness is None
            else serialize.manipulation_witness_to_json(witness, names),
        }
    if "ir_no_subsidy" in audits:
        report = audit_ir_no_subsidy(economy, result)
        checks["ir_no_subsidy"] = {
            "ir": list(report.individually_rational),
            "no_subsidy": list(report.no_subsidy),
            "ok": report.ok,
        }

    out = {
        "scenario": scenario.name,
        "t_L": serialize.fraction_str(t),
        "result": serialize.result_to_json(result, names),
        "checks": checks,
    }
    if scenario.expected is not None:
        out["expected_match"] = expected_matches(out, scenario.expected)
    return out


_EXPECTED_PATHS = {
    "payments": ("result", "payments"),
    "welfare": ("result", "welfare"),
    "allocation": ("result", "allocation"),
    "dominance": ("checks", "dominance", "dominated"),
    "payment_gain": ("checks", "dominance", "payment_gain"),
    "dominating_payment_sum": ("checks", "dominance", "dominating_payment_sum"),
    "manipulation": ("checks", "dsic", "manipulable"),
    "ir": ("checks", "ir_no_subsidy", "ok"),
    "guarantees": ("checks", "guarantees", "ok"),
}


def expected_matches(report: Mapping[str, Any], expected: Mapping[str, Any]) -> bool:
    """Compare an expectation block against a report, key by key."""
    for key in expected:
        if key not in _EXPECTED_PATHS:
            raise StructuralError(f"unknown expectation key {key!r}")
    for key, want in expected.items():
        node: Any = report
        for step in _EXPECTED_PATHS[key]:
            if not isinstance(node, Mapping) or step not in node:
                return False
            node = node[step]
        if node != want:
            return False
    return True


# ---------------------------------------------------------------------------
# property surveys

# Shapes the surveys draw: 1..SURVEY_MAX_AGENTS agents (two in the two-agent
# survey) over 1..SURVEY_MAX_OBJECTS objects.
SURVEY_MAX_AGENTS = 4
SURVEY_MAX_OBJECTS = 3
# Random misreports per agent in the axiom survey.
MISREPORTS_PER_AGENT = 20
# Reference levels at which the two-agent survey runs each economy.
TWO_AGENT_T_LS = (-1, 0, 1)


@dataclass(frozen=True)
class DominanceSurvey:
    samples: int
    dominated: int


def survey_dominance(
    seed: int,
    samples: int,
    mode: str,
    *,
    t_l: Rational = 0,
    max_agents: int = SURVEY_MAX_AGENTS,
    max_objects: int = SURVEY_MAX_OBJECTS,
) -> DominanceSurvey:
    """Random economies through the mechanism, counting dominated outcomes."""
    rng = random.Random(seed)
    t = rat(t_l)
    dominated = 0
    for _ in range(samples):
        n = rng.randint(1, max_agents)
        m = rng.randint(1, max_objects)
        economy = random_economy(rng, n, m, mode)
        result = run_gvcg_with_audit(economy, t)
        if find_pareto_improvement(economy, OutcomeProfile.from_result(result)) is not None:
            dominated += 1
    return DominanceSurvey(samples=samples, dominated=dominated)


@dataclass(frozen=True)
class AxiomSurvey:
    samples: int
    t_l: Fraction
    dsic_violations: int
    ir_violations: int
    subsidy_violations: int


def survey_axioms(seed: int, samples: int, *, t_l: Rational = 0) -> AxiomSurvey:
    """Random "mixed" economies with random unilateral misreports.

    Counts profitable deviations, individual-rationality failures (meaningful
    for t_l <= 0) and subsidies (meaningful for t_l = 0).
    """
    rng = random.Random(seed)
    t = rat(t_l)
    dsic_violations = 0
    ir_violations = 0
    subsidy_violations = 0
    for _ in range(samples):
        n = rng.randint(1, SURVEY_MAX_AGENTS)
        m = rng.randint(1, SURVEY_MAX_OBJECTS)
        economy = random_economy(rng, n, m, "mixed")
        deviations = tuple(
            random_deviation_grid(rng, m, MISREPORTS_PER_AGENT, "mixed") for _ in range(n)
        )
        if audit_dsic(run_gvcg, economy, deviations, t) is not None:
            dsic_violations += 1
        report = audit_ir_no_subsidy(economy, run_gvcg(economy, t))
        if not all(report.individually_rational):
            ir_violations += 1
        if not all(report.no_subsidy):
            subsidy_violations += 1
    return AxiomSurvey(
        samples=samples,
        t_l=t,
        dsic_violations=dsic_violations,
        ir_violations=ir_violations,
        subsidy_violations=subsidy_violations,
    )


def survey_two_agent_efficiency(seed: int, samples: int) -> DominanceSurvey:
    """Two-agent economies (mixed income effects) at each level of TWO_AGENT_T_LS."""
    rng = random.Random(seed)
    levels = [rat(t) for t in TWO_AGENT_T_LS]
    dominated = 0
    for _ in range(samples):
        m = rng.randint(1, SURVEY_MAX_OBJECTS)
        economy = random_economy(rng, 2, m, "mixed")
        for t in levels:
            result = run_gvcg(economy, t)
            if find_pareto_improvement(economy, OutcomeProfile.from_result(result)) is not None:
                dominated += 1
    return DominanceSurvey(samples=samples, dominated=dominated)


# ---------------------------------------------------------------------------
# reproduction of the named constructions


def _claims_ex1() -> list[tuple[str, bool]]:
    economy = negative_income_trio()
    result = run_gvcg(economy, 0)
    witness = find_pareto_improvement(economy, OutcomeProfile.from_result(result))
    claims = [
        ("payments are (0, 19/10, 19/10)", result.payments == (_F(0), _F(19, 10), _F(19, 10))),
        ("outcome is Pareto dominated", witness is not None),
    ]
    if witness is not None:
        claims.append(
            ("dominating payment total is 77/20 vs 19/5", witness.dominating.payment_total() == _F(77, 20)),
        )
        claims.append(("payment gain is 1/20", witness.payment_gain == _F(1, 20)))
        claims.append(
            (
                "improvement resells both objects to agent 0 at 39/10, others at -1/40",
                witness.dominating.outcomes
                == ((0b11, _F(39, 10)), (0, _F(-1, 40)), (0, _F(-1, 40))),
            )
        )
    return claims


def _claims_ex2() -> list[tuple[str, bool]]:
    economy = positive_income_trio()
    result = run_gvcg(economy, 0)
    witness = find_pareto_improvement(economy, OutcomeProfile.from_result(result))
    retained = max_retained_payment(economy.preferences[1], (0b01, _F(19, 10)), 0)
    return [
        ("payments are (0, 19/10, 19/10)", result.payments == (_F(0), _F(19, 10), _F(19, 10))),
        ("no Pareto improvement exists", witness is None),
        (
            "compensating a winner for losing costs more than 1/10 (transfer -1/5 < -1/10)",
            retained == _F(-1, 5) and retained < _F(-1, 10),
        ),
    ]


def _claims_ex3() -> list[tuple[str, bool]]:
    economy = unit_demand_trio()
    truthful = run_gvcg(economy, 0)
    misreport = unit_demand_misreport()
    deviated = run_gvcg(economy.replace_preference(1, misreport), 0)
    witness = audit_dsic(run_gvcg, economy, ((), (misreport,), ()), 0)
    return [
        ("truthful outcome for agent 1 is ({a}, 1)", (truthful.allocation[1], truthful.payments[1]) == (0b01, _F(1))),
        ("misreporting {b}-only moves agent 1 to ({b}, 2)", (deviated.allocation[1], deviated.payments[1]) == (0b10, _F(2))),
        ("the deviation is strictly profitable", witness is not None and witness.agent == 1),
    ]


def _claims_prop2_5() -> list[tuple[str, bool]]:
    eps = _F(1, 100)
    claims = []
    for t_l in (_F(0), _F(-1)):
        economy = inefficiency_trio(t_l=t_l, eps=eps)
        result = run_gvcg(economy, t_l)
        prefers, pays_at_least = _reference_checks(economy, result, t_l)
        witness = find_pareto_improvement(economy, OutcomeProfile.from_result(result))
        claims.append(
            (
                f"t_L={t_l}: payments are (t_L+1, t_L+1, t_L)",
                result.payments == (t_l + 1, t_l + 1, t_l),
            )
        )
        claims.append((f"t_L={t_l}: loser pays exactly t_L", result.payments[2] == t_l))
        claims.append(
            (f"t_L={t_l}: outcome is not Pareto efficient (witness found)", witness is not None)
        )
        if witness is not None:
            claims.append(
                (
                    f"t_L={t_l}: payment gain is exactly 1 - 2*eps = 49/50",
                    witness.payment_gain == 1 - 2 * eps,
                )
            )
            claims.append(
                (
                    f"t_L={t_l}: witness resells both objects to agent 2 at {3 + t_l}",
                    witness.dominating.outcomes[2] == (0b11, 3 + t_l),
                )
            )
        claims.append(
            (f"t_L={t_l}: outcome guarantees hold", all(prefers) and all(pays_at_least))
        )
    return claims


def reproduce(name: str, *, seed: int = 0, samples: int | None = None) -> list[tuple[str, bool]]:
    """Re-run a named construction; returns (claim, passed) pairs."""
    if name == "ex1":
        return _claims_ex1()
    if name == "ex2":
        return _claims_ex2()
    if name == "ex3":
        return _claims_ex3()
    if name == "prop2-5":
        return _claims_prop2_5()
    if name == "thm2-sample":
        count = 1000 if samples is None else samples
        survey = survey_dominance(seed, count, "pos")
        return [
            (
                f"zero dominated outcomes across {count} positive-income-effect economies",
                survey.dominated == 0,
            )
        ]
    if name == "n2-efficiency":
        count = 1000 if samples is None else samples
        survey = survey_two_agent_efficiency(seed, count)
        return [
            (
                f"zero dominated outcomes across {count} two-agent economies at t_L in {TWO_AGENT_T_LS}",
                survey.dominated == 0,
            )
        ]
    raise StructuralError(f"unknown reproduction target {name!r}")
