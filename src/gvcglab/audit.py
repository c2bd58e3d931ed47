"""Exact axiom auditors: Pareto dominance, strategyproofness, IR, no subsidy.

The dominance search exploits divisible money.  For an alternative
allocation, the most agent i can pay while staying weakly satisfied is the
empty-equivalent transfer ``t*_i`` of its old outcome plus the WP of its new
bundle at that transfer.  A profile is strictly Pareto dominated (agentwise weak
preference plus weakly larger total payment, one strict) iff some
alternative allocation has a strictly larger retained total
``sum_i t*_i + sum_i WP_i(S_i, t*_i)``: any strict agentwise improvement can
be converted into payment slack.  That reduces a search over real payment
vectors to winner determination's own kernel: one subset-DP solve, with
agent i's WP row at ``t*_i``, says whether any total beats the floor
``payment total - sum_i t*_i``; if one does, the same greedy rebuild that
gives the first optimal allocation gives the first allocation above the
floor.

The auditors take the mechanism under test as a callable, so hand-built
alternatives can be screened with the same machinery as the built-in one.
The DSIC audit calls that callable once per misreport, except for
:func:`run_gvcg` itself (unwrapped through ``__wrapped__``): a deviator's
Clarke pivot leaves her own row out, so it is read off the truthful run,
and each misreport costs one winner determination on the truthful WP rows
with the deviator's row swapped.  Before that, each agent is screened by
the taxation principle (Hammond 1979).  Whatever she reports, GVCG gives
her some bundle S at the price ``t_L + W(M) - W(M minus S)``, where ``W`` is
the others' best truthful total; her report picks S but moves no price.  So
a report can help her only if an item of that menu beats her truthful
outcome, and an agent whose menu holds no such item is skipped.
The IR / no-subsidy audit is the mechanism's own outcome check
(``mechanism._reference_checks``) at reference level 0 instead of ``t_L``.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .allocation import (
    Economy,
    _best_total,
    _first_above,
    normalized_mask_tables,
    validate_allocation,
    wp_row,
    wp_tables,
)
from .mechanism import (
    MechanismResult,
    _gvcg_deviator_outcome,
    _gvcg_menu,
    _reference_checks,
    run_gvcg,
)
from .prefs import (
    Comparison,
    Outcome,
    Preference,
    Rational,
    compare_outcomes,
    empty_equivalent_transfer,
    rat,
    wp,
)

# collections.abc, not typing: typing caches its aliases process-wide.
Mechanism = Callable[[Economy, Fraction], MechanismResult]


@dataclass(frozen=True)
class OutcomeProfile:
    """One (bundle, payment) outcome per agent; bundles pairwise disjoint."""

    outcomes: tuple[Outcome, ...]

    def __post_init__(self) -> None:
        normalized = tuple((int(b), rat(p)) for b, p in self.outcomes)
        used = 0
        for bundle, _ in normalized:
            if used & bundle:
                raise ValueError("outcome bundles are not pairwise disjoint")
            used |= bundle
        object.__setattr__(self, "outcomes", normalized)

    @classmethod
    def from_result(cls, result: MechanismResult) -> "OutcomeProfile":
        return cls(tuple(zip(result.allocation, result.payments)))

    def payment_total(self) -> Fraction:
        return sum((pay for _, pay in self.outcomes), Fraction(0))


@dataclass(frozen=True)
class DominanceWitness:
    """A profile that Pareto dominates the audited one.

    Every agent is exactly indifferent at the witness payments; the whole
    improvement is banked as ``payment_gain``, so ``strict_agents`` is empty
    unless a caller constructs a witness by hand.
    """

    dominating: OutcomeProfile
    payment_gain: Fraction
    strict_agents: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.payment_gain < 0:
            raise ValueError("payment gain cannot be negative")
        if self.payment_gain == 0 and not self.strict_agents:
            raise ValueError("witness needs payment gain or a strictly improved agent")


@dataclass(frozen=True)
class ManipulationWitness:
    """A profitable unilateral misreport found by the DSIC audit."""

    agent: int
    misreport: Preference
    truthful: Outcome
    deviated: Outcome


def max_retained_payment(pref: Preference, old: Outcome, new_bundle: int) -> Fraction:
    """Largest payment at which ``new_bundle`` is weakly preferred to ``old``.

    The supremum is attained: at it, the agent is exactly indifferent.
    """
    t_star = empty_equivalent_transfer(pref, old[0], rat(old[1]))
    return t_star + wp(pref, new_bundle, t_star)


def find_pareto_improvement(
    economy: Economy, profile: OutcomeProfile
) -> DominanceWitness | None:
    """Search all alternative allocations for a Pareto-dominating profile.

    Returns the first improving allocation in lexicographic assignment order
    (all agents held indifferent at their retained payments, the surplus
    reported as ``payment_gain``), or None when no allocation's retained
    total strictly beats the audited payment total.
    """
    n, m = economy.num_agents, economy.num_objects
    if len(profile.outcomes) != n:
        raise ValueError(f"profile has {len(profile.outcomes)} outcomes for {n} agents")
    t_stars = [
        empty_equivalent_transfer(pref, bundle, pay)
        for pref, (bundle, pay) in zip(economy.preferences, profile.outcomes)
    ]
    rows = wp_tables(economy, t_stars)
    floor = profile.payment_total() - sum(t_stars, Fraction(0))
    tables, denom = normalized_mask_tables(rows)
    # an integer total beats floor * denom exactly when it beats its floor
    floor_int = floor.numerator * denom // floor.denominator
    if _best_total(tables, [0] * n, (1 << m) - 1) <= floor_int:
        return None
    masks, total = _first_above(m, tables, floor_int)
    outcomes = tuple((masks[i], t_stars[i] + rows[i][masks[i]]) for i in range(n))
    return DominanceWitness(OutcomeProfile(outcomes), Fraction(total, denom) - floor, ())


def dominates(economy: Economy, candidate: OutcomeProfile, base: OutcomeProfile) -> bool:
    """Direct definition check: agentwise weak preference, weakly larger
    payment total, and at least one strict inequality."""
    strict = candidate.payment_total() > base.payment_total()
    if candidate.payment_total() < base.payment_total():
        return False
    for pref, new, old in zip(economy.preferences, candidate.outcomes, base.outcomes):
        ranking = compare_outcomes(pref, new, old)
        if ranking is Comparison.WORSE:
            return False
        if ranking is Comparison.BETTER:
            strict = True
    return strict


def _gvcg_menu_beats_truth(
    economy: Economy,
    truth: MechanismResult,
    tables: list[list[int]],
    denom: int,
    agent: int,
) -> bool:
    """Does some report win ``agent`` an outcome under :func:`run_gvcg` that
    she strictly prefers to her truthful one?

    ``truth`` is ``run_gvcg(economy, t)`` and ``tables, denom`` its WP rows
    rescaled by :func:`normalized_mask_tables`.  Whatever she reports, she
    wins some bundle S at its price on her menu (:func:`_gvcg_menu`), which
    her report does not move.  Every WP slope is above -1, so ``(S, p)``
    beats her truthful outcome, whose empty-equivalent transfer is ``t*``,
    exactly when ``p < t* + WP(S, t*)``.
    """
    pref = economy.preferences[agent]
    t_star = empty_equivalent_transfer(pref, truth.allocation[agent], truth.payments[agent])
    retained = wp_row(pref, economy.num_objects, t_star)
    menu = _gvcg_menu(tables, denom, truth.t_l, agent, economy.num_objects)
    return any(price < t_star + w for price, w in zip(menu, retained))


def audit_dsic(
    mechanism: Mechanism,
    economy: Economy,
    deviation_sets: Sequence[Sequence[Preference]],
    t_l: Rational,
) -> ManipulationWitness | None:
    """Exhaustively test unilateral misreports against truthful reporting.

    Returns the first (agent, misreport) whose outcome the agent strictly
    prefers under her true preference, scanning agents then misreports in
    order; None if no listed deviation is profitable.

    The mechanism runs once on the truthful reports.  Each misreport then
    runs it again on the deviated economy, unless ``mechanism`` is
    :func:`run_gvcg` (possibly wrapped).  Then an agent's misreports run
    only if her GVCG menu holds an outcome she strictly prefers to her
    truthful one (:func:`_gvcg_menu_beats_truth`).  An agent it passes over
    has no profitable report at all, so the first witness is unchanged.
    Each misreport that does run takes one winner determination, with her
    pivot read off the truthful run, and gives what the full run would.
    """
    if len(deviation_sets) != economy.num_agents:
        raise ValueError("need one deviation list per agent (possibly empty)")
    t = rat(t_l)
    truth = mechanism(economy, t)
    if inspect.unwrap(mechanism) is run_gvcg:
        rows = wp_tables(economy, [t] * economy.num_agents)
        tables, denom = normalized_mask_tables(rows)

        def may_gain(agent: int) -> bool:
            return _gvcg_menu_beats_truth(economy, truth, tables, denom, agent)

        def deviate(agent: int, misreport: Preference) -> Outcome:
            return _gvcg_deviator_outcome(economy, truth, rows, agent, misreport)

    else:

        def may_gain(agent: int) -> bool:
            return True

        def deviate(agent: int, misreport: Preference) -> Outcome:
            result = mechanism(economy.replace_preference(agent, misreport), t)
            return result.allocation[agent], result.payments[agent]

    for agent, misreports in enumerate(deviation_sets):
        if not misreports or not may_gain(agent):
            continue
        true_pref = economy.preferences[agent]
        truthful = (truth.allocation[agent], truth.payments[agent])
        for misreport in misreports:
            deviated = deviate(agent, misreport)
            if compare_outcomes(true_pref, deviated, truthful) is Comparison.BETTER:
                return ManipulationWitness(agent, misreport, truthful, deviated)
    return None


@dataclass(frozen=True)
class IrNoSubsidyReport:
    """Per-agent individual rationality against ``(empty, 0)`` and no subsidy
    (payment at least 0).

    Together they put each payment in ``[0, WP(bundle, 0)]``, so an agent
    whose bundle has zero WP at 0 pays exactly 0.
    """

    individually_rational: tuple[bool, ...]
    no_subsidy: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.individually_rational) and all(self.no_subsidy)


def audit_ir_no_subsidy(economy: Economy, result: MechanismResult) -> IrNoSubsidyReport:
    """Check IR against (empty, 0) and payments >= 0 for a mechanism result."""
    validate_allocation(result.allocation, economy.num_objects)
    return IrNoSubsidyReport(*_reference_checks(economy, result, Fraction(0)))
