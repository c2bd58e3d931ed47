"""The generalized VCG mechanism with a reference transfer level.

The allocation maximizes total willingness to pay at the reference level
``t_l``; each agent pays ``t_l`` plus her externality measured in WP-at-t_l
units.  Every WP slope is above -1, so an outcome ``(S, p)`` is weakly
preferred to ``(empty, r)`` exactly when ``p <= r + WP(S, r)``.  The
mechanism's whole guarantee is therefore one check per agent at ``r = t_l``:
the outcome is weakly preferred to ``(empty, t_l)`` and the payment is at
least ``t_l``.  Every payment lies in ``[t_l, t_l + WP(S, t_l)]``, so agents
whose bundle has zero WP pay exactly ``t_l``.  The IR / no-subsidy audit is
the same check at ``r = 0``.

``run_gvcg_with_audit`` makes that check outcome by outcome and raises
:class:`InternalAuditError` if it fails for any agent, which would indicate
a bug in the mechanism itself rather than bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .allocation import Economy, _best_totals, winner_determination, wp_row, wp_tables
from .prefs import Comparison, Outcome, Preference, Rational, compare_outcomes, rat, wp


@dataclass(frozen=True)
class MechanismResult:
    """Allocation, payment vector, optimal welfare, and the reference level."""

    allocation: tuple[int, ...]
    payments: tuple[Fraction, ...]
    welfare: Fraction
    t_l: Fraction


def run_gvcg(economy: Economy, t_l: Rational) -> MechanismResult:
    """Run the generalized VCG mechanism at reference transfer level ``t_l``.

    Payment of agent i is ``t_l`` plus the best total WP the other agents
    could reach without her minus the total WP the others realize at the
    chosen allocation.  That best total, the Clarke pivot, is a welfare-only
    solve with agent i left out; all n+1 solves share one table build.
    """
    t = rat(t_l)
    rows = wp_tables(economy, [t] * economy.num_agents)
    bundles, welfare = winner_determination(economy, t, rows=rows)
    payments = []
    for i, pref in enumerate(economy.preferences):
        _, rivals_best = winner_determination(economy, t, leave_out=i, rows=rows)
        rivals_realized = welfare - wp(pref, bundles[i], t)
        payments.append(t + rivals_best - rivals_realized)
    return MechanismResult(bundles, tuple(payments), welfare, t)


def _gvcg_deviator_outcome(
    economy: Economy,
    truth: MechanismResult,
    rows: list[list[Fraction]],
    agent: int,
    misreport: Preference,
) -> Outcome:
    """``agent``'s ``run_gvcg`` outcome when she reports ``misreport`` and
    every other agent reports as in ``economy``.

    ``truth`` must be ``run_gvcg(economy, t)`` and ``rows`` its WP rows,
    ``wp_tables(economy, [t] * n)``.  The agent's Clarke pivot leaves her
    row out, so it does not depend on her report and is read off the
    truthful run; the rest is one winner determination on ``rows`` with
    row ``agent`` swapped for the misreport's.
    """
    t = truth.t_l
    deviated = economy.replace_preference(agent, misreport)
    swapped = list(rows)
    swapped[agent] = wp_row(misreport, economy.num_objects, t)
    bundles, welfare = winner_determination(deviated, t, rows=swapped)
    truthful = truth.allocation[agent]
    rivals_best = truth.payments[agent] - t + truth.welfare - rows[agent][truthful]
    bundle = bundles[agent]
    return bundle, t + rivals_best - (welfare - swapped[agent][bundle])


def _gvcg_menu(
    tables: list[list[int]], denom: int, t_l: Fraction, agent: int, num_objects: int
) -> list[Fraction]:
    """``agent``'s :func:`run_gvcg` price for every bundle mask S, whatever
    she reports: ``t_l + W(M) - W(M minus S)``, where ``W(X)`` is the best
    total of the other agents' rows on the objects ``X``.

    ``tables, denom`` are the truthful WP rows at ``t_l`` rescaled by
    ``normalized_mask_tables``.  Her pivot ``W(M)`` leaves her row out, and
    when she wins S the others realize ``W(M minus S)``, which the
    minimal-bundle shrink keeps; so :func:`_gvcg_deviator_outcome` is always
    some ``(S, menu[S])`` (the taxation principle).
    """
    full = (1 << num_objects) - 1
    rivals = _best_totals(tables[:agent] + tables[agent + 1 :], num_objects)
    return [t_l + Fraction(rivals[full] - rivals[full ^ s], denom) for s in range(full + 1)]


class InternalAuditError(RuntimeError):
    """A mechanism-level guarantee failed: this is a bug, not bad input."""


def _reference_checks(
    economy: Economy, result: MechanismResult, r: Fraction
) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """Per agent: is the outcome weakly preferred to ``(empty, r)``, and is
    the payment at least ``r``?"""
    outcomes = tuple(zip(result.allocation, result.payments))
    prefers = tuple(
        compare_outcomes(pref, outcome, (0, r)) is not Comparison.WORSE
        for pref, outcome in zip(economy.preferences, outcomes)
    )
    return prefers, tuple(payment >= r for _, payment in outcomes)


def run_gvcg_with_audit(economy: Economy, t_l: Rational) -> MechanismResult:
    """Run the mechanism and check its outcome guarantee for every agent.

    Returns the result, or raises :class:`InternalAuditError` naming the
    agents whose outcome is worse than ``(empty, t_l)`` or who pay less
    than ``t_l``.
    """
    result = run_gvcg(economy, t_l)
    prefers, pays_at_least = _reference_checks(economy, result, result.t_l)
    bad = [i for i, ok in enumerate(zip(prefers, pays_at_least)) if not all(ok)]
    if bad:
        raise InternalAuditError(f"mechanism guarantees violated for agents {bad}")
    return result
