"""The generalized VCG mechanism with a reference transfer level.

The allocation maximizes total willingness to pay at the reference level
``t_l``; each agent pays ``t_l`` plus her externality measured in WP-at-t_l
units.  Agents whose assigned bundle has zero WP at ``t_l`` pay exactly
``t_l``, and every payment is at least ``t_l``.

``run_gvcg_with_audit`` re-checks those guarantees outcome by outcome and
raises :class:`InternalAuditError` if any fails, which would indicate a bug
in the mechanism itself rather than bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .allocation import Economy, ensure_search_space, winner_determination, wp_tables
from .prefs import Comparison, Rational, compare_outcomes, rat, wp


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
    could reach (agent i's WP zeroed, slot kept) minus the total WP the
    others realize at the chosen allocation.  That best total, the Clarke
    pivot, is a welfare-only solve; all n+1 solves share one table build.
    """
    t = rat(t_l)
    ensure_search_space(economy.num_agents, economy.num_objects)
    rows = wp_tables(economy, [t] * economy.num_agents)
    bundles, welfare = winner_determination(economy, t, rows=rows)
    payments = []
    for i, pref in enumerate(economy.preferences):
        _, rivals_best = winner_determination(
            economy, t, zero_agents=frozenset((i,)), welfare_only=True, rows=rows
        )
        rivals_realized = welfare - wp(pref, bundles[i], t)
        payments.append(t + rivals_best - rivals_realized)
    return MechanismResult(bundles, tuple(payments), welfare, t)


class InternalAuditError(RuntimeError):
    """A mechanism-level guarantee failed: this is a bug, not bad input."""


@dataclass(frozen=True)
class AgentGuaranteeCheck:
    """Per-agent outcome guarantees.

    ``reference_ok``: the outcome is weakly preferred to (empty, t_l).
    ``loser_pays_reference_ok``: agents with zero WP on their bundle pay
    exactly t_l (None for winners).
    ``bounds_ok``: at t_l = 0, the payment lies in [0, WP(bundle, 0)]
    (None when t_l != 0).
    """

    agent: int
    winner: bool
    payment: Fraction
    reference_ok: bool
    loser_pays_reference_ok: bool | None
    bounds_ok: bool | None

    @property
    def ok(self) -> bool:
        return (
            self.reference_ok
            and self.loser_pays_reference_ok is not False
            and self.bounds_ok is not False
        )


@dataclass(frozen=True)
class GuaranteeReport:
    entries: tuple[AgentGuaranteeCheck, ...]

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)


def run_gvcg_with_audit(
    economy: Economy, t_l: Rational
) -> tuple[MechanismResult, GuaranteeReport]:
    """Run the mechanism and assert its outcome guarantees per agent."""
    result = run_gvcg(economy, t_l)
    t = result.t_l
    entries = []
    for i, pref in enumerate(economy.preferences):
        bundle = result.allocation[i]
        payment = result.payments[i]
        winner = wp(pref, bundle, t) > 0
        reference_ok = (
            compare_outcomes(pref, (bundle, payment), (0, t)) is not Comparison.WORSE
        )
        loser_ok = None if winner else payment == t
        bounds_ok = None
        if t == 0:
            bounds_ok = 0 <= payment <= wp(pref, bundle, Fraction(0))
        entries.append(
            AgentGuaranteeCheck(
                agent=i,
                winner=winner,
                payment=payment,
                reference_ok=reference_ok,
                loser_pays_reference_ok=loser_ok,
                bounds_ok=bounds_ok,
            )
        )
    report = GuaranteeReport(tuple(entries))
    if not report.ok:
        bad = [entry.agent for entry in report.entries if not entry.ok]
        raise InternalAuditError(f"mechanism guarantees violated for agents {bad}")
    return result, report
