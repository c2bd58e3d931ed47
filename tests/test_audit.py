"""Auditor tests: retained payments, dominance search, DSIC and IR audits."""

import functools
import random
from fractions import Fraction as F

import pytest

from gvcglab import (
    Comparison,
    Dichotomous,
    DominanceWitness,
    Economy,
    MechanismResult,
    OutcomeProfile,
    PwlMap,
    Tabular,
    audit_dsic,
    audit_ir_no_subsidy,
    compare_outcomes,
    dominates,
    find_pareto_improvement,
    inefficiency_trio,
    max_retained_payment,
    negative_income_trio,
    positive_income_trio,
    pwl_pointwise_max,
    random_dichotomous,
    random_deviation_grid,
    random_economy,
    random_pwl_map,
    run_gvcg,
    unit_demand_misreport,
    unit_demand_pref,
    unit_demand_trio,
    wp,
)
from gvcglab.allocation import _best_total, normalized_mask_tables, wp_tables
from gvcglab.audit import _gvcg_menu_beats_truth
from gvcglab.mechanism import _gvcg_deviator_outcome, _gvcg_menu
from oracle import enumerate_allocations

A, B, AB = 0b01, 0b10, 0b11


# ---------------------------------------------------------------------------
# max retained payment


def test_retained_payment_for_losing_the_bundle():
    eco = negative_income_trio()
    assert max_retained_payment(eco.preferences[1], (A, F(19, 10)), 0) == F(-1, 40)


def test_retained_payment_same_bundle_is_identity():
    rng = random.Random(2)
    for _ in range(60):
        pref = random_dichotomous(rng, 2, "mixed")
        bundle = rng.randrange(0, 4)
        pay = F(rng.randint(-30, 30), rng.randint(1, 7))
        assert max_retained_payment(pref, (bundle, pay), bundle) == pay


def test_retained_payment_under_positive_income_effect():
    eco = positive_income_trio()
    retained = max_retained_payment(eco.preferences[1], (A, F(19, 10)), 0)
    assert retained == F(-1, 5)
    assert retained < F(-1, 10)


def test_retained_payment_monotone_in_old_pay_and_new_bundle():
    rng = random.Random(4)
    for _ in range(80):
        pref = random_dichotomous(rng, 3, "mixed")
        old_bundle = rng.randrange(0, 8)
        new_bundle = rng.randrange(0, 8)
        pay = F(rng.randint(-20, 20), rng.randint(1, 5))
        bump = F(rng.randint(1, 8), 4)
        low = max_retained_payment(pref, (old_bundle, pay), new_bundle)
        high = max_retained_payment(pref, (old_bundle, pay + bump), new_bundle)
        assert low < high
        superset = new_bundle | rng.randrange(0, 8)
        assert max_retained_payment(pref, (old_bundle, pay), superset) >= low


# ---------------------------------------------------------------------------
# Pareto dominance search


def test_negative_income_outcome_is_dominated():
    eco = negative_income_trio()
    witness = find_pareto_improvement(eco, OutcomeProfile.from_result(run_gvcg(eco, 0)))
    assert witness is not None
    assert witness.dominating.outcomes == (
        (AB, F(39, 10)),
        (0, F(-1, 40)),
        (0, F(-1, 40)),
    )
    assert witness.dominating.payment_total() == F(77, 20)
    assert witness.payment_gain == F(1, 20)
    assert witness.strict_agents == ()
    assert dominates(eco, witness.dominating, OutcomeProfile.from_result(run_gvcg(eco, 0)))


def test_positive_income_outcome_is_efficient():
    eco = positive_income_trio()
    assert find_pareto_improvement(eco, OutcomeProfile.from_result(run_gvcg(eco, 0))) is None


def test_single_agent_outcome_is_efficient():
    eco = Economy(("a", "b"), (Dichotomous((AB,), PwlMap.constant(5)),))
    assert find_pareto_improvement(eco, OutcomeProfile.from_result(run_gvcg(eco, 0))) is None


def test_inefficiency_trio_gain_is_one_minus_two_eps():
    eps = F(1, 100)
    for t_l in (F(0), F(-1)):
        eco = inefficiency_trio(t_l=t_l, eps=eps)
        base = OutcomeProfile.from_result(run_gvcg(eco, t_l))
        witness = find_pareto_improvement(eco, base)
        assert witness is not None
        assert witness.payment_gain == 1 - 2 * eps == F(49, 50)
        assert witness.dominating.outcomes == (
            (0, t_l - eps),
            (0, t_l - eps),
            (AB, 3 + t_l),
        )
        assert dominates(eco, witness.dominating, base)


def test_unit_demand_outcome_is_efficient_but_manipulable():
    # tabular path through the dominance scan: best reallocation totals only
    # 5 - 16/7 - 8/3 = 1/21 from reselling to the big bidder, far below 3
    eco = unit_demand_trio()
    base = OutcomeProfile.from_result(run_gvcg(eco, 0))
    assert find_pareto_improvement(eco, base) is None
    assert audit_dsic(run_gvcg, eco, ((), (unit_demand_misreport(),), ()), 0) is not None


def test_dominance_search_ignores_equal_payment_reshuffles():
    # swapping the two winners keeps the payment total flat: no witness there
    eco = positive_income_trio()
    base = OutcomeProfile.from_result(run_gvcg(eco, 0))
    swapped = OutcomeProfile(((0, F(0)), (B, F(19, 10)), (A, F(19, 10))))
    assert not dominates(eco, swapped, base)


def test_every_reported_witness_dominates_directly():
    cases = (
        (negative_income_trio(), F(0)),
        (inefficiency_trio(t_l=0), F(0)),
        (inefficiency_trio(t_l=-1), F(-1)),
    )
    for eco, t_l in cases:
        base = OutcomeProfile.from_result(run_gvcg(eco, t_l))
        witness = find_pareto_improvement(eco, base)
        assert witness is not None
        assert dominates(eco, witness.dominating, base)


def test_dominance_oracle_symmetry_on_random_samples():
    # where the scan reports no improvement, independently sampled feasible
    # profiles must not dominate either
    rng = random.Random(31)
    checked = 0
    while checked < 15:
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        eco = random_economy(rng, n, m, "pos")
        base = OutcomeProfile.from_result(run_gvcg(eco, 0))
        if find_pareto_improvement(eco, base) is not None:
            continue
        checked += 1
        allocations = list(enumerate_allocations(n, m))
        for _ in range(100):
            alloc = rng.choice(allocations)
            outcomes = []
            for i, bundle in enumerate(alloc):
                retained = max_retained_payment(eco.preferences[i], base.outcomes[i], bundle)
                slack = F(rng.randint(0, 8), 4) if rng.random() < 0.5 else F(rng.randint(-8, 8), 4)
                outcomes.append((bundle, retained - slack))
            assert not dominates(eco, OutcomeProfile(tuple(outcomes)), base)


def _unit_demand_table(rng, m):
    # unit demand: a bundle's WP map is the pointwise max of its objects' maps
    singles = [random_pwl_map(rng, "mixed") for _ in range(m)]
    table = {}
    for mask in range(1, 1 << m):
        low = mask & -mask
        own = singles[low.bit_length() - 1]
        table[mask] = own if mask == low else pwl_pointwise_max(table[mask ^ low], own)
    return Tabular.from_table(m, table)


def _random_tabular_economy(rng, n, m):
    return Economy(tuple("abc"[:m]), tuple(_unit_demand_table(rng, m) for _ in range(n)))


@pytest.mark.parametrize("kind", ["mixed", "pos", "tabular"])
def test_dominance_matches_first_improving_allocation_oracle(kind):
    # random payment profiles, not only mechanism outcomes: the witness must
    # be the lexicographically first allocation whose retained total beats
    # the payment total, with exactly that surplus as its gain
    rng = random.Random(f"dominance-oracle-{kind}")
    found = 0
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        if kind == "tabular":
            eco = _random_tabular_economy(rng, n, m)
        else:
            eco = random_economy(rng, n, m, kind)
        held = rng.choice(list(enumerate_allocations(n, m)))
        base = OutcomeProfile(
            tuple((bundle, F(rng.randint(-12, 12), rng.randint(1, 5))) for bundle in held)
        )
        expected = None
        for alloc in enumerate_allocations(n, m):
            outcomes = tuple(
                (bundle, max_retained_payment(pref, old, bundle))
                for pref, old, bundle in zip(eco.preferences, base.outcomes, alloc)
            )
            gain = sum((pay for _, pay in outcomes), F(0)) - base.payment_total()
            if gain > 0:
                expected = (outcomes, gain)
                break
        witness = find_pareto_improvement(eco, base)
        if expected is None:
            assert witness is None
        else:
            found += 1
            assert (witness.dominating.outcomes, witness.payment_gain) == expected
    assert 0 < found < 60


def test_outcome_profile_requires_disjoint_bundles():
    with pytest.raises(ValueError):
        OutcomeProfile(((A, F(0)), (A, F(0))))


def test_dominance_witness_requires_some_improvement():
    profile = OutcomeProfile(((A, F(1)),))
    with pytest.raises(ValueError):
        DominanceWitness(profile, F(0), ())
    with pytest.raises(ValueError):
        DominanceWitness(profile, F(-1), (0,))
    assert DominanceWitness(profile, F(0), (0,)).strict_agents == (0,)


# ---------------------------------------------------------------------------
# DSIC audit


def test_unit_demand_manipulation_is_found():
    eco = unit_demand_trio()
    misreport = unit_demand_misreport()
    witness = audit_dsic(run_gvcg, eco, ((), (misreport,), ()), 0)
    assert witness is not None
    assert witness.agent == 1
    assert witness.truthful == (A, F(1))
    assert witness.deviated == (B, F(2))


def test_dichotomous_grid_finds_no_manipulation():
    # single-minded misreports over a value grid: no profitable deviation
    eco = negative_income_trio()
    values = [F(k, 2) for k in range(1, 9)]
    grid = tuple(
        Dichotomous((bundle,), PwlMap.constant(v))
        for bundle in (A, B, AB)
        for v in values
    )
    assert len(grid) >= 20
    assert audit_dsic(run_gvcg, eco, (grid, grid, grid), 0) is None


def test_quasilinear_economy_with_dichotomous_deviations_is_truthful():
    eco = Economy(
        ("a", "b"),
        (
            Dichotomous((A,), PwlMap.constant(3)),
            Dichotomous((B,), PwlMap.constant(2)),
            Dichotomous((AB,), PwlMap.constant(4)),
        ),
    )
    rng = random.Random(6)
    grid = tuple(random_dichotomous(rng, 2, "mixed") for _ in range(25))
    assert audit_dsic(run_gvcg, eco, (grid, grid, grid), 0) is None


def _dsic_case(rng, kind):
    """A random economy of ``kind`` and per-agent misreports, n <= 4, m <= 3."""
    n, m = rng.randint(1, 4), rng.randint(1, 3)
    if kind == "ties":
        base = random_economy(rng, rng.randint(1, 2), m, "mixed")
        prefs = list(base.preferences) * 2
        rng.shuffle(prefs)
        eco = Economy(base.object_names, tuple(prefs))
    elif kind == "tabular":
        prefs = [
            _unit_demand_table(rng, m) if rng.random() < 0.5 else random_dichotomous(rng, m)
            for _ in range(n)
        ]
        eco = Economy(tuple("abc"[:m]), tuple(prefs))
    else:
        eco = random_economy(rng, n, m, kind)
    mode = "pos" if kind == "pos" else "mixed"
    deviations = tuple(
        random_deviation_grid(rng, m, 3, mode) + tuple(_unit_demand_table(rng, m) for _ in range(2))
        for _ in range(eco.num_agents)
    )
    return eco, deviations, rng.choice((F(-1), F(0), F(1, 2), F(1)))


DSIC_KINDS = ["mixed", "pos", "ties", "tabular"]


@pytest.mark.parametrize("kind", DSIC_KINDS)
def test_gvcg_deviator_outcome_matches_a_full_run(kind):
    rng = random.Random(f"deviator-{kind}")
    for _ in range(40):
        eco, deviations, t = _dsic_case(rng, kind)
        truth = run_gvcg(eco, t)
        rows = wp_tables(eco, [t] * eco.num_agents)
        for agent, misreports in enumerate(deviations):
            for misreport in misreports:
                full = run_gvcg(eco.replace_preference(agent, misreport), t)
                assert _gvcg_deviator_outcome(eco, truth, rows, agent, misreport) == (
                    full.allocation[agent],
                    full.payments[agent],
                )


def test_audit_dsic_fast_path_matches_the_generic_path():
    rng = random.Random("dsic-paths")
    manipulable = 0
    for kind in DSIC_KINDS * 30:
        eco, deviations, t = _dsic_case(rng, kind)
        fast = audit_dsic(run_gvcg, eco, deviations, t)
        assert fast == audit_dsic(lambda e, level: run_gvcg(e, level), eco, deviations, t)
        manipulable += fast is not None
    assert manipulable >= 5


def _counting(mechanism, calls):
    @functools.wraps(mechanism)
    def counted(economy, t_l):
        calls.append(economy)
        return mechanism(economy, t_l)

    return counted


def test_audit_dsic_runs_a_wrapped_gvcg_once_and_anything_else_per_misreport():
    eco = negative_income_trio()
    grid = tuple(Dichotomous((bundle,), PwlMap.constant(v)) for bundle in (A, B, AB) for v in (1, 3))
    deviations = (grid, grid[:2], ())
    wrapped, generic = [], []
    assert audit_dsic(_counting(run_gvcg, wrapped), eco, deviations, 0) is None
    assert len(wrapped) == 1
    generic_gvcg = _counting(lambda e, t: run_gvcg(e, t), generic)
    assert audit_dsic(generic_gvcg, eco, deviations, 0) is None
    assert len(generic) == 1 + len(grid) + 2
    # ex3: agent 1's second misreport is the first profitable one
    eco, profitable = unit_demand_trio(), unit_demand_misreport()
    deviations = ((), (grid[0], profitable, grid[1]), (profitable,))
    wrapped.clear()
    generic.clear()
    fast = audit_dsic(_counting(run_gvcg, wrapped), eco, deviations, 0)
    assert fast == audit_dsic(generic_gvcg, eco, deviations, 0)
    assert (fast.agent, fast.misreport) == (1, profitable)
    assert (len(wrapped), len(generic)) == (1, 3)


def test_every_deviator_outcome_is_on_a_menu_her_report_does_not_move():
    # the taxation principle behind the DSIC screen: a misreport only picks
    # a bundle S off the menu (S, t + W(M) - W(M minus S)), so an agent whose
    # menu beats nothing has no profitable misreport
    rng = random.Random("screen")
    screened = kept = profitable = 0
    for kind in DSIC_KINDS * 20:
        eco, deviations, t = _dsic_case(rng, kind)
        n, full = eco.num_agents, (1 << eco.num_objects) - 1
        truth = run_gvcg(eco, t)
        rows = wp_tables(eco, [t] * n)
        tables, denom = normalized_mask_tables(rows)
        for agent, misreports in enumerate(deviations):
            rivals = tables[:agent] + tables[agent + 1 :]
            pivot = _best_total(rivals, [0] * (n - 1), full)
            menu = [
                t + F(pivot - _best_total(rivals, [0] * (n - 1), full ^ s), denom)
                for s in range(full + 1)
            ]
            assert _gvcg_menu(tables, denom, t, agent, eco.num_objects) == menu
            pref = eco.preferences[agent]
            truthful = (truth.allocation[agent], truth.payments[agent])
            assert menu[truthful[0]] == truthful[1]
            beats = any(
                compare_outcomes(pref, (s, price), truthful) is Comparison.BETTER
                for s, price in enumerate(menu)
            )
            assert _gvcg_menu_beats_truth(eco, truth, tables, denom, agent) == beats
            screened += not beats
            kept += beats
            for misreport in misreports:
                bundle, pay = _gvcg_deviator_outcome(eco, truth, rows, agent, misreport)
                assert pay == menu[bundle]
                if compare_outcomes(pref, (bundle, pay), truthful) is Comparison.BETTER:
                    assert beats
                    profitable += 1
    assert screened >= 100 and kept >= 3 and profitable >= 3


def _unit_demand_against_single_minded(b_value):
    # ex3's unit-demand agent wins {a} at 1 against single-minded rivals on
    # {a} at 1 and {b} at b_value; her menu offers {b} at b_value, and at her
    # truthful t* = -16/7 she would pay up to t* + WP({b}, t*) = 16/7 for it
    return Economy(
        ("a", "b"),
        (
            unit_demand_pref(),
            Dichotomous((A,), PwlMap.constant(1)),
            Dichotomous((B,), PwlMap.constant(b_value)),
        ),
    )


@pytest.mark.parametrize("b_value, kept", [(F(16, 7), False), (F(15, 7), True)])
def test_dsic_screen_drops_an_exact_tie_and_keeps_a_one_unit_gain(b_value, kept):
    # the rows' common denominator is 7, so 15/7 undercuts the tie by one unit
    eco = _unit_demand_against_single_minded(b_value)
    truth = run_gvcg(eco, 0)
    assert (truth.allocation[0], truth.payments[0]) == (A, 1)
    tables, denom = normalized_mask_tables(wp_tables(eco, [F(0)] * 3))
    assert denom == 7
    assert _gvcg_menu(tables, denom, F(0), 0, 2)[B] == b_value
    screen = [_gvcg_menu_beats_truth(eco, truth, tables, denom, i) for i in range(3)]
    assert screen == [kept, False, False]
    ranking = compare_outcomes(eco.preferences[0], (B, b_value), (A, 1))
    assert ranking is (Comparison.BETTER if kept else Comparison.INDIFFERENT)
    witness = audit_dsic(run_gvcg, eco, ((unit_demand_misreport(),), (), ()), 0)
    if kept:
        assert (witness.agent, witness.deviated) == (0, (B, b_value))
    else:
        assert witness is None


def test_dsic_screen_keeps_ex3_agent_1_for_b_at_price_2():
    eco = unit_demand_trio()
    truth = run_gvcg(eco, 0)
    tables, denom = normalized_mask_tables(wp_tables(eco, [F(0)] * 3))
    assert _gvcg_menu(tables, denom, F(0), 1, 2)[B] == 2
    screen = [_gvcg_menu_beats_truth(eco, truth, tables, denom, i) for i in range(3)]
    assert screen == [False, True, False]


def test_audit_dsic_requires_per_agent_lists():
    with pytest.raises(ValueError):
        audit_dsic(run_gvcg, unit_demand_trio(), ((),), 0)


# ---------------------------------------------------------------------------
# IR / no subsidy


def test_ir_no_subsidy_on_mechanism_outcome():
    eco = negative_income_trio()
    report = audit_ir_no_subsidy(eco, run_gvcg(eco, 0))
    assert report.ok
    assert report.individually_rational == (True, True, True)
    assert report.no_subsidy == (True, True, True)
    result = run_gvcg(eco, 0)
    for pref, bundle, payment in zip(eco.preferences, result.allocation, result.payments):
        assert 0 <= payment <= wp(pref, bundle, 0)


def test_charging_a_loser_fails_ir():
    eco = negative_income_trio()
    good = run_gvcg(eco, 0)
    bad = MechanismResult(good.allocation, (F(1), *good.payments[1:]), good.welfare, good.t_l)
    report = audit_ir_no_subsidy(eco, bad)
    assert not report.ok
    assert report.individually_rational[0] is False
    assert report.no_subsidy[0] is True
    assert good.allocation[0] == 0 and bad.payments[0] > 0  # a loser charged


def test_subsidy_is_flagged():
    eco = negative_income_trio()
    good = run_gvcg(eco, 0)
    bad = MechanismResult(good.allocation, (F(-1), *good.payments[1:]), good.welfare, good.t_l)
    report = audit_ir_no_subsidy(eco, bad)
    assert report.no_subsidy[0] is False


def test_overcharging_a_winner_fails_wp_bound():
    eco = negative_income_trio()
    good = run_gvcg(eco, 0)
    bad = MechanismResult(
        good.allocation, (good.payments[0], F(5, 2), good.payments[2]), good.welfare, good.t_l
    )
    report = audit_ir_no_subsidy(eco, bad)
    assert not report.ok
    assert report.individually_rational[1] is False
    assert report.no_subsidy[1] is True
    assert wp(eco.preferences[1], good.allocation[1], 0) < F(5, 2)


def test_ir_no_subsidy_ok_is_the_written_out_conditions():
    # IR against (empty, 0) and payment >= 0, plus at t_L = 0 losers paying
    # zero and payments within [0, WP(bundle, 0)]: the last two follow from
    # the first two, so the report's ok is all four
    rng = random.Random(73)
    shifts = (F(-1), F(-1, 2), F(0), F(0), F(1, 3), F(1))
    for _ in range(200):
        eco = random_economy(rng, rng.randint(1, 4), rng.randint(1, 3), "mixed")
        good = run_gvcg(eco, F(rng.choice((-1, 0, 0, 1))))
        payments = []
        for pref, bundle, payment in zip(eco.preferences, good.allocation, good.payments):
            edge = rng.choice((None, F(0), wp(pref, bundle, 0)))
            payments.append(payment + rng.choice(shifts) if edge is None else edge)
        result = MechanismResult(good.allocation, tuple(payments), good.welfare, good.t_l)
        expected = True
        for pref, bundle, payment in zip(eco.preferences, result.allocation, payments):
            value = wp(pref, bundle, 0)
            ir = compare_outcomes(pref, (bundle, payment), (0, F(0))) is not Comparison.WORSE
            assert ir == (payment <= value)
            expected = expected and ir and payment >= 0
            if result.t_l == 0:
                expected = expected and (payment == 0 or value != 0)
                expected = expected and 0 <= payment <= value
        assert audit_ir_no_subsidy(eco, result).ok == expected
