"""Allocation enumeration and winner-determination tests."""

import random
from collections import deque
from fractions import Fraction as F
from itertools import permutations, product

import pytest

from gvcglab import (
    Dichotomous,
    Economy,
    PwlMap,
    SearchSpaceError,
    StructuralError,
    Tabular,
    assignment_bundles,
    enumerate_allocations,
    enumerate_assignments,
    inefficiency_trio,
    negative_income_trio,
    pwl_pointwise_max,
    random_economy,
    random_pwl_map,
    run_gvcg,
    unit_demand_trio,
    validate_allocation,
    winner_determination,
    wp,
)
from gvcglab.allocation import (
    _dp_assignment,
    _minimal_equivalent_bundles,
    _scan,
    normalized_mask_tables,
    wp_tables,
)

A, B, AB = 0b01, 0b10, 0b11


def brute_force_welfare(economy, t_l):
    return max(
        sum(wp(p, bundle, t_l) for p, bundle in zip(economy.preferences, alloc))
        for alloc in enumerate_allocations(economy.num_agents, economy.num_objects)
    )


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts():
    assert len(list(enumerate_allocations(1, 1))) == 2
    assert len(list(enumerate_allocations(2, 2))) == len(list(product(range(3), repeat=2)))
    assert len(list(enumerate_allocations(3, 2))) == len(list(product(range(4), repeat=2)))
    assert len(list(enumerate_allocations(2, 2))) == 9
    assert len(list(enumerate_allocations(3, 2))) == 16


def test_enumeration_is_lexicographic_and_exhaustive():
    assignments = list(enumerate_assignments(2, 3))
    assert assignments == sorted(assignments)
    assert len(set(assignments)) == 27
    allocations = list(enumerate_allocations(2, 3))
    assert len(set(allocations)) == 27
    for alloc in allocations:
        validate_allocation(alloc, 3)


def test_assignment_bundles_round_trip():
    assert assignment_bundles(3, (1, 2)) == (0, A, B)
    assert assignment_bundles(3, (3, 3)) == (0, 0, 0)
    assert assignment_bundles(2, (0, 0)) == (AB, 0)


def test_guard_rejects_oversized_spaces(monkeypatch):
    with pytest.raises(SearchSpaceError):
        enumerate_assignments(9, 10)  # 10^10 candidates
    monkeypatch.setenv("GVCGLAB_GUARD", "5")
    with pytest.raises(SearchSpaceError):
        enumerate_assignments(2, 2)  # 9 > 5
    monkeypatch.setenv("GVCGLAB_GUARD", "9")
    assert len(list(enumerate_assignments(2, 2))) == 9
    monkeypatch.setenv("GVCGLAB_GUARD", "many")
    with pytest.raises(StructuralError):
        enumerate_assignments(1, 1)


def test_guard_propagates_through_consumers(monkeypatch):
    from gvcglab import OutcomeProfile, find_pareto_improvement, run_gvcg

    eco = negative_income_trio()
    profile = OutcomeProfile(((0, F(0)), (A, F(1)), (B, F(1))))
    monkeypatch.setenv("GVCGLAB_GUARD", "3")
    with pytest.raises(SearchSpaceError):
        winner_determination(eco, 0)
    with pytest.raises(SearchSpaceError):
        run_gvcg(eco, 0)
    with pytest.raises(SearchSpaceError):
        find_pareto_improvement(eco, profile)


def test_economy_validation():
    pref = Dichotomous((A,), PwlMap.constant(1))
    with pytest.raises(StructuralError):
        Economy((), (pref,))
    with pytest.raises(StructuralError):
        Economy(("a", "a"), (pref, pref))
    with pytest.raises(StructuralError):
        Economy(("a",), ())
    with pytest.raises(StructuralError):
        Economy(("a",), (Dichotomous((AB,), PwlMap.constant(1)),))  # object b missing
    with pytest.raises(StructuralError):
        validate_allocation((A, A), 2)


# ---------------------------------------------------------------------------
# winner determination


def test_wd_negative_income_trio_splits_objects():
    eco = negative_income_trio()
    alloc, welfare = winner_determination(eco, 0)
    assert welfare == 4
    assert alloc == (0, A, B)  # tie broken toward the smallest assignment vector


def test_wd_single_minded_single_agent():
    eco = Economy(("a", "b"), (Dichotomous((AB,), PwlMap.constant(5)),))
    alloc, welfare = winner_determination(eco, 0)
    assert alloc == (AB,)
    assert welfare == 5


def test_wd_prop2_5_welfare_beats_big_bidder():
    eco = inefficiency_trio(t_l=0)
    alloc, welfare = winner_determination(eco, 0)
    assert welfare == 4
    assert welfare == brute_force_welfare(eco, F(0))
    assert welfare > 3
    assert alloc == (A, B, 0)


def test_wd_unit_demand_trio_matches_brute_force():
    eco = unit_demand_trio()
    alloc, welfare = winner_determination(eco, 0)
    assert welfare == 7 == brute_force_welfare(eco, F(0))
    assert alloc == (0, A, B)


def test_wd_minimality_releases_surplus_objects():
    eco = Economy(("a", "b"), (Dichotomous((A,), PwlMap.constant(5)),))
    alloc, welfare = winner_determination(eco, 0)
    assert alloc == (A,)  # object b released even though the scan assigned it
    assert welfare == 5

    wants_b = Economy(("a", "b"), (Dichotomous((B,), PwlMap.constant(5)),))
    alloc, _ = winner_determination(wants_b, 0)
    assert alloc == (B,)


def test_wd_minimality_on_tabular_shrinks_to_cheapest_equivalent():
    eco = unit_demand_trio()
    # force agent 1 to hold both objects by zeroing everyone else
    alloc, welfare = winner_determination(eco, 0, zero_agents=frozenset((0, 2)))
    assert welfare == 4
    assert alloc == (0, B, 0)  # WP({b}) = WP({a,b}) = 4, so {b} suffices


def test_wd_zero_agents_keep_slots():
    eco = negative_income_trio()
    _, without_0 = winner_determination(eco, 0, zero_agents=frozenset((0,)))
    _, without_1 = winner_determination(eco, 0, zero_agents=frozenset((1,)))
    assert without_0 == 4  # agents 1 and 2 still split the objects
    assert without_1 == F(39, 10)  # big bidder takes both


def test_wd_deterministic():
    eco = unit_demand_trio()
    runs = {winner_determination(eco, 0) for _ in range(5)}
    assert len(runs) == 1


def test_wd_drop_agent_never_beats_total():
    rng = random.Random(5)
    for _ in range(100):
        eco = random_economy(rng, rng.randint(1, 4), rng.randint(1, 3), "mixed")
        t = F(rng.randint(-2, 2))
        alloc, welfare = winner_determination(eco, t)
        for i, pref in enumerate(eco.preferences):
            _, rivals_best = winner_determination(eco, t, zero_agents=frozenset((i,)))
            assert rivals_best >= welfare - wp(pref, alloc[i], t)


def test_wd_matches_brute_force_oracle_small_random():
    rng = random.Random(17)
    for _ in range(150):
        eco = random_economy(rng, rng.randint(1, 4), rng.randint(1, 3), "mixed")
        t = F(rng.randint(-2, 2), rng.randint(1, 2))
        alloc, welfare = winner_determination(eco, t)
        assert welfare == brute_force_welfare(eco, t)
        realized = sum(wp(p, b, t) for p, b in zip(eco.preferences, alloc))
        assert realized == welfare
        validate_allocation(alloc, eco.num_objects)


def test_branch_and_bound_agrees_bit_exactly():
    rng = random.Random(23)
    for _ in range(200):
        eco = random_economy(rng, rng.randint(1, 4), rng.randint(1, 3), "mixed")
        t = F(rng.choice((-1, 0, 1)))
        zero = frozenset(
            i for i in range(eco.num_agents) if rng.random() < 0.2
        )
        plain = winner_determination(eco, t, zero_agents=zero)
        pruned = winner_determination(eco, t, zero_agents=zero, branch_and_bound=True)
        assert plain == pruned


# ---------------------------------------------------------------------------
# subset DP against the exhaustive scan (the oracle)


def _oracle(economy, t, zero_agents=frozenset()):
    """Raw assignment and optimal total from the last record of the scan,
    plus the tables and common denominator both solvers read."""
    n, m = economy.num_agents, economy.num_objects
    zero = [F(0)] * (1 << m)
    rows = wp_tables(economy, [t] * n)
    tables, denom = normalized_mask_tables(
        [zero if i in zero_agents else row for i, row in enumerate(rows)]
    )
    assignment, best = deque(_scan(n, m, tables, -1), maxlen=1).pop()
    return assignment, best, tables, denom


def _check_against_oracle(economy, t, zero_agents=frozenset()):
    n, m = economy.num_agents, economy.num_objects
    assignment, best, tables, denom = _oracle(economy, t, zero_agents)
    assert _dp_assignment(n, m, tables) == (assignment, best)
    bundles = _minimal_equivalent_bundles(
        economy, t, assignment_bundles(n, assignment), zero_agents
    )
    assert winner_determination(economy, t, zero_agents=zero_agents) == (
        bundles,
        F(best, denom),
    )
    assert winner_determination(economy, t, zero_agents=zero_agents, welfare_only=True) == (
        None,
        F(best, denom),
    )


def _unit_demand_economy(rng, n, m):
    prefs = []
    for _ in range(n):
        singles = [random_pwl_map(rng, "mixed") for _ in range(m)]
        table = {}
        for mask in range(1, 1 << m):
            low = mask & -mask
            own = singles[low.bit_length() - 1]
            table[mask] = own if mask == low else pwl_pointwise_max(table[mask ^ low], own)
        prefs.append(Tabular.from_table(m, table))
    return Economy(tuple("abcd"[:m]), tuple(prefs))


def test_dp_matches_scan_on_random_economies():
    rng = random.Random(29)
    for _ in range(150):
        eco = random_economy(rng, rng.randint(1, 5), rng.randint(1, 4), "mixed")
        t = F(rng.randint(-2, 2), rng.randint(1, 3))
        zero = frozenset(i for i in range(eco.num_agents) if rng.random() < 0.2)
        _check_against_oracle(eco, t, zero)


def test_dp_matches_scan_when_all_wp_is_equal():
    for n, m in ((1, 3), (2, 2), (3, 3), (4, 2), (5, 3)):
        for bundles in ((1,), tuple(1 << j for j in range(m)), ((1 << m) - 1,)):
            pref = Dichotomous(bundles, PwlMap.constant(1))
            eco = Economy(tuple("abc"[:m]), (pref,) * n)
            _check_against_oracle(eco, F(0))


def test_dp_matches_scan_with_duplicated_agents():
    rng = random.Random(31)
    for _ in range(60):
        base = random_economy(rng, rng.randint(1, 3), rng.randint(1, 4), "mixed")
        prefs = list(base.preferences) * 2
        rng.shuffle(prefs)
        eco = Economy(base.object_names, tuple(prefs))
        _check_against_oracle(eco, F(rng.randint(-1, 1)))


def test_dp_matches_scan_when_every_agent_is_zeroed():
    rng = random.Random(37)
    for _ in range(20):
        eco = random_economy(rng, rng.randint(1, 4), rng.randint(1, 3), "mixed")
        everyone = frozenset(range(eco.num_agents))
        _check_against_oracle(eco, F(0), everyone)
        bundles, welfare = winner_determination(eco, 0, zero_agents=everyone)
        assert welfare == 0
        assert bundles == (0,) * eco.num_agents


def test_dp_matches_scan_with_one_agent_or_one_object():
    rng = random.Random(41)
    for _ in range(40):
        eco = random_economy(rng, 1, rng.randint(1, 4), "mixed")
        _check_against_oracle(eco, F(rng.randint(-1, 1)))
        eco = random_economy(rng, rng.randint(1, 6), 1, "mixed")
        _check_against_oracle(eco, F(rng.randint(-1, 1)))


def test_dp_matches_scan_on_tabular_unit_demand_agents():
    rng = random.Random(43)
    for _ in range(40):
        eco = _unit_demand_economy(rng, rng.randint(1, 4), rng.randint(1, 3))
        t = F(rng.randint(-4, 4), 2)
        zero = frozenset(i for i in range(eco.num_agents) if rng.random() < 0.2)
        _check_against_oracle(eco, t, zero)
    _check_against_oracle(unit_demand_trio(), F(0))


def test_run_gvcg_payments_match_oracle_pivots():
    rng = random.Random(47)
    for k in range(80):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        if k % 4 == 0:
            eco = _unit_demand_economy(rng, n, m)
        else:
            eco = random_economy(rng, n, m, "mixed")
        t = F(rng.randint(-2, 2), rng.randint(1, 2))
        _, best, _, denom = _oracle(eco, t)
        welfare = F(best, denom)
        result = run_gvcg(eco, t)
        assert result.welfare == welfare
        expected = []
        for i, pref in enumerate(eco.preferences):
            _, rivals, _, rivals_denom = _oracle(eco, t, frozenset((i,)))
            pivot = winner_determination(eco, t, zero_agents=frozenset((i,)), welfare_only=True)
            assert pivot == (None, F(rivals, rivals_denom))
            realized = welfare - wp(pref, result.allocation[i], t)
            expected.append(t + F(rivals, rivals_denom) - realized)
        assert result.payments == tuple(expected)


def _relabel_objects(pref, perm):
    def move(mask):
        return sum(1 << perm[j] for j in range(len(perm)) if mask >> j & 1)

    if isinstance(pref, Dichotomous):
        return Dichotomous(tuple(move(b) for b in pref.minimal_bundles), pref.wp_map)
    return Tabular.from_table(len(perm), {move(b): w for b, w in pref.wp_by_bundle})


def test_welfare_is_invariant_under_relabelling():
    rng = random.Random(53)
    for k in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        if k % 3 == 0:
            eco = _unit_demand_economy(rng, n, m)
        else:
            eco = random_economy(rng, n, m, "mixed")
        t = F(rng.randint(-2, 2))
        _, welfare = winner_determination(eco, t)
        for perm in permutations(range(m)):
            moved = Economy(
                eco.object_names, tuple(_relabel_objects(p, perm) for p in eco.preferences)
            )
            assert winner_determination(moved, t)[1] == welfare
        for order in permutations(range(n)):
            shuffled = Economy(eco.object_names, tuple(eco.preferences[i] for i in order))
            assert winner_determination(shuffled, t)[1] == welfare
