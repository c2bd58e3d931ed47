"""Allocation enumeration, winner-determination and threshold-kernel tests."""

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
    inefficiency_trio,
    negative_income_trio,
    pwl_pointwise_max,
    random_economy,
    random_pwl_map,
    run_gvcg,
    unit_demand_pref,
    unit_demand_trio,
    validate_allocation,
    winner_determination,
    wp,
)
from gvcglab.allocation import (
    _best_total,
    _first_above,
    assignment_bundles,
    enumerate_assignments,
    normalized_mask_tables,
    wp_tables,
)
from oracle import enumerate_allocations, minimal_equivalent_bundles

A, B, AB = 0b01, 0b10, 0b11


def scan(num_agents, num_objects, tables, floor):
    """The exhaustive oracle: yield ``(bundles, total)`` each time the total
    beats ``floor`` and every earlier total, over all ``(n+1)**m``
    assignments in lexicographic order (unsold = n)."""
    for assignment in product(range(num_agents + 1), repeat=num_objects):
        masks = [0] * num_agents
        for obj, owner in enumerate(assignment):
            if owner < num_agents:
                masks[owner] |= 1 << obj
        total = 0
        for i in range(num_agents):
            total += tables[i][masks[i]]
        if total > floor:
            floor = total
            yield tuple(masks), total


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
    from gvcglab import OutcomeProfile, audit_dsic, find_pareto_improvement, run_gvcg
    from gvcglab import allocation

    eco = negative_income_trio()
    profile = OutcomeProfile(((0, F(0)), (A, F(1)), (B, F(1))))
    monkeypatch.setenv("GVCGLAB_GUARD", "3")

    def no_rows(*args):
        raise AssertionError("a WP row was built before the guard check")

    # the guard fires before any row is built
    monkeypatch.setattr(allocation, "wp_row", no_rows)
    with pytest.raises(SearchSpaceError):
        winner_determination(eco, 0)
    with pytest.raises(SearchSpaceError):
        run_gvcg(eco, 0)
    with pytest.raises(SearchSpaceError):
        find_pareto_improvement(eco, profile)
    with pytest.raises(SearchSpaceError):
        audit_dsic(run_gvcg, eco, [[], [], []], 0)


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
    # alone, a unit-demand agent is first assigned both objects
    eco = Economy(("a", "b"), (unit_demand_pref(),))
    alloc, welfare = winner_determination(eco, 0)
    assert welfare == 4
    assert alloc == (B,)  # WP({b}) = WP({a,b}) = 4, so {b} suffices


def test_wd_minimality_keeps_the_lowest_of_equal_subsets():
    # alone, each agent is first assigned both objects; {a} and {b} are
    # equally small and equally worth, and the lower mask is kept
    either = Dichotomous((A, B), PwlMap.constant(2))
    flat = Tabular.from_table(2, {mask: PwlMap.constant(3) for mask in (A, B, AB)})
    for pref in (either, flat):
        alloc, _ = winner_determination(Economy(("a", "b"), (pref,)), 0)
        assert alloc == (A,)


def test_wd_leave_out_gives_the_pivot_welfare():
    eco = negative_income_trio()
    assert winner_determination(eco, 0, leave_out=0) == (None, 4)  # 1 and 2 split
    assert winner_determination(eco, 0, leave_out=1) == (None, F(39, 10))  # 0 takes both
    for agent in (-1, 3):
        with pytest.raises(ValueError):
            winner_determination(eco, 0, leave_out=agent)


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
            _, rivals_best = winner_determination(eco, t, leave_out=i)
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


# ---------------------------------------------------------------------------
# subset DP against the exhaustive scan (the oracle)


def _oracle(economy, t, zero_agents=frozenset()):
    """Raw bundles and optimal total from the last record of the scan,
    plus the tables and common denominator both solvers read.  Rows of
    ``zero_agents`` are zero; their slots stay."""
    n, m = economy.num_agents, economy.num_objects
    zero = [F(0)] * (1 << m)
    rows = wp_tables(economy, [t] * n)
    tables, denom = normalized_mask_tables(
        [zero if i in zero_agents else row for i, row in enumerate(rows)]
    )
    bundles, best = deque(scan(n, m, tables, -1), maxlen=1).pop()
    return bundles, best, tables, denom


def _check_against_oracle(economy, t, zero_agents=frozenset()):
    """The kernel on the tables with ``zero_agents`` zeroed, then the
    allocation and every Clarke-pivot solve of winner determination."""
    n, m = economy.num_agents, economy.num_objects
    bundles, best, tables, _ = _oracle(economy, t, zero_agents)
    assert _best_total(tables, [0] * n, (1 << m) - 1) == best
    assert _first_above(m, tables, best - 1) == (bundles, best)
    bundles, best, _, denom = _oracle(economy, t)
    bundles = minimal_equivalent_bundles(economy, t, bundles)
    assert winner_determination(economy, t) == (bundles, F(best, denom))
    for i in range(n):
        _, rivals, _, rivals_denom = _oracle(economy, t, frozenset((i,)))
        assert winner_determination(economy, t, leave_out=i) == (None, F(rivals, rivals_denom))


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


def test_dp_matches_scan_at_integer_reference_levels():
    rng = random.Random(23)
    for _ in range(200):
        eco = random_economy(rng, rng.randint(1, 4), rng.randint(1, 3), "mixed")
        t = F(rng.choice((-1, 0, 1)))
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
        solo = Economy(eco.object_names, eco.preferences[:1])
        assert winner_determination(solo, 0, leave_out=0) == (None, 0)


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
            pivot = winner_determination(eco, t, leave_out=i)
            assert pivot == (None, F(rivals, rivals_denom))
            realized = welfare - wp(pref, result.allocation[i], t)
            expected.append(t + F(rivals, rivals_denom) - realized)
        assert result.payments == tuple(expected)


def _relabel_objects(pref, perm):
    def move(mask):
        return sum(1 << perm[j] for j in range(len(perm)) if mask >> j & 1)

    if isinstance(pref, Dichotomous):
        return Dichotomous(tuple(move(b) for b in pref.minimal_bundles), pref.wp_map)
    return Tabular.from_table(len(perm), {move(b): w for b, w in enumerate(pref.maps)})


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


# ---------------------------------------------------------------------------
# the threshold kernel against the first scan record above a floor


def _tables_at(economy, levels):
    """Integer WP tables at per-agent levels, as the dominance audit builds them."""
    tables, _ = normalized_mask_tables(wp_tables(economy, levels))
    return tables


def _random_levels(rng, n):
    return [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]


def _check_floors(rng, n, m, tables):
    best = _best_total(tables, [0] * n, (1 << m) - 1)
    assert best == deque(scan(n, m, tables, -1), maxlen=1).pop()[1]
    floors = [best, best + rng.randint(1, 3), -1 - rng.randint(0, 3)]
    if best > 0:
        floors += [0, best - 1] + [rng.randrange(best) for _ in range(3)]
    for floor in floors:
        assert _first_above(m, tables, floor) == next(scan(n, m, tables, floor), None), floor
    assert _first_above(m, tables, best) is None
    all_to_zero = tables[0][(1 << m) - 1] + sum(row[0] for row in tables[1:])
    assert _first_above(m, tables, -1) == (((1 << m) - 1,) + (0,) * (n - 1), all_to_zero)


def test_first_above_matches_first_scan_record_on_random_tables():
    rng = random.Random(59)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        eco = random_economy(rng, n, m, rng.choice(("mixed", "pos", "neg")))
        _check_floors(rng, n, m, _tables_at(eco, _random_levels(rng, n)))


def test_first_above_with_tie_heavy_duplicated_agents():
    rng = random.Random(61)
    for _ in range(30):
        base = random_economy(rng, rng.randint(1, 2), rng.randint(1, 5), "mixed")
        prefs = list(base.preferences) * 2
        rng.shuffle(prefs)
        eco = Economy(base.object_names, tuple(prefs))
        t = F(rng.randint(-1, 1))
        _check_floors(rng, eco.num_agents, eco.num_objects, _tables_at(eco, [t] * len(prefs)))
    for n, m in ((1, 5), (3, 4), (5, 3)):
        pref = Dichotomous(tuple(1 << j for j in range(m)), PwlMap.constant(1))
        eco = Economy(tuple("abcde"[:m]), (pref,) * n)
        _check_floors(rng, n, m, _tables_at(eco, [F(0)] * n))


def test_first_above_with_one_agent_or_one_object():
    rng = random.Random(67)
    for _ in range(30):
        m = rng.randint(1, 5)
        eco = random_economy(rng, 1, m, "mixed")
        _check_floors(rng, 1, m, _tables_at(eco, _random_levels(rng, 1)))
        n = rng.randint(1, 5)
        eco = random_economy(rng, n, 1, "mixed")
        _check_floors(rng, n, 1, _tables_at(eco, _random_levels(rng, n)))


def test_first_above_on_tabular_unit_demand_agents():
    rng = random.Random(71)
    for _ in range(30):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        eco = _unit_demand_economy(rng, n, m)
        _check_floors(rng, n, m, _tables_at(eco, _random_levels(rng, n)))
