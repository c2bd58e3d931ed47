"""Differential checks for tabular preferences across the whole pipeline.

Random unit-demand-style tables (each bundle's WP map is the pointwise max of
its singleton maps, some singletons worthless) are pushed through winner
determination, payments, the guarantee checks, the dominance scan, and the
JSON codecs, cross-checked against brute-force oracles.
"""

import random
from fractions import Fraction as F

from gvcglab import (
    Economy,
    OutcomeProfile,
    Tabular,
    ZERO_MAP,
    dominates,
    find_pareto_improvement,
    max_retained_payment,
    pwl_leq,
    pwl_pointwise_max,
    random_dichotomous,
    random_pwl_map,
    run_gvcg_with_audit,
    winner_determination,
    wp,
)
from gvcglab.serialize import preference_from_json, preference_to_json
from oracle import enumerate_allocations, minimal_equivalent_bundles


def random_unit_demand_table(rng, num_objects, mode="mixed"):
    singles = []
    for _ in range(num_objects):
        if rng.random() < 0.25:
            singles.append(ZERO_MAP)
        else:
            singles.append(random_pwl_map(rng, mode))
    if all(s == ZERO_MAP for s in singles):
        singles[rng.randrange(num_objects)] = random_pwl_map(rng, mode)
    table = {}
    for mask in range(1, 1 << num_objects):
        best = ZERO_MAP
        for x in range(num_objects):
            if mask & (1 << x):
                best = pwl_pointwise_max(best, singles[x])
        table[mask] = best
    return Tabular.from_table(num_objects, table)


def random_mixed_economy(rng, num_agents, num_objects, mode="mixed"):
    prefs = []
    for _ in range(num_agents):
        if rng.random() < 0.5:
            prefs.append(random_unit_demand_table(rng, num_objects, mode))
        else:
            prefs.append(random_dichotomous(rng, num_objects, mode))
    return Economy(tuple("abc"[:num_objects]), tuple(prefs))


def test_random_tables_satisfy_free_disposal_by_construction():
    rng = random.Random(0)
    for _ in range(60):
        m = rng.randint(1, 3)
        pref = random_unit_demand_table(rng, m)
        full = (1 << m) - 1
        for small in range(1, full + 1):
            for big in range(small, full + 1):
                if small & big == small:
                    assert pwl_leq(pref.map_for(small), pref.map_for(big))


def test_wd_on_mixed_economies_matches_brute_force():
    rng = random.Random(1)
    for _ in range(120):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        eco = random_mixed_economy(rng, n, m)
        t = F(rng.randint(-2, 2))
        alloc, welfare = winner_determination(eco, t)
        oracle, first = None, None
        for cand in enumerate_allocations(n, m):
            total = sum(wp(p, b, t) for p, b in zip(eco.preferences, cand))
            if oracle is None or total > oracle:
                oracle, first = total, cand
        assert welfare == oracle
        assert sum(wp(p, b, t) for p, b in zip(eco.preferences, alloc)) == welfare
        assert alloc == minimal_equivalent_bundles(eco, t, first)


def test_outcome_guarantees_hold_on_mixed_economies():
    # every payment lies in [t_L, t_L + WP(bundle, t_L)], so losers pay
    # exactly t_L, for any preference in the model, dichotomous or not
    rng = random.Random(2)
    for _ in range(120):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        eco = random_mixed_economy(rng, n, m)
        t = F(rng.randint(-2, 1))
        result = run_gvcg_with_audit(eco, t)
        for pref, bundle, payment in zip(eco.preferences, result.allocation, result.payments):
            assert t <= payment <= t + wp(pref, bundle, t)


def test_dominance_scan_agrees_with_direct_checks_on_mixed_economies():
    rng = random.Random(3)
    witnesses = 0
    for _ in range(150):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        eco = random_mixed_economy(rng, n, m)
        result = run_gvcg_with_audit(eco, 0)
        base = OutcomeProfile.from_result(result)
        witness = find_pareto_improvement(eco, base)
        if witness is not None:
            witnesses += 1
            assert dominates(eco, witness.dominating, base)
            continue
        allocations = list(enumerate_allocations(n, m))
        for _ in range(40):
            alloc = rng.choice(allocations)
            outcomes = tuple(
                (
                    bundle,
                    max_retained_payment(eco.preferences[i], base.outcomes[i], bundle)
                    - F(rng.randint(0, 6), 4),
                )
                for i, bundle in enumerate(alloc)
            )
            assert not dominates(eco, OutcomeProfile(outcomes), base)
    # negative income effects appear in the draw, so some witnesses should too
    assert witnesses > 0


def test_tabular_preferences_round_trip_through_json():
    rng = random.Random(4)
    names = ("a", "b", "c")
    for _ in range(60):
        m = rng.randint(1, 3)
        pref = random_unit_demand_table(rng, m)
        recovered = preference_from_json(preference_to_json(pref, names[:m]), names[:m])
        assert recovered == pref
