"""Random-economy generator tests: validity, regimes, reproducibility."""

import random

import pytest

from gvcglab import (
    random_deviation_grid,
    random_dichotomous,
    random_economy,
    random_pwl_map,
)


def test_maps_are_valid_wp_maps():
    rng = random.Random(0)
    for mode in ("pos", "neg", "mixed"):
        for _ in range(300):
            pwl = random_pwl_map(rng, mode)
            assert pwl.is_strictly_positive()
            assert all(s > -1 for s in pwl.slopes)


def test_income_effect_regimes():
    rng = random.Random(1)
    for _ in range(300):
        assert random_pwl_map(rng, "pos").is_nonincreasing()
    for _ in range(300):
        assert any(s > 0 for s in random_pwl_map(rng, "neg").slopes)


def test_minimal_bundles_form_antichains():
    rng = random.Random(2)
    for _ in range(300):
        m = rng.randint(1, 3)
        pref = random_dichotomous(rng, m, "mixed")
        bundles = pref.minimal_bundles
        assert 1 <= len(bundles) <= 3
        assert all(0 < b < (1 << m) for b in bundles)
        for x in bundles:
            for y in bundles:
                assert x == y or (x & y) not in (x, y)


def test_seeded_generation_is_reproducible():
    first = random_economy(random.Random(42), 3, 2, "mixed")
    second = random_economy(random.Random(42), 3, 2, "mixed")
    assert first == second
    assert random_deviation_grid(random.Random(7), 2, 5) == random_deviation_grid(
        random.Random(7), 2, 5
    )
    assert random_economy(random.Random(1), 3, 2) != random_economy(random.Random(2), 3, 2)


def test_economy_dimensions():
    rng = random.Random(3)
    eco = random_economy(rng, 4, 3, "pos")
    assert eco.num_agents == 4
    assert eco.num_objects == 3
    assert eco.object_names == ("a", "b", "c")
    assert random_economy(rng, 1, 10).object_names == tuple("abcdefghij")
    with pytest.raises(ValueError, match="^random_economy names at most 10 objects, got 11$"):
        random_economy(rng, 1, 11)
