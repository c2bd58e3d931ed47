"""Preference-model tests: WP queries, indifference solving and comparisons."""

import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gvcglab import (
    Comparison,
    Dichotomous,
    PwlMap,
    StructuralError,
    Tabular,
    ZERO_MAP,
    compare_outcomes,
    empty_equivalent_transfer,
    pwl_leq,
    pwl_pointwise_max,
    random_dichotomous,
    random_pwl_map,
    rat,
    unit_demand_pref,
    wp,
)
from gvcglab.serialize import fraction_str

A, B, AB = 0b01, 0b10, 0b11


def rising_map():
    """2 + 3t above -1/2, constant 1/2 below."""
    return PwlMap((F(-1, 2),), ((F(1, 2), F(0)), (F(2), F(3))))


def either_bundle_pref():
    return Dichotomous((A, B), rising_map())


# ---------------------------------------------------------------------------
# PwlMap structure


def test_pwl_validation_errors():
    with pytest.raises(StructuralError):
        PwlMap((F(1), F(0)), ((F(1), F(0)),) * 3)  # breakpoints not ascending
    with pytest.raises(StructuralError):
        PwlMap((F(0),), ((F(1), F(0)), (F(2), F(0))))  # jump at the breakpoint
    with pytest.raises(StructuralError):
        PwlMap((), ((F(1), F(-1)),))  # slope -1 kills transfer monotonicity
    with pytest.raises(StructuralError):
        PwlMap((F(0),), ((F(1), F(0)),))  # piece count mismatch
    with pytest.raises(StructuralError):
        rat("1/0")
    with pytest.raises(StructuralError):
        rat(0.5)  # floats are banned
    assert rat("1.9") == F(19, 10)  # decimal strings parse exactly
    assert rat("-1/40") == F(-1, 40)


def test_rat_bounds_literal_size():
    assert rat("1e4299") == 10**4299  # 4300 digits, the most str() writes
    assert rat("25E-2") == F(1, 4)
    assert rat("1" * 4300) == int("1" * 4300)
    for literal in ("1e4300", "1E-4300", "2.5e+10000000", "1" * 4301):
        with pytest.raises(StructuralError, match="exceeds 4300 digits"):
            rat(literal)
    for literal in ("1" * 4301 + "/3", "3/" + "1" * 4301):
        with pytest.raises(StructuralError, match="exceeds 4300 digits"):
            rat(literal)


def test_rat_reads_back_a_long_ratio_it_can_write():
    value = F(10**2999 + 1, 3 * 10**2999 + 7)  # 3000 + 3001 digits
    text = fraction_str(value)
    assert len(text) > 4300
    assert rat(text) == value


def test_pwl_merges_collinear_pieces():
    m = PwlMap((F(0), F(1)), ((F(2), F(0)), (F(2), F(0)), (F(1), F(1))))
    assert m.breakpoints == (F(1),)
    assert m == PwlMap((F(1),), ((F(2), F(0)), (F(1), F(1))))


def test_pwl_positivity_checks():
    assert rising_map().is_strictly_positive()
    assert not PwlMap.constant(0).is_strictly_positive()
    assert PwlMap.constant(0).is_nonnegative()
    assert not PwlMap((), ((F(1), F(1, 2)),)).is_strictly_positive()  # dives left
    falling_forever = PwlMap((), ((F(1), F(-1, 2)),))
    assert not falling_forever.is_nonnegative()  # dives right
    touches_zero = PwlMap((F(1),), ((F(1, 2), F(-1, 2)), (F(-1), F(1))))
    assert touches_zero.value(1) == 0  # its least value, at its breakpoint
    assert touches_zero.is_nonnegative()
    assert not touches_zero.is_strictly_positive()


def test_pwl_pointwise_max_and_leq():
    f = PwlMap((), ((F(3), F(-1, 8)),))
    g = PwlMap((), ((F(4), F(-1, 4)),))
    h = pwl_pointwise_max(f, g)
    # crossing at t = 8
    assert h.breakpoints == (F(8),)
    for t in (F(-5), F(0), F(8), F(9), F(20)):
        assert h.value(t) == max(f.value(t), g.value(t))
    assert pwl_leq(f, h) and pwl_leq(g, h)
    assert not pwl_leq(h, f) and not pwl_leq(g, f)
    assert pwl_leq(f, f)


@settings(deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_pwl_pointwise_max_matches_values(seed_f, seed_g):
    f = random_pwl_map(random.Random(seed_f), "mixed")
    g = random_pwl_map(random.Random(seed_g), "mixed")
    h = pwl_pointwise_max(f, g)
    probes = {F(0), F(1, 3), F(-7)}
    for bp in f.breakpoints + g.breakpoints + h.breakpoints:
        probes.update((bp - 1, bp, bp + F(1, 2)))
    for t in probes:
        assert h.value(t) == max(f.value(t), g.value(t))


# ---------------------------------------------------------------------------
# wp


def test_wp_table_values():
    pref = either_bundle_pref()
    assert wp(pref, A, 0) == 2
    assert wp(pref, B, F(-1, 40)) == F(77, 40)
    assert wp(pref, AB, 0) == 2
    assert wp(pref, 0, F(5)) == 0


def test_wp_unacceptable_is_zero():
    pref = Dichotomous((AB,), PwlMap.constant(F(39, 10)))
    for t in (F(-1), F(0), F(7, 3)):
        assert wp(pref, A, t) == 0
        assert wp(pref, B, t) == 0
    assert wp(pref, AB, F(100)) == F(39, 10)


def test_wp_tabular_lookup_and_missing_bundle():
    pref = unit_demand_pref()
    assert wp(pref, A, 0) == 3
    assert wp(pref, B, 0) == 4
    assert wp(pref, AB, 0) == 4
    assert wp(pref, 0, 0) == 0
    with pytest.raises(StructuralError, match="^bundle 100 missing from WP table$"):
        wp(pref, 0b100, 0)  # outside the universe
    # a table that misses a bundle fails where it is built, not where it is read
    with pytest.raises(StructuralError, match="^bundle 10 missing from WP table$"):
        Tabular.from_table(2, {A: PwlMap.constant(1)})


@settings(deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3), st.fractions(-6, 6, max_denominator=32))
def test_wp_nonnegative_and_empty_zero(seed, bundle, t):
    pref = random_dichotomous(random.Random(seed), 2, "mixed")
    assert wp(pref, bundle, t) >= 0
    assert wp(pref, 0, t) == 0


# ---------------------------------------------------------------------------
# empty-equivalent transfers


def test_empty_equivalent_transfer_examples():
    pref = either_bundle_pref()
    assert empty_equivalent_transfer(pref, A, F(19, 10)) == F(-1, 40)
    quasilinear = Dichotomous((A,), PwlMap.constant(5))
    for pay in (F(0), F(3), F(-2), F(19, 7)):
        assert empty_equivalent_transfer(quasilinear, A, pay) == pay - 5


def test_empty_equivalent_transfer_against_bisection_oracle():
    # two-piece map: 4 - t/2 for t <= 0, constant 4 above
    kinked = PwlMap((F(0),), ((F(4), F(-1, 2)), (F(4), F(0))))
    pref = Dichotomous((A,), kinked)
    pay = F(2)

    def total(t):
        return t + kinked.value(t)

    lo, hi = F(-1), F(1)
    while total(lo) > pay:
        lo *= 2
    while total(hi) < pay:
        hi *= 2
    for _ in range(40):
        mid = (lo + hi) / 2
        if total(mid) < pay:
            lo = mid
        else:
            hi = mid
    solved = empty_equivalent_transfer(pref, A, pay)
    assert lo <= solved <= hi
    assert solved == F(-4)
    assert solved + wp(pref, A, solved) == pay


@settings(deadline=None)
@given(st.integers(0, 10**6), st.fractions(-10, 10, max_denominator=64))
def test_empty_equivalent_round_trip_exact(seed, pay):
    pref = random_dichotomous(random.Random(seed), 3, "mixed")
    bundle = random.Random(seed + 1).randrange(0, 8)
    t = empty_equivalent_transfer(pref, bundle, pay)
    assert t + wp(pref, bundle, t) == pay


@settings(deadline=None)
@given(
    st.integers(0, 10**6),
    st.fractions(-5, 5, max_denominator=32),
    st.fractions(1, 4, max_denominator=32),
)
def test_empty_equivalent_strictly_increasing_in_pay(seed, pay, bump):
    pref = random_dichotomous(random.Random(seed), 2, "mixed")
    lo = empty_equivalent_transfer(pref, AB, pay)
    hi = empty_equivalent_transfer(pref, AB, pay + bump)
    assert lo < hi


# ---------------------------------------------------------------------------
# outcome comparison


def test_compare_outcomes_unit_demand_facts():
    pref = unit_demand_pref()
    assert compare_outcomes(pref, (B, F(2)), (A, F(1))) is Comparison.BETTER
    assert compare_outcomes(pref, (B, F(4)), (A, F(3))) is Comparison.INDIFFERENT
    assert compare_outcomes(pref, (A, F(1)), (B, F(2))) is Comparison.WORSE


def test_compare_outcomes_reflexive():
    pref = either_bundle_pref()
    for outcome in ((A, F(1)), (0, F(0)), (AB, F(-3, 7))):
        assert compare_outcomes(pref, outcome, outcome) is Comparison.INDIFFERENT


def test_compare_outcomes_total_and_transitive_on_random_triples():
    rng = random.Random(11)
    order = {Comparison.BETTER: 1, Comparison.INDIFFERENT: 0, Comparison.WORSE: -1}
    for _ in range(300):
        pref = random_dichotomous(rng, 2, "mixed")
        outs = [
            (rng.randrange(0, 4), F(rng.randrange(-40, 41), rng.randrange(1, 9)))
            for _ in range(3)
        ]
        ranks = {(i, j): order[compare_outcomes(pref, outs[i], outs[j])] for i in range(3) for j in range(3)}
        for i in range(3):
            assert ranks[(i, i)] == 0
            for j in range(3):
                assert ranks[(i, j)] == -ranks[(j, i)]  # totality / antisymmetry
        key = [empty_equivalent_transfer(pref, b, p) for b, p in outs]
        for i in range(3):
            for j in range(3):
                assert ranks[(i, j)] == (key[j] > key[i]) - (key[j] < key[i])


def test_free_disposal_orders_supersets():
    pref = unit_demand_pref()
    for t in (F(-2), F(0), F(3), F(10)):
        for small, big in ((A, AB), (B, AB), (0, A), (0, B), (0, AB)):
            assert compare_outcomes(pref, (big, t), (small, t)) in (
                Comparison.BETTER,
                Comparison.INDIFFERENT,
            )


# ---------------------------------------------------------------------------
# structural validation of preferences


def test_dichotomous_validation():
    with pytest.raises(StructuralError):
        Dichotomous((), rising_map())
    with pytest.raises(StructuralError):
        Dichotomous((0,), rising_map())
    with pytest.raises(StructuralError):
        Dichotomous((A, AB), rising_map())  # not an antichain
    with pytest.raises(StructuralError):
        Dichotomous((A,), PwlMap.constant(0))  # WP map must be positive


def test_tabular_validation():
    one, three = PwlMap.constant(1), PwlMap.constant(3)
    with pytest.raises(StructuralError, match="empty bundle must be identically zero"):
        Tabular.from_table(2, {0: one, A: one, B: one, AB: one})
    with pytest.raises(StructuralError, match="WP map for bundle 1 goes negative"):
        Tabular.from_table(2, {A: PwlMap((), ((F(1), F(-1, 2)),)), B: one, AB: one})
    with pytest.raises(StructuralError, match=r"WP\(1\) exceeds WP\(11\)"):
        # free disposal: the pair must be worth at least the singleton
        Tabular.from_table(2, {A: three, B: one, AB: PwlMap.constant(2)})
    with pytest.raises(StructuralError, match="bundle 1 missing from WP table"):
        Tabular.from_table(2, {B: one, AB: three})
    with pytest.raises(StructuralError, match="bundle 100 outside the 2-object universe"):
        Tabular.from_table(2, {A: one, B: one, AB: one, 0b100: one})
    ok = Tabular.from_table(2, {0: ZERO_MAP, A: three, B: one, AB: three})
    assert ok.map_for(A) == three
    assert ok == Tabular((ZERO_MAP, three, one, three))
    assert ok.num_objects == 2
    for size in (0, 1, 3, 6):
        with pytest.raises(StructuralError, match=rf"^a WP table has 2\*\*m maps .* got {size}$"):
            Tabular(((ZERO_MAP,) + (one,) * 5)[:size])
    with pytest.raises(StructuralError, match="empty bundle must be identically zero"):
        Tabular((one, one))


def _dip(low):
    """3 left of 0, falling to ``low`` at 1, rising again to the right."""
    fall = 3 - F(low)
    return PwlMap((F(0), F(1)), ((F(3), F(0)), (F(3), -fall), (F(low) - fall, fall)))


def test_total_table_with_one_bad_covering_pair_is_rejected():
    table = {mask: PwlMap.constant(mask.bit_count()) for mask in range(1, 8)}
    table[0b011] = PwlMap.constant(F(5, 2))
    table[0b111] = _dip(F(5, 2))
    Tabular.from_table(3, table)  # {a,b} touches {a,b,c} at t = 1
    # now only the covering pair {a,b} < {a,b,c} fails, near t = 1
    table[0b111] = _dip(F(9, 4))
    with pytest.raises(StructuralError, match=r"WP\(11\) exceeds WP\(111\)"):
        Tabular.from_table(3, table)


def test_partial_table_rejects_a_violation_across_missing_bundles():
    # {a} is worth more than {a,b,c}; {a,b} and {a,c}, between them, are absent
    one, two = PwlMap.constant(1), PwlMap.constant(2)
    table = {0b001: PwlMap.constant(3), 0b010: one, 0b100: one, 0b110: two, 0b111: two}
    with pytest.raises(StructuralError, match="^bundle 11 missing from WP table$"):
        Tabular.from_table(3, table)
    # filled in, the chain {a} < {a,b} < {a,b,c} fails at its first link
    table[0b011] = table[0b101] = two
    with pytest.raises(StructuralError, match=r"WP\(1\) exceeds WP\(11\)"):
        Tabular.from_table(3, table)
    table[0b001] = two
    Tabular.from_table(3, table)


def test_tabular_free_disposal_matches_the_all_pairs_definition():
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        m = rng.randint(1, 3)
        table = {}
        for mask in range(1, 1 << m):
            if rng.random() < 0.3:
                table[mask] = _dip(rng.choice((F(9, 4), F(5, 2), F(11, 4))))
            else:
                table[mask] = PwlMap.constant(mask.bit_count() + rng.randint(0, 1))
        failing = [
            (small, big)
            for small in table
            for big in table
            if small != big and small & big == small and not pwl_leq(table[small], table[big])
        ]
        # the first covering pair S < S | {x} that fails, by S and then by x
        covering = [
            (small, small | 1 << x)
            for small in sorted(table)
            for x in range(m)
            if (small, small | 1 << x) in failing
        ]
        try:
            Tabular.from_table(m, table)
            accepted = True
        except StructuralError as exc:
            small, big = covering[0]
            assert str(exc) == f"free disposal violated: WP({small:b}) exceeds WP({big:b}) somewhere"
            accepted = False
        assert accepted == (not failing)
        verdicts[accepted] += 1
    assert min(verdicts.values()) >= 50


def test_fresh_imports_release_the_previous_package():
    # Drop and re-import the package twice, as a harness that wants fresh
    # module state does, then check the first copy of a class is collectable.
    # A process-wide cache (typing's alias cache) that held the class would
    # keep every earlier module namespace alive.  A subprocess keeps this
    # test's imports away from the class identities of the other tests.
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = textwrap.dedent(
        f"""
        import gc, sys, weakref
        sys.path.insert(0, {src!r})
        import gvcglab, gvcglab.cli
        first = weakref.ref(gvcglab.Dichotomous)
        for _ in range(2):
            for name in list(sys.modules):
                if name.split(".")[0] == "gvcglab":
                    del sys.modules[name]
            import gvcglab, gvcglab.cli
        gc.collect()
        sys.exit(0 if first() is None else 1)
        """
    )
    assert subprocess.run([sys.executable, "-c", script], timeout=60).returncode == 0
