"""Mechanism tests: externality payments, outcome guarantees, invariances."""

import random
from fractions import Fraction as F

import pytest

from gvcglab import (
    Dichotomous,
    Economy,
    InternalAuditError,
    MechanismResult,
    PwlMap,
    inefficiency_trio,
    negative_income_trio,
    positive_income_trio,
    random_dichotomous,
    random_economy,
    run_gvcg,
    run_gvcg_with_audit,
    unit_demand_misreport,
    unit_demand_trio,
    wp,
)

A, B, AB = 0b01, 0b10, 0b11


def test_negative_income_trio_payments():
    res = run_gvcg(negative_income_trio(), 0)
    assert res.allocation == (0, A, B)
    assert res.payments == (F(0), F(19, 10), F(19, 10))
    assert res.welfare == 4


def test_positive_income_trio_same_payments():
    res = run_gvcg(positive_income_trio(), 0)
    assert res.payments == (F(0), F(19, 10), F(19, 10))


def test_unit_demand_trio_payments_both_profiles():
    eco = unit_demand_trio()
    truthful = run_gvcg(eco, 0)
    assert truthful.allocation == (0, A, B)
    assert truthful.payments == (F(0), F(1), F(2))
    deviated = run_gvcg(eco.replace_preference(1, unit_demand_misreport()), 0)
    assert deviated.allocation[1] == B
    assert deviated.payments[1] == F(2)


def test_single_agent_pays_reference_level():
    eco = Economy(("a",), (Dichotomous((A,), PwlMap.constant(3)),))
    assert run_gvcg(eco, 0).payments == (F(0),)
    assert run_gvcg(eco, -1).payments == (F(-1),)


def test_quasilinear_invariance_across_reference_levels():
    rng = random.Random(3)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        prefs = tuple(
            Dichotomous(
                random_dichotomous(rng, m, "pos").minimal_bundles,
                PwlMap.constant(F(rng.randint(1, 20), 4)),
            )
            for _ in range(n)
        )
        eco = Economy(tuple("abc"[:m]), prefs)
        base = run_gvcg(eco, 0)
        for t in (F(-2), F(1, 2), F(3)):
            shifted = run_gvcg(eco, t)
            assert shifted.allocation == base.allocation
            assert tuple(p - t for p in shifted.payments) == base.payments


def test_payments_never_below_reference_level():
    rng = random.Random(9)
    for _ in range(150):
        eco = random_economy(rng, rng.randint(1, 4), rng.randint(1, 3), "mixed")
        t = F(rng.randint(-2, 2))
        res = run_gvcg(eco, t)
        assert all(p >= t for p in res.payments)


def _assert_payments_within_reference_bounds(economy, result):
    """Every payment lies in [t_L, t_L + WP(bundle, t_L)]."""
    t = result.t_l
    for pref, bundle, payment in zip(economy.preferences, result.allocation, result.payments):
        assert t <= payment <= t + wp(pref, bundle, t)


def test_audit_bounds_on_negative_income_trio():
    eco = negative_income_trio()
    res = run_gvcg_with_audit(eco, 0)
    assert res == run_gvcg(eco, 0)
    assert res.allocation[0] == 0 and res.payments[0] == 0  # the loser pays t_L
    # winners pay within their WP at zero: 0 <= 19/10 <= 2
    assert wp(eco.preferences[1], A, 0) == 2
    _assert_payments_within_reference_bounds(eco, res)


def test_audit_losers_pay_reference_at_negative_level():
    eco = inefficiency_trio(t_l=-1)
    res = run_gvcg_with_audit(eco, -1)
    assert res.payments == (0, 0, -1)
    assert res.allocation[2] == 0  # the loser pays exactly t_L
    _assert_payments_within_reference_bounds(eco, res)


def test_audit_holds_on_random_economies():
    rng = random.Random(21)
    for _ in range(120):
        eco = random_economy(rng, rng.randint(1, 4), rng.randint(1, 3), "mixed")
        t = F(rng.randint(-2, 1))
        _assert_payments_within_reference_bounds(eco, run_gvcg_with_audit(eco, t))


def test_tampered_result_would_fail_the_guarantee_check(monkeypatch):
    # a hand-broken payment vector trips the internal audit machinery
    eco = negative_income_trio()
    good = run_gvcg(eco, 0)
    bad = MechanismResult(good.allocation, (F(1), *good.payments[1:]), good.welfare, good.t_l)
    assert bad.payments[0] != 0  # loser charged despite empty bundle

    import gvcglab.mechanism as mech

    monkeypatch.setattr(mech, "run_gvcg", lambda *a, **k: bad)
    with pytest.raises(InternalAuditError):
        mech.run_gvcg_with_audit(eco, 0)


def test_winner_charged_below_reference_level_fails_the_guarantee_check(monkeypatch):
    # IR alone cannot catch this: paying less only makes the winner better off
    eco = inefficiency_trio(t_l=-1)
    good = run_gvcg(eco, -1)
    assert good.allocation[0] == A and good.payments[0] == 0
    bad = MechanismResult(good.allocation, (F(-2), *good.payments[1:]), good.welfare, good.t_l)

    import gvcglab.mechanism as mech

    monkeypatch.setattr(mech, "run_gvcg", lambda *a, **k: bad)
    with pytest.raises(InternalAuditError, match=r"agents \[0\]"):
        mech.run_gvcg_with_audit(eco, -1)
