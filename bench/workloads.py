"""Seeded inputs, ops and output checks for the benchmark workloads.

A workload is a list of cases whose shapes and kinds are fixed and whose
contents come from the seed, so every seed asks for the same kind and amount
of work.  A case holds its generated input, an ``op`` that calls into
``gvcglab`` only, and a ``check`` that validates the op's output with public
functions.  Ops look functions up on their modules at call time, so the
traced run (``spans.py``) sees them.

All inputs come from ``random.Random(seed)``: the same seed gives the same
inputs, byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from gvcglab import allocation, audit, generate, mechanism, prefs, scenarios, serialize
from gvcglab.allocation import Economy
from gvcglab.audit import OutcomeProfile
from gvcglab.prefs import Comparison, Dichotomous, PwlMap, Tabular

# Roadmap shapes (n agents, m objects): every one is within the (n+1)^m <= 10^8
# guard.  Shapes beyond it (n=100, m=5) fail today and are left out.
LARGE_SHAPES = ((2, 10), (3, 8), (4, 7), (9, 5), (6, 6))
# Two shapes cost less than (3,3) and two cost more, so the median op falls
# inside the (3,3) cluster rather than on a gap between two shapes' costs;
# (2,2) is left out for that reason.
SMALL_SHAPES = ((2, 3), (3, 2), (3, 3), (4, 2), (4, 3))
TINY_LARGE_SHAPES = ((2, 3), (3, 2), (2, 2))
TINY_SMALL_SHAPES = ((2, 2),)
# One economy kind per large shape: tie-heavy and tabular instances at two
# shapes each (tabular agents only where m <= 7).
SOLVE_KINDS = ("mixed", "ties", "tabular", "ties", "tabular")

T_LEVELS = (Fraction(-1), Fraction(0), Fraction(1))
PAYMENT_GRID = tuple(Fraction(k, 4) for k in range(-8, 9))
GAIN_GRID = tuple(Fraction(k, 8) for k in range(1, 9))
MISREPORTS_PER_AGENT = 20

AUDIT_DOCS_PER_STRATUM = 12
DOMINANCE_ROUNDS = 2

# Early-exit dominance profiles put their first witness at evenly spread
# fractions of the (n+1)^m candidates, each moved by a small seeded jitter, so
# every seed scans about the same number of candidates in total.
EARLY_MAX_DEPTH = 0.45
EARLY_JITTER = 0.1
# Two full scans against three early exits per shape: the median op then lies
# inside the early-exit group instead of on the gap between the two groups.
FULL_SCANS_PER_SHAPE = 2
EARLY_PER_SHAPE = 3


@dataclass
class Case:
    """One generated input with the op that runs it and the check of its output."""

    label: str
    op: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest_text: Callable[[Any], str]


@dataclass
class Workload:
    name: str
    cases: list[Case]


# ---------------------------------------------------------------------------
# shared generators


def unit_demand(rng: random.Random, num_objects: int) -> Tabular:
    """Tabular unit-demand agent: WP(S) is the pointwise max of per-object maps."""
    per_object = [generate.random_pwl_map(rng, "mixed") for _ in range(num_objects)]
    table: dict[int, PwlMap] = {}
    for mask in range(1, 1 << num_objects):
        low = mask & -mask
        rest = mask ^ low
        own = per_object[low.bit_length() - 1]
        table[mask] = own if rest == 0 else prefs.pwl_pointwise_max(table[rest], own)
    return Tabular.from_table(num_objects, table)


def object_names(num_objects: int) -> tuple[str, ...]:
    return tuple(generate.OBJECT_NAMES[:num_objects])


def mixed_economy(rng: random.Random, n: int, m: int) -> Economy:
    return generate.random_economy(rng, n, m, "mixed")


def tie_heavy_economy(rng: random.Random, n: int, m: int) -> Economy:
    """Duplicated agents that all share one constant WP: many optimal allocations."""
    value = PwlMap.constant(rng.choice(generate.VALUE_GRID))
    distinct = [
        Dichotomous(generate.random_dichotomous(rng, m).minimal_bundles, value)
        for _ in range((n + 1) // 2)
    ]
    agents = (distinct * 2)[:n]
    rng.shuffle(agents)
    return Economy(object_names(m), tuple(agents))


def tabular_economy(rng: random.Random, n: int, m: int, tabular: int) -> Economy:
    """Dichotomous agents followed by ``tabular`` tabular unit-demand agents."""
    agents = [generate.random_dichotomous(rng, m) for _ in range(n - tabular)]
    agents += [unit_demand(rng, m) for _ in range(tabular)]
    return Economy(object_names(m), tuple(agents))


# ---------------------------------------------------------------------------
# invariants checked with public functions


def check_mechanism_result(economy: Economy, result: Any, t_l: Fraction) -> list[str]:
    problems = []
    try:
        allocation.validate_allocation(result.allocation, economy.num_objects)
    except prefs.StructuralError as exc:
        problems.append(f"invalid allocation: {exc}")
    values = [
        prefs.wp(pref, bundle, t_l)
        for pref, bundle in zip(economy.preferences, result.allocation)
    ]
    if result.welfare != sum(values, Fraction(0)):
        problems.append("welfare differs from the sum of WP at t_L")
    if result.t_l != t_l:
        problems.append("result carries the wrong t_L")
    for i, (value, payment) in enumerate(zip(values, result.payments)):
        if payment < t_l:
            problems.append(f"agent {i} pays {payment} < t_L")
        if value == 0 and payment != t_l:
            problems.append(f"loser {i} pays {payment}, not t_L")
    return problems


def assignment_rank(num_agents: int, num_objects: int, bundles: tuple[int, ...]) -> int:
    """Lexicographic rank of the assignment vector behind ``bundles``.

    Object 0 is the most significant digit; an agent index is its digit and
    "unsold" is digit n, so the rank counts the candidates scanned before it.
    """
    rank = 0
    for obj in range(num_objects):
        bit = 1 << obj
        owner = next((i for i, b in enumerate(bundles) if b & bit), num_agents)
        rank = rank * (num_agents + 1) + owner
    return rank


def dominance_candidates(num_agents: int, num_objects: int, witness: Any) -> int:
    """Candidates a lexicographic scan visits: the witness rank + 1, or all."""
    if witness is None:
        return allocation.search_space_size(num_agents, num_objects)
    bundles = tuple(b for b, _ in witness.dominating.outcomes)
    return assignment_rank(num_agents, num_objects, bundles) + 1


def check_dominance_witness(economy: Economy, base: OutcomeProfile, witness: Any) -> list[str]:
    problems = []
    if not audit.dominates(economy, witness.dominating, base):
        problems.append("dominance witness fails dominates()")
    if witness.payment_gain != witness.dominating.payment_total() - base.payment_total():
        problems.append("witness gain differs from the payment-total difference")
    return problems


# ---------------------------------------------------------------------------
# solve-large: run_gvcg on large economies


def solve_case(label: str, economy: Economy, t_l: Fraction) -> Case:
    names = economy.object_names

    def op() -> Any:
        return mechanism.run_gvcg(economy, t_l)

    def check(result: Any) -> list[str]:
        return check_mechanism_result(economy, result, t_l)

    def digest_text(result: Any) -> str:
        return serialize.dumps(serialize.result_to_json(result, names))

    return Case(label, op, check, digest_text)


ECONOMY_KINDS = {
    "mixed": mixed_economy,
    "ties": tie_heavy_economy,
    "tabular": lambda rng, n, m: tabular_economy(rng, n, m, (n + 1) // 2),
}


def build_solve_large(rng: random.Random, shapes=LARGE_SHAPES) -> Workload:
    """One economy per shape, of the kind :data:`SOLVE_KINDS` gives that shape."""
    cases = []
    for (n, m), kind in zip(shapes, SOLVE_KINDS):
        economy = ECONOMY_KINDS[kind](rng, n, m)
        cases.append(solve_case(f"{kind}-{n}x{m}", economy, rng.choice(T_LEVELS)))
    return Workload("solve-large", cases)


# ---------------------------------------------------------------------------
# audit-small: scenario JSON through every audit and back to JSON


def scenario_document(rng: random.Random, label: str, n: int, m: int, tabular: bool) -> dict:
    # audit_dsic stops at the first profitable misreport, and only tabular
    # agents are found to have one; a single tabular agent placed last keeps
    # the audit's length nearly the same whatever the seed
    if tabular:
        economy = tabular_economy(rng, n, m, 1)
    else:
        economy = mixed_economy(rng, n, m)
    deviations = tuple(
        generate.random_deviation_grid(rng, m, MISREPORTS_PER_AGENT, "mixed") for _ in range(n)
    )
    scenario = scenarios.Scenario(
        name=label,
        economy=economy,
        t_l=rng.choice(T_LEVELS),
        audits=scenarios.AUDIT_NAMES,
        deviations=deviations,
    )
    return json.loads(json.dumps(scenarios.scenario_to_json(scenario)))


def check_report(doc: dict, text: str) -> list[str]:
    scenario = scenarios.scenario_from_json(doc)
    economy = scenario.economy
    names = economy.object_names
    report = json.loads(text)
    body = report["result"]

    def bundle(members: list[str]) -> int:
        return serialize.bundle_from_names(members, names)

    result = mechanism.MechanismResult(
        allocation=tuple(bundle(b) for b in body["allocation"]),
        payments=tuple(prefs.rat(p) for p in body["payments"]),
        welfare=prefs.rat(body["welfare"]),
        t_l=prefs.rat(body["t_L"]),
    )
    problems = check_mechanism_result(economy, result, scenario.t_l)
    checks = report["checks"]
    if set(checks) != set(scenarios.AUDIT_NAMES):
        problems.append(f"report has audits {sorted(checks)}")
        return problems
    if not checks["guarantees"]["ok"]:
        problems.append("guarantee audit failed")
    dominance = checks["dominance"]
    if dominance["dominated"]:
        witness_json = dominance["witness"]
        witness = audit.DominanceWitness(
            OutcomeProfile(
                tuple(
                    (bundle(o["bundle"]), prefs.rat(o["payment"]))
                    for o in witness_json["dominating"]["outcomes"]
                )
            ),
            prefs.rat(witness_json["payment_gain"]),
            tuple(witness_json["strict_agents"]),
        )
        problems += check_dominance_witness(economy, OutcomeProfile.from_result(result), witness)
    dsic = checks["dsic"]
    if dsic["manipulable"]:
        w = dsic["witness"]
        truthful = (bundle(w["truthful"]["bundle"]), prefs.rat(w["truthful"]["payment"]))
        deviated = (bundle(w["deviated"]["bundle"]), prefs.rat(w["deviated"]["payment"]))
        true_pref = economy.preferences[w["agent"]]
        if prefs.compare_outcomes(true_pref, deviated, truthful) is not Comparison.BETTER:
            problems.append("DSIC witness is not BETTER for the deviating agent")
    return problems


def audit_case(label: str, doc: dict) -> Case:
    def op() -> str:
        scenario = scenarios.scenario_from_json(doc)
        return serialize.dumps(scenarios.run_scenario(scenario))

    def check(text: str) -> list[str]:
        return check_report(doc, text)

    return Case(label, op, check, lambda text: text)


def build_audit_small(
    rng: random.Random, shapes=SMALL_SHAPES, per_stratum=AUDIT_DOCS_PER_STRATUM
) -> Workload:
    """``per_stratum`` documents for every (shape, kind) pair, interleaved."""
    cases = []
    for r in range(per_stratum):
        for n, m in shapes:
            for tabular in (False, True):
                label = f"{'tab' if tabular else 'dich'}-{n}x{m}-{r}"
                doc = scenario_document(rng, label, n, m, tabular)
                cases.append(audit_case(label, doc))
    return Workload("audit-small", cases)


# ---------------------------------------------------------------------------
# dominance-large: find_pareto_improvement on constructed outcome profiles


def witness_digits(n: int, m: int, target: int) -> tuple[int, ...]:
    """The largest assignment vector at or below rank ``target`` with no unsold object.

    Digits run over agents 0..n-1 (object 0 most significant); at least one
    digit is non-zero, so the vector is not the profile's own allocation.
    """
    digits = [target // (n + 1) ** (m - 1 - obj) % (n + 1) for obj in range(m)]
    if n in digits:
        first = digits.index(n)
        digits[first:] = [n - 1] * (m - first)
    if not any(digits):
        digits[-1] = 1
    return tuple(digits)


def dominance_profile(
    rng: random.Random, n: int, m: int, fraction: float | None
) -> tuple[Economy, OutcomeProfile, int | None]:
    """An outcome profile whose first dominating assignment sits at a chosen rank.

    Agent 0 holds every object at a constant WP V above what any allocation
    can give the others, and everyone else holds nothing.  With ``fraction``
    None no allocation dominates, so the scan is full; the rank is None.
    Otherwise :func:`witness_digits` picks an assignment near
    ``fraction * (n+1)^m``, and each agent k named in it becomes single-minded
    on the objects with digit k, at an equal share of V plus a gain.  Only
    all of them together beat V, and the earliest assignment that serves them
    all gives every other object to agent 0, so the first witness has exactly
    that rank, which is returned.
    """
    full = (1 << m) - 1
    payments = [rng.choice(PAYMENT_GRID) for _ in range(n)]
    agents: list = [None] + [generate.random_dichotomous(rng, m) for _ in range(n - 1)]
    bundles: dict[int, int] = {}
    rank = None
    if fraction is not None:
        if n < 2:
            raise ValueError("an early-exit profile needs at least two agents")
        digits = witness_digits(n, m, int(fraction * (n + 1) ** m))
        rank = sum(d * (n + 1) ** (m - 1 - obj) for obj, d in enumerate(digits))
        for obj, agent in enumerate(digits):
            if agent:
                bundles[agent] = bundles.get(agent, 0) | (1 << obj)
    rivals = sum(
        (agents[i].wp_map.value(payments[i]) for i in range(1, n) if i not in bundles),
        Fraction(0),
    )
    gain = rng.choice(GAIN_GRID)
    # V exceeds the rivals plus all but one share, so no partial service dominates
    top = max(len(bundles), 1) * (rivals + gain) + rng.choice(GAIN_GRID)
    agents[0] = Dichotomous((full,), PwlMap.constant(top))
    for agent, mask in bundles.items():
        agents[agent] = Dichotomous((mask,), PwlMap.constant((top + gain) / len(bundles)))
    profile = OutcomeProfile(((full, payments[0]),) + tuple((0, p) for p in payments[1:]))
    return Economy(object_names(m), tuple(agents)), profile, rank


def dominance_case(label: str, economy: Economy, profile: OutcomeProfile, rank: int | None) -> Case:
    n, m = economy.num_agents, economy.num_objects
    names = economy.object_names

    def op() -> Any:
        return audit.find_pareto_improvement(economy, profile)

    def check(witness: Any) -> list[str]:
        if witness is None:
            return [] if rank is None else ["no witness where one was built"]
        if rank is None:
            return ["witness where none exists"]
        problems = check_dominance_witness(economy, profile, witness)
        if dominance_candidates(n, m, witness) != rank + 1:
            problems.append("witness is not the first dominating assignment")
        return problems

    def digest_text(witness: Any) -> str:
        if witness is None:
            return serialize.dumps(None)
        return serialize.dumps(serialize.dominance_witness_to_json(witness, names))

    return Case(label, op, check, digest_text)


def early_fractions(rng: random.Random, count: int) -> list[float]:
    """``count`` witness depths spread evenly over [0, EARLY_MAX_DEPTH), jittered by seed."""
    return [
        (i + 0.5 + rng.uniform(-EARLY_JITTER, EARLY_JITTER)) / count * EARLY_MAX_DEPTH
        for i in range(count)
    ]


def build_dominance_large(
    rng: random.Random, shapes=LARGE_SHAPES, rounds=DOMINANCE_ROUNDS
) -> Workload:
    """Per shape and round: two full scans and three early exits at spread depths."""
    depths = {shape: early_fractions(rng, EARLY_PER_SHAPE * rounds) for shape in shapes}
    cases = []
    for r in range(rounds):
        for n, m in shapes:
            fractions = [None] * FULL_SCANS_PER_SHAPE + depths[n, m][r::rounds]
            for k, fraction in enumerate(fractions):
                economy, profile, rank = dominance_profile(rng, n, m, fraction)
                kind = "full" if rank is None else "early"
                cases.append(dominance_case(f"{kind}-{n}x{m}-{r}.{k}", economy, profile, rank))
    return Workload("dominance-large", cases)


# ---------------------------------------------------------------------------

TINY_GENERATORS = {
    "solve-large": lambda rng: build_solve_large(rng, TINY_LARGE_SHAPES),
    "audit-small": lambda rng: build_audit_small(rng, TINY_SMALL_SHAPES, 2),
    "dominance-large": lambda rng: build_dominance_large(rng, TINY_LARGE_SHAPES, 1),
}

GENERATORS = {
    "solve-large": build_solve_large,
    "audit-small": build_audit_small,
    "dominance-large": build_dominance_large,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    generator = (TINY_GENERATORS if tiny else GENERATORS)[name]
    return generator(random.Random(seed))
