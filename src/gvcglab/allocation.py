"""Allocation search: exhaustive enumeration and exact winner determination.

The search space is the set of object-assignment vectors: each object goes to
one agent or stays unsold, so there are ``(n+1)**m`` candidates, scanned in
lexicographic order (objects in index order; an agent index beats "unsold",
which sorts as n).  One scan serves winner determination and the dominance
audit: it sums per-agent :func:`wp_tables` rows, each at that agent's own
transfer level, and yields every assignment whose total beats a floor and all
earlier totals.  Winner determination (every level ``t_L``) takes the last
record, the lexicographically first argmax; the dominance audit (levels
``t*_i``) takes the first record above its floor.

An optional branch-and-bound path prunes with the free-disposal upper bound
and returns bit-identical results.  Sums run on integers over a common
denominator, which keeps the hot loop fast without giving up exactness.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterable, Iterator, Sequence

from .prefs import (
    Dichotomous,
    Preference,
    Rational,
    StructuralError,
    Tabular,
    rat,
    wp,
)

DEFAULT_GUARD_LIMIT = 10**8
GUARD_ENV_VAR = "GVCGLAB_GUARD"


class SearchSpaceError(RuntimeError):
    """The allocation search space exceeds the configured guard."""


def guard_limit() -> int:
    """Current enumeration guard, overridable via the GVCGLAB_GUARD env var."""
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw is None:
        return DEFAULT_GUARD_LIMIT
    try:
        return int(raw)
    except ValueError as exc:
        raise StructuralError(f"{GUARD_ENV_VAR} must be an integer, got {raw!r}") from exc


def search_space_size(num_agents: int, num_objects: int) -> int:
    return (num_agents + 1) ** num_objects


def ensure_search_space(num_agents: int, num_objects: int) -> None:
    bound = guard_limit()
    size = search_space_size(num_agents, num_objects)
    if size > bound:
        raise SearchSpaceError(f"(n+1)^m = {size} allocations exceeds the guard {bound}")


@dataclass(frozen=True)
class Economy:
    """A fixed set of named objects and one preference per agent."""

    object_names: tuple[str, ...]
    preferences: tuple[Preference, ...]

    def __post_init__(self) -> None:
        names = tuple(self.object_names)
        prefs = tuple(self.preferences)
        if not names:
            raise StructuralError("economy needs at least one object")
        if not prefs:
            raise StructuralError("economy needs at least one agent")
        if len(set(names)) != len(names):
            raise StructuralError("object names must be unique")
        for name in names:
            if not name or "," in name:
                raise StructuralError(f"invalid object name {name!r}")
        full = (1 << len(names)) - 1
        for i, pref in enumerate(prefs):
            if isinstance(pref, Dichotomous):
                if max(pref.minimal_bundles) > full:
                    raise StructuralError(f"agent {i} references objects outside the economy")
            elif isinstance(pref, Tabular):
                if pref.num_objects != len(names):
                    raise StructuralError(
                        f"agent {i} is defined over {pref.num_objects} objects, economy has {len(names)}"
                    )
            else:
                raise StructuralError(f"agent {i} has unsupported preference type {type(pref)!r}")
        object.__setattr__(self, "object_names", names)
        object.__setattr__(self, "preferences", prefs)

    @property
    def num_agents(self) -> int:
        return len(self.preferences)

    @property
    def num_objects(self) -> int:
        return len(self.object_names)

    def replace_preference(self, agent: int, pref: Preference) -> "Economy":
        prefs = list(self.preferences)
        prefs[agent] = pref
        return replace(self, preferences=tuple(prefs))


def validate_allocation(bundles: Iterable[int], num_objects: int) -> tuple[int, ...]:
    """Check pairwise disjointness and range; returns the normalized tuple."""
    out = tuple(int(b) for b in bundles)
    full = (1 << num_objects) - 1
    used = 0
    for b in out:
        if b < 0 or b > full:
            raise StructuralError(f"bundle {b:b} outside the {num_objects}-object universe")
        if used & b:
            raise StructuralError("bundles are not pairwise disjoint")
        used |= b
    return out


def enumerate_assignments(num_agents: int, num_objects: int) -> Iterator[tuple[int, ...]]:
    """All object-assignment vectors in lexicographic order (unsold = n)."""
    ensure_search_space(num_agents, num_objects)
    return product(range(num_agents + 1), repeat=num_objects)


def assignment_bundles(num_agents: int, assignment: tuple[int, ...]) -> tuple[int, ...]:
    masks = [0] * num_agents
    for obj, owner in enumerate(assignment):
        if owner < num_agents:
            masks[owner] |= 1 << obj
    return tuple(masks)


def enumerate_allocations(num_agents: int, num_objects: int) -> Iterator[tuple[int, ...]]:
    """All allocations (tuples of disjoint bundles), one per assignment vector."""
    return (
        assignment_bundles(num_agents, assignment)
        for assignment in enumerate_assignments(num_agents, num_objects)
    )


def normalized_mask_tables(
    values_by_agent: list[list[Fraction]], extra: Iterable[Fraction] = ()
) -> tuple[list[list[int]], int]:
    """Rescale per-agent Fraction tables to integers over a common denominator."""
    denom = 1
    for table in values_by_agent:
        for v in table:
            denom = lcm(denom, v.denominator)
    for v in extra:
        denom = lcm(denom, v.denominator)
    int_tables = [
        [v.numerator * (denom // v.denominator) for v in table] for table in values_by_agent
    ]
    return int_tables, denom


def wp_tables(economy: Economy, levels: Sequence[Fraction | None]) -> list[list[Fraction]]:
    """Agent i's WP for every bundle mask at ``levels[i]``; None gives a zero row."""
    size = 1 << economy.num_objects
    zero = Fraction(0)
    tables: list[list[Fraction]] = []
    for pref, level in zip(economy.preferences, levels):
        if level is None:
            tables.append([zero] * size)
        elif isinstance(pref, Dichotomous):
            w = pref.wp_map.value(level)
            tables.append([w if pref.accepts(mask) else zero for mask in range(size)])
        else:
            row = [zero] * size
            for mask in range(1, size):
                row[mask] = pref.map_for(mask).value(level)
            tables.append(row)
    return tables


def _scan(
    num_agents: int, num_objects: int, tables: list[list[int]], floor: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield ``(assignment, total)`` each time the total beats ``floor`` and
    every earlier total, in lexicographic assignment order."""
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
            yield assignment, total


def _wd_branch_and_bound(
    num_agents: int, num_objects: int, tables: list[list[int]]
) -> tuple[tuple[int, ...], int]:
    remaining = [0] * (num_objects + 1)
    for obj in reversed(range(num_objects)):
        remaining[obj] = remaining[obj + 1] | (1 << obj)
    masks = [0] * num_agents
    assignment = [0] * num_objects
    best = -1
    best_assign: tuple[int, ...] | None = None

    def recurse(obj: int) -> None:
        nonlocal best, best_assign
        if obj == num_objects:
            welfare = sum(tables[i][masks[i]] for i in range(num_agents))
            if welfare > best:
                best = welfare
                best_assign = tuple(assignment)
            return
        if best_assign is not None:
            rem = remaining[obj]
            bound = sum(tables[i][masks[i] | rem] for i in range(num_agents))
            if bound <= best:
                return
        bit = 1 << obj
        for owner in range(num_agents):
            assignment[obj] = owner
            masks[owner] |= bit
            recurse(obj + 1)
            masks[owner] ^= bit
        assignment[obj] = num_agents
        recurse(obj + 1)

    recurse(0)
    assert best_assign is not None
    return best_assign, best


def _submasks_small_first(mask: int) -> list[int]:
    subs = []
    s = mask
    while True:
        subs.append(s)
        if s == 0:
            break
        s = (s - 1) & mask
    subs.sort(key=lambda x: (x.bit_count(), x))
    return subs


def _minimal_equivalent_bundles(
    economy: Economy,
    t_l: Fraction,
    bundles: tuple[int, ...],
    zero_agents: frozenset[int],
) -> tuple[int, ...]:
    """Shrink each bundle to a minimal subset with equal WP at t_l.

    Surplus objects are released to unsold; welfare is unchanged.
    """
    out = []
    for i, bundle in enumerate(bundles):
        if i in zero_agents or bundle == 0:
            out.append(0)
            continue
        pref = economy.preferences[i]
        if isinstance(pref, Dichotomous):
            if not pref.accepts(bundle):
                out.append(0)
                continue
            out.append(
                min(
                    (mb for mb in pref.minimal_bundles if mb & bundle == mb),
                    key=lambda x: (x.bit_count(), x),
                )
            )
        else:
            target = wp(pref, bundle, t_l)
            for sub in _submasks_small_first(bundle):
                if wp(pref, sub, t_l) == target:
                    out.append(sub)
                    break
    return tuple(out)


def winner_determination(
    economy: Economy,
    t_l: Rational,
    *,
    zero_agents: frozenset[int] = frozenset(),
    branch_and_bound: bool = False,
) -> tuple[tuple[int, ...], Fraction]:
    """Maximize total WP at ``t_l`` over all allocations.

    Returns the winning allocation (after shrinking each bundle to a minimal
    subset of equal WP) and the exact optimal welfare.  Agents listed in
    ``zero_agents`` contribute zero WP for every bundle but still occupy an
    allocation slot.
    """
    n, m = economy.num_agents, economy.num_objects
    ensure_search_space(n, m)
    t = rat(t_l)
    levels = [None if i in zero_agents else t for i in range(n)]
    tables, denom = normalized_mask_tables(wp_tables(economy, levels))
    if branch_and_bound:
        assignment, best = _wd_branch_and_bound(n, m, tables)
    else:
        # WP is never negative, so a floor of -1 records the first assignment
        assignment, best = deque(_scan(n, m, tables, -1), maxlen=1).pop()
    bundles = assignment_bundles(n, assignment)
    bundles = _minimal_equivalent_bundles(economy, t, bundles, zero_agents)
    return bundles, Fraction(best, denom)
