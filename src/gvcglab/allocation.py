"""Allocation search: exact winner determination and the dominance search.

An allocation is an object-assignment vector: each object goes to one agent
or stays unsold.  Assignments are ordered lexicographically (objects in index
order; an agent index beats "unsold", which sorts as n).  One subset dynamic
program over the per-agent :func:`wp_tables` rows (Rothkopf, Pekec & Harstad
1998), :func:`_best_total`, gives the best total reachable from a partial
assignment: agent by agent, the state is the set of objects still free, so a
solve costs ``O(n * 3**m)``.  One kernel on top of it, :func:`_first_above`,
rebuilds the lexicographically first assignment whose total beats a floor,
object by object, keeping the first owner from which the floor stays beaten.

Winner determination passes ``floor = optimum - 1`` and so gets the first
optimal assignment, then shrinks each winning bundle on the same integer rows
to its smallest subset of equal entry; a Clarke pivot is the DP alone with
the pivot agent's row left out (``leave_out=i``): no rebuild and no shrink.
The dominance audit puts agent i's row at its own transfer level and passes
its payment floor.  Sums run on integers over a common denominator, which
keeps the hot loops fast without giving up exactness.  The ``(n+1)**m``
guard is checked once per table build, in :func:`wp_tables`, before any row
is built.  The exhaustive ``(n+1)**m`` scan lives in the tests, as the oracle
both modes must match bit for bit; :func:`enumerate_assignments`, which it
runs on, checks the guard itself.
"""

from __future__ import annotations

import os
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
)

DEFAULT_GUARD_LIMIT = 10**8
GUARD_ENV_VAR = "GVCGLAB_GUARD"


class SearchSpaceError(RuntimeError):
    """The allocation search space exceeds the configured guard."""


def _guard_limit() -> int:
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
    bound = _guard_limit()
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


def normalized_mask_tables(values_by_agent: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """Rescale per-agent Fraction tables to integers over a common denominator."""
    denom = 1
    for table in values_by_agent:
        for v in table:
            denom = lcm(denom, v.denominator)
    int_tables = [
        [v.numerator * (denom // v.denominator) for v in table] for table in values_by_agent
    ]
    return int_tables, denom


def wp_row(pref: Preference, num_objects: int, level: Fraction) -> list[Fraction]:
    """One agent's WP for every bundle mask at ``level``."""
    if isinstance(pref, Dichotomous):
        w, zero = pref.wp_map.value(level), Fraction(0)
        return [w if pref.accepts(mask) else zero for mask in range(1 << num_objects)]
    return [pwl.value(level) for pwl in pref.maps]


def wp_tables(economy: Economy, levels: Sequence[Fraction]) -> list[list[Fraction]]:
    """Agent i's WP row (:func:`wp_row`) at ``levels[i]``; every solve starts
    from these rows, so the guard is checked here, before any row is built."""
    m = economy.num_objects
    ensure_search_space(economy.num_agents, m)
    return [wp_row(pref, m, level) for pref, level in zip(economy.preferences, levels)]


def _best_total(tables: list[list[int]], base: Sequence[int], free: int) -> int:
    """Max of ``sum(tables[i][base[i] | extra[i]])`` over pairwise disjoint
    ``extra[i]`` within the object set ``free``.

    ``best[a]`` is the most the agents handled so far reach with the objects
    in ``a``.  The first agent needs no search, because every row is monotone
    under inclusion (free disposal), so it takes all of ``a``; each middle
    agent costs ``3**|free|`` and the last, needed at ``free`` only,
    ``2**|free|``.
    """
    if not tables:
        return 0
    subsets = [free]
    a = free
    while a:
        a = (a - 1) & free
        subsets.append(a)
    row, b = tables[0], base[0]
    best = [0] * (free + 1)
    for a in subsets:
        best[a] = row[b | a]
    last = len(tables) - 1
    for k in range(1, last + 1):
        row, b = tables[k], base[k]
        layer = [0] * (free + 1)
        for a in subsets if k < last else (free,):
            top = best[a] + row[b]
            sub = a
            while sub:
                value = best[a ^ sub] + row[b | sub]
                if value > top:
                    top = value
                sub = (sub - 1) & a
            layer[a] = top
        best = layer
    return best[free]


def _best_totals(tables: list[list[int]], num_objects: int) -> list[int]:
    """:func:`_best_total` from scratch for every object set at once:
    ``best[x]`` is the most the agents reach with the objects in ``x``.

    The same DP with every layer kept at every subset: ``n * 3**m`` for all
    ``2**m`` answers.
    """
    size = 1 << num_objects
    if not tables:
        return [0] * size
    best = list(tables[0])
    for row in tables[1:]:
        layer = []
        for a in range(size):
            top = best[a] + row[0]
            sub = a
            while sub:
                value = best[a ^ sub] + row[sub]
                if value > top:
                    top = value
                sub = (sub - 1) & a
            layer.append(top)
        best = layer
    return best


def _first_above(
    num_objects: int, tables: list[list[int]], floor: int
) -> tuple[tuple[int, ...], int] | None:
    """The bundles of the lexicographically first assignment whose total
    beats ``floor``, and that total; None if no assignment does.

    Object by object, owners 0..n-1 are tried in order and "unsold" last; an
    owner is kept as soon as the best completion over the later objects
    still beats the floor.  Tables are integers, so ``floor = optimum - 1``
    gives the first optimal assignment.  A floor nothing beats costs every
    owner of every object, so a caller that does not know the optimum checks
    :func:`_best_total` first.
    """
    full = (1 << num_objects) - 1
    base = [0] * len(tables)
    for obj in range(num_objects):
        bit = 1 << obj
        free = full & ~((bit << 1) - 1)
        for owner in range(len(tables)):
            base[owner] |= bit
            if _best_total(tables, base, free) > floor:
                break
            base[owner] ^= bit
    total = sum(row[b] for row, b in zip(tables, base))
    return (tuple(base), total) if total > floor else None


def _minimal_equivalent_bundles(
    tables: list[list[int]], bundles: tuple[int, ...]
) -> tuple[int, ...]:
    """Shrink each bundle to its smallest subset (fewest objects, then lowest
    mask) whose entry in the agent's row equals the bundle's own.

    Surplus objects are released to unsold; welfare is unchanged.  An
    unacceptable bundle's entry is 0, as is the empty set's, so it shrinks
    to nothing, and a dichotomous agent keeps one of its minimal bundles.
    """
    out = []
    for row, bundle in zip(tables, bundles):
        best = sub = bundle
        while sub:
            sub = (sub - 1) & bundle
            if row[sub] == row[bundle] and (sub.bit_count(), sub) < (best.bit_count(), best):
                best = sub
        out.append(best)
    return tuple(out)


def winner_determination(
    economy: Economy,
    t_l: Rational,
    *,
    leave_out: int | None = None,
    rows: list[list[Fraction]] | None = None,
) -> tuple[tuple[int, ...] | None, Fraction]:
    """Maximize total WP at ``t_l`` over all allocations.

    Returns the winning allocation (after shrinking each bundle to a minimal
    subset of equal WP) and the exact optimal welfare.

    ``leave_out=i`` is the solve behind agent i's Clarke pivot: the best
    total the other agents reach, with row i left out of the DP.  It returns
    ``None`` in place of the allocation and skips the rebuild and the
    shrink.  ``rows``, if given, must be ``wp_tables(economy, [t_l] * n)``,
    or those rows with one swapped for another agent's; it lets several
    solves at one ``t_l`` share a single table build (and guard check).
    """
    n, m = economy.num_agents, economy.num_objects
    t = rat(t_l)
    if rows is None:
        rows = wp_tables(economy, [t] * n)
    full = (1 << m) - 1
    if leave_out is not None:
        if not 0 <= leave_out < n:
            raise ValueError(f"leave_out={leave_out} is not an agent of {n}")
        kept = [row for i, row in enumerate(rows) if i != leave_out]
        tables, denom = normalized_mask_tables(kept)
        return None, Fraction(_best_total(tables, [0] * len(kept), full), denom)
    tables, denom = normalized_mask_tables(rows)
    best = _best_total(tables, [0] * n, full)
    bundles, _ = _first_above(m, tables, best - 1)
    return _minimal_equivalent_bundles(tables, bundles), Fraction(best, denom)
