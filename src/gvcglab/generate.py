"""Seeded random economies for the property suites.

Dichotomous preferences are drawn as a random antichain of up to three
minimal bundles plus a random 1-3 piece WP map.  Slopes come from
sign-constrained pools: ``"pos"`` draws only nonpositive slopes (positive
income effect), ``"neg"`` forces at least one strictly positive slope
(negative income effect somewhere), and ``"mixed"`` flips a coin per
preference.  Breakpoint values stay in [1/2, 5], so maps are strictly
positive by construction.  Everything is driven by a caller-supplied
``random.Random``, which makes runs reproducible bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .allocation import Economy
from .prefs import Dichotomous, PwlMap

INCOME_EFFECT_MODES = ("pos", "neg", "mixed")

NONPOSITIVE_SLOPES = tuple(Fraction(k, 8) for k in (0, -1, -2, -4, -6))
POSITIVE_SLOPES = tuple(Fraction(k, 2) for k in (1, 2, 4, 6, 8))
BREAKPOINT_GRID = tuple(Fraction(k, 2) for k in range(-6, 7))
VALUE_GRID = tuple(Fraction(k, 4) for k in range(2, 21))

OBJECT_NAMES = "abcdefghij"


def random_pwl_map(rng: random.Random, mode: str = "mixed") -> PwlMap:
    """Draw a 1-3 piece WP map that is strictly positive everywhere."""
    if mode not in INCOME_EFFECT_MODES:
        raise ValueError(f"mode must be one of {INCOME_EFFECT_MODES}, got {mode!r}")
    if mode == "mixed":
        mode = rng.choice(("pos", "neg"))

    if mode == "pos":
        num_pieces = rng.randint(1, 3)
        if num_pieces == 1:
            return PwlMap.constant(rng.choice(VALUE_GRID))
        breaks = sorted(rng.sample(BREAKPOINT_GRID, num_pieces - 1))
        # nonpositive slopes everywhere, flat right tail; anchoring the value
        # at the last breakpoint keeps the map positive toward the left
        slopes = [rng.choice(NONPOSITIVE_SLOPES) for _ in range(num_pieces - 1)]
        slopes.append(Fraction(0))
        values = [Fraction(0)] * len(breaks)
        values[-1] = rng.choice(VALUE_GRID)
        for k in reversed(range(len(breaks) - 1)):
            values[k] = values[k + 1] - slopes[k + 1] * (breaks[k + 1] - breaks[k])
        return _map_through(breaks, values, slopes)

    for _ in range(200):
        num_pieces = rng.randint(2, 3)
        breaks = sorted(rng.sample(BREAKPOINT_GRID, num_pieces - 1))
        slopes = [rng.choice(NONPOSITIVE_SLOPES)]
        for _ in range(num_pieces - 2):
            slopes.append(rng.choice(NONPOSITIVE_SLOPES + POSITIVE_SLOPES))
        slopes.append(rng.choice(POSITIVE_SLOPES + (Fraction(0),)))
        if not any(s > 0 for s in slopes):
            slopes[-1] = rng.choice(POSITIVE_SLOPES)
        values = [rng.choice(VALUE_GRID)]
        for k in range(1, len(breaks)):
            values.append(values[k - 1] + slopes[k] * (breaks[k] - breaks[k - 1]))
        if all(v > 0 for v in values):
            return _map_through(breaks, values, slopes)
    raise AssertionError("failed to draw a positive negative-income-effect map")


def _map_through(
    breaks: Sequence[Fraction], values: Sequence[Fraction], slopes: Sequence[Fraction]
) -> PwlMap:
    """Build a map from breakpoint values and per-piece slopes."""
    pieces = []
    for k, slope in enumerate(slopes):
        anchor = min(k, len(breaks) - 1)
        pieces.append((values[anchor] - slope * breaks[anchor], slope))
    return PwlMap(tuple(breaks), tuple(pieces))


def random_dichotomous(rng: random.Random, num_objects: int, mode: str = "mixed") -> Dichotomous:
    """Draw a dichotomous preference over ``num_objects`` objects."""
    universe = (1 << num_objects) - 1
    count = rng.randint(1, min(3, universe))
    candidates = sorted(rng.sample(range(1, universe + 1), count))
    minimal = [
        mask
        for mask in candidates
        if not any(o != mask and o & mask == o for o in candidates)
    ]
    return Dichotomous(tuple(minimal), random_pwl_map(rng, mode))


def random_economy(
    rng: random.Random, num_agents: int, num_objects: int, mode: str = "mixed"
) -> Economy:
    """Draw an economy of dichotomous agents."""
    if num_objects > len(OBJECT_NAMES):
        raise ValueError(
            f"random_economy names at most {len(OBJECT_NAMES)} objects, got {num_objects}"
        )
    names = tuple(OBJECT_NAMES[:num_objects])
    prefs = tuple(random_dichotomous(rng, num_objects, mode) for _ in range(num_agents))
    return Economy(names, prefs)


def random_deviation_grid(
    rng: random.Random, num_objects: int, count: int, mode: str = "mixed"
) -> tuple[Dichotomous, ...]:
    """Draw a finite set of dichotomous misreports for the DSIC audit."""
    return tuple(random_dichotomous(rng, num_objects, mode) for _ in range(count))
