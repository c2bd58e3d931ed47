"""Shared pieces of the brute-force oracles in the tests.

:func:`enumerate_allocations` lists every allocation of the ``(n+1)**m``
scan.  The reference bundle shrink is written apart from the engine's, which
reads the integer rows winner determination solved on, so an oracle that
calls it can catch a fault there.
"""

from gvcglab import wp
from gvcglab.allocation import assignment_bundles, enumerate_assignments


def enumerate_allocations(num_agents, num_objects):
    """All allocations (tuples of disjoint bundles), one per assignment
    vector, in lexicographic assignment order."""
    return (
        assignment_bundles(num_agents, assignment)
        for assignment in enumerate_assignments(num_agents, num_objects)
    )


def minimal_equivalent_bundles(economy, t, bundles):
    """Each bundle shrunk to its smallest subset, fewest objects first and
    then the lowest mask, whose WP at ``t`` equals the bundle's: every
    subset tried in that order with direct ``wp`` calls."""
    out = []
    for pref, bundle in zip(economy.preferences, bundles):
        target = wp(pref, bundle, t)
        subsets = sorted(
            (sub for sub in range(bundle + 1) if sub & bundle == sub),
            key=lambda sub: (sub.bit_count(), sub),
        )
        out.append(next(sub for sub in subsets if wp(pref, sub, t) == target))
    return tuple(out)
