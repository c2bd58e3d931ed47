"""Reference bundle shrink for the brute-force oracles in the tests.

Written apart from the engine's shrink, which reads the integer rows winner
determination solved on, so an oracle that calls this can catch a fault
there.
"""

from gvcglab import wp


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
