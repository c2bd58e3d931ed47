"""Exact willingness-to-pay preference model.

An outcome is a pair ``(bundle, payment)`` where the bundle is a bitmask over
object indices and the payment is an exact rational.  Preferences over
outcomes are encoded through willingness-to-pay (WP) maps: piecewise-linear
functions of the transfer level with rational coefficients.  Two families are
supported:

* :class:`Dichotomous`: an antichain of minimal acceptable bundles plus a
  single WP map shared by every acceptable bundle.  Unacceptable bundles have
  WP zero at every transfer level.
* :class:`Tabular`: a tuple of WP maps indexed by bundle mask, one for every
  bundle (the empty bundle's is the zero map), monotone under inclusion
  (free disposal).

Every slope of a WP map exceeds -1, so ``t + w(t)`` is strictly increasing
and each outcome has a unique empty-equivalent transfer: the payment at which
receiving nothing is exactly as good.  That transfer is the universal
comparison currency used by :func:`compare_outcomes`.

The paper's results hold on domains of these maps (dichotomous preferences,
positive income effect: nonincreasing WP).  No function here decides which
domain a preference is in; the surveys draw economies from each domain and
the audits check the results there.

All arithmetic uses :class:`fractions.Fraction`; no floating point enters any
comparison.  All types are immutable after construction and every operation
is pure, so values can be shared freely across threads.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Union

Rational = Union[Fraction, int, str]
Outcome = tuple[int, Fraction]

# CPython's default int <-> str digit limit.  No integer that parsing a
# rational literal builds may have more digits, so one literal cannot make
# Fraction build a number with millions of digits, and every parsed value
# can be written back by str().
MAX_LITERAL_DIGITS = 4300


class StructuralError(ValueError):
    """A preference, map, or query violates a structural invariant."""


def rat(value: Rational) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' / decimal string to an exact Fraction.

    Floats are rejected: exactness is load-bearing everywhere in this package.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if _literal_too_large(value):
            raise StructuralError(
                f"rational literal {value[:32]!r} exceeds {MAX_LITERAL_DIGITS} digits"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise StructuralError(f"cannot parse rational from {value!r}") from exc
    raise StructuralError(f"not an exact rational: {value!r}")


def _literal_too_large(value: str) -> bool:
    """Whether parsing ``value`` would build an integer of more than
    MAX_LITERAL_DIGITS digits: either side of a 'p/q', or a decimal's
    digits plus the magnitude of its exponent."""
    numerator, slash, denominator = value.partition("/")
    if slash:
        return _digits(numerator) > MAX_LITERAL_DIGITS or _digits(denominator) > MAX_LITERAL_DIGITS
    mantissa, marker, exponent = value.upper().partition("E")
    digits = _digits(mantissa)
    if digits > MAX_LITERAL_DIGITS or not marker:
        return digits > MAX_LITERAL_DIGITS
    try:
        return digits + abs(int(exponent)) > MAX_LITERAL_DIGITS
    except ValueError:
        return False  # malformed; Fraction reports it


def _digits(text: str) -> int:
    return sum(map(str.isdigit, text))


@dataclass(frozen=True)
class PwlMap:
    """Continuous piecewise-linear map of the transfer level.

    ``pieces[k]`` is an ``(intercept, slope)`` pair giving
    ``intercept + slope * t`` on the k-th interval; interval k ends at
    ``breakpoints[k]``, and the first and last pieces extend unboundedly.

    Invariants: breakpoints strictly ascending, adjacent pieces agree at
    their shared breakpoint, and every slope is strictly greater than -1
    (so ``t + value(t)`` is a strictly increasing bijection of the reals).
    Adjacent pieces with identical coefficients are merged on construction,
    so structural equality coincides with functional equality.
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        bps = tuple(rat(b) for b in self.breakpoints)
        pcs = tuple((rat(c), rat(s)) for c, s in self.pieces)
        if len(pcs) != len(bps) + 1:
            raise StructuralError(
                f"need {len(bps) + 1} pieces for {len(bps)} breakpoints, got {len(pcs)}"
            )
        for left, right in zip(bps, bps[1:]):
            if left >= right:
                raise StructuralError(f"breakpoints not ascending: {left} >= {right}")
        for _, slope in pcs:
            if slope <= -1:
                raise StructuralError(f"slope {slope} <= -1 breaks transfer monotonicity")
        for k, b in enumerate(bps):
            lc, ls = pcs[k]
            rc, rs = pcs[k + 1]
            if lc + ls * b != rc + rs * b:
                raise StructuralError(f"discontinuity at breakpoint {b}")
        # merge collinear neighbours so equal functions compare equal
        merged_bps: list[Fraction] = []
        merged_pcs: list[tuple[Fraction, Fraction]] = [pcs[0]]
        for b, piece in zip(bps, pcs[1:]):
            if piece == merged_pcs[-1]:
                continue
            merged_bps.append(b)
            merged_pcs.append(piece)
        object.__setattr__(self, "breakpoints", tuple(merged_bps))
        object.__setattr__(self, "pieces", tuple(merged_pcs))

    @classmethod
    def constant(cls, value: Rational) -> "PwlMap":
        return cls((), ((rat(value), Fraction(0)),))

    def value(self, t: Rational) -> Fraction:
        t = rat(t)
        intercept, slope = self.pieces[bisect_left(self.breakpoints, t)]
        return intercept + slope * t

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(slope for _, slope in self.pieces)

    def is_nonincreasing(self) -> bool:
        return all(slope <= 0 for slope in self.slopes)

    def _minimum(self) -> Fraction | None:
        """The least value, or None if a tail slopes downward (unbounded below)."""
        if self.pieces[0][1] > 0 or self.pieces[-1][1] < 0:
            return None
        if not self.breakpoints:
            return self.pieces[0][0]
        return min(self.value(b) for b in self.breakpoints)

    def is_strictly_positive(self) -> bool:
        return (low := self._minimum()) is not None and low > 0

    def is_nonnegative(self) -> bool:
        return (low := self._minimum()) is not None and low >= 0

    def solve_transfer(self, total: Rational) -> Fraction:
        """Return the unique t with ``t + value(t) == total``.

        Solved piece by piece in closed form; slopes above -1 guarantee
        existence and uniqueness.
        """
        total = rat(total)
        for k, (intercept, slope) in enumerate(self.pieces):
            t = (total - intercept) / (1 + slope)
            lo = self.breakpoints[k - 1] if k > 0 else None
            hi = self.breakpoints[k] if k < len(self.breakpoints) else None
            if (lo is None or t >= lo) and (hi is None or t <= hi):
                return t
        raise AssertionError("t + value(t) is onto the reals; no piece matched")


ZERO_MAP = PwlMap.constant(0)


def _regions(cuts: list[Fraction]) -> list[tuple[Fraction | None, Fraction | None]]:
    if not cuts:
        return [(None, None)]
    bounds: list[tuple[Fraction | None, Fraction | None]] = [(None, cuts[0])]
    bounds.extend(zip(cuts, cuts[1:]))
    bounds.append((cuts[-1], None))
    return bounds


def _probe(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


def _line_at(pwl: PwlMap, t: Fraction) -> tuple[Fraction, Fraction]:
    return pwl.pieces[bisect_left(pwl.breakpoints, t)]


def pwl_pointwise_max(first: PwlMap, second: PwlMap) -> PwlMap:
    """Exact pointwise maximum of two maps (piecewise linear again)."""
    cuts = sorted(set(first.breakpoints) | set(second.breakpoints))
    crossings: list[Fraction] = []
    for lo, hi in _regions(cuts):
        probe = _probe(lo, hi)
        cf, sf = _line_at(first, probe)
        cg, sg = _line_at(second, probe)
        if sf == sg:
            continue
        x = (cg - cf) / (sf - sg)
        if (lo is None or x > lo) and (hi is None or x < hi):
            crossings.append(x)
    cuts = sorted(set(cuts) | set(crossings))
    pieces = []
    for lo, hi in _regions(cuts):
        probe = _probe(lo, hi)
        winner = first if first.value(probe) >= second.value(probe) else second
        pieces.append(_line_at(winner, probe))
    return PwlMap(tuple(cuts), tuple(pieces))


def pwl_leq(first: PwlMap, second: PwlMap) -> bool:
    """True iff ``first(t) <= second(t)`` for every real t (exact check)."""
    cuts = sorted(set(first.breakpoints) | set(second.breakpoints))
    if not cuts:
        (cf, sf), (cg, sg) = first.pieces[0], second.pieces[0]
        return sf == sg and cf <= cg
    if any(first.value(x) > second.value(x) for x in cuts):
        return False
    if second.pieces[0][1] - first.pieces[0][1] > 0:
        return False
    if second.pieces[-1][1] - first.pieces[-1][1] < 0:
        return False
    return True


@dataclass(frozen=True)
class Dichotomous:
    """Preference that only distinguishes acceptable from unacceptable bundles.

    ``minimal_bundles`` is a non-empty antichain of non-empty bitmasks; a
    bundle is acceptable iff it contains some minimal bundle.  All acceptable
    bundles share ``wp_map`` (everywhere strictly positive); unacceptable
    bundles have WP zero.
    """

    minimal_bundles: tuple[int, ...]
    wp_map: PwlMap

    def __post_init__(self) -> None:
        bundles = tuple(sorted({int(b) for b in self.minimal_bundles}))
        if not bundles:
            raise StructuralError("need at least one minimal acceptable bundle")
        if bundles[0] <= 0:
            raise StructuralError("minimal bundles must be non-empty bitmasks")
        for small in bundles:
            for big in bundles:
                if small != big and small & big == small:
                    raise StructuralError(
                        f"minimal bundles must form an antichain: {small:b} < {big:b}"
                    )
        if not self.wp_map.is_strictly_positive():
            raise StructuralError("dichotomous WP map must be strictly positive everywhere")
        object.__setattr__(self, "minimal_bundles", bundles)

    def accepts(self, bundle: int) -> bool:
        return any(mb & bundle == mb for mb in self.minimal_bundles)


@dataclass(frozen=True)
class Tabular:
    """Preference given by an explicit WP map per bundle.

    ``maps[mask]`` is the WP map of bundle ``mask``: the table is total, with
    ``2**m`` maps for ``m`` objects, and ``maps[0]``, the empty bundle's, is
    the zero map.  Maps must be nonnegative everywhere and monotone under
    inclusion at every transfer level, which is checked on the covering
    pairs ``S < S | {x}``; the first pair that fails, by ``S`` then by ``x``,
    is named.  Querying a bundle outside the universe raises
    :class:`StructuralError`.
    """

    maps: tuple[PwlMap, ...]

    @classmethod
    def from_table(cls, num_objects: int, table: Mapping[int, PwlMap]) -> "Tabular":
        """The preference with map ``table[mask]`` for every non-empty bundle;
        the empty bundle's entry may be left out."""
        if num_objects < 1:
            raise StructuralError("tabular preference needs at least one object")
        size = 1 << num_objects
        for mask in table:
            if not 0 <= mask < size:
                raise StructuralError(f"bundle {mask:b} outside the {num_objects}-object universe")
        for mask in range(1, size):
            if mask not in table:
                raise StructuralError(f"bundle {mask:b} missing from WP table")
        return cls((table.get(0, ZERO_MAP), *(table[mask] for mask in range(1, size))))

    def __post_init__(self) -> None:
        maps = tuple(self.maps)
        size = len(maps)
        if size < 2 or size & (size - 1):
            raise StructuralError(f"a WP table has 2**m maps for some m >= 1, got {size}")
        if maps[0] != ZERO_MAP:
            raise StructuralError("WP of the empty bundle must be identically zero")
        for mask, pwl in enumerate(maps):
            if not pwl.is_nonnegative():
                raise StructuralError(f"WP map for bundle {mask:b} goes negative")
        # pwl_leq is a pointwise order, so on a total table the covering pairs
        # S < S | {x} imply every other pair: m * 2**(m-1) checks, not 3**m
        bits = [1 << x for x in range(size.bit_length() - 1)]
        for small in range(1, size - 1):
            for bit in bits:
                if not small & bit and not pwl_leq(maps[small], maps[small | bit]):
                    raise StructuralError(
                        f"free disposal violated: WP({small:b}) exceeds WP({small | bit:b}) somewhere"
                    )
        object.__setattr__(self, "maps", maps)

    @property
    def num_objects(self) -> int:
        return len(self.maps).bit_length() - 1

    def map_for(self, bundle: int) -> PwlMap:
        if 0 <= bundle < len(self.maps):
            return self.maps[bundle]
        raise StructuralError(f"bundle {bundle:b} missing from WP table")


# A `|` union, not typing.Union: typing caches its aliases process-wide, which
# would keep these classes (and this module) alive across fresh imports.
Preference = Dichotomous | Tabular


def wp_map(pref: Preference, bundle: int) -> PwlMap:
    """Full WP map of a bundle (the zero map for unacceptable bundles)."""
    if isinstance(pref, Dichotomous):
        return pref.wp_map if pref.accepts(bundle) else ZERO_MAP
    return pref.map_for(bundle)


def wp(pref: Preference, bundle: int, t: Rational) -> Fraction:
    """Willingness to pay for ``bundle`` at transfer level ``t``."""
    return wp_map(pref, bundle).value(t)


def empty_equivalent_transfer(pref: Preference, bundle: int, pay: Rational) -> Fraction:
    """The payment t* at which receiving nothing is indifferent to (bundle, pay).

    Exact round trip: ``t* + wp(pref, bundle, t*) == pay``.
    """
    return wp_map(pref, bundle).solve_transfer(rat(pay))


class Comparison(Enum):
    BETTER = "better"
    WORSE = "worse"
    INDIFFERENT = "indifferent"


def compare_outcomes(pref: Preference, first: Outcome, second: Outcome) -> Comparison:
    """Rank ``first`` against ``second``: lower empty-equivalent transfer wins."""
    t1 = empty_equivalent_transfer(pref, first[0], first[1])
    t2 = empty_equivalent_transfer(pref, second[0], second[1])
    if t1 < t2:
        return Comparison.BETTER
    if t1 > t2:
        return Comparison.WORSE
    return Comparison.INDIFFERENT
