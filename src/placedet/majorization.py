"""Majorization partial order on placements and chain (scale) handling.

x is majorized by y (y strictly above x here) when, after sorting both
non-increasingly and zero-padding to a common length, every prefix sum of y
dominates the corresponding prefix sum of x and the totals agree. The order
is partial: e.g. (4,1,1) and (3,3) are incomparable. A placement scale is a
totally ordered chain, listed highest (most concentrated) first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Sequence

from .model import Placement, canonicalize_placement

Counts = Sequence[int]


class MajorizationVerdict(Enum):
    STRICTLY_ABOVE = "above"
    STRICTLY_BELOW = "below"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"

    def flipped(self) -> "MajorizationVerdict":
        if self is MajorizationVerdict.STRICTLY_ABOVE:
            return MajorizationVerdict.STRICTLY_BELOW
        if self is MajorizationVerdict.STRICTLY_BELOW:
            return MajorizationVerdict.STRICTLY_ABOVE
        return self


def _as_counts(x: Placement | Counts) -> tuple[int, ...]:
    return x.counts if isinstance(x, Placement) else canonicalize_placement(x).counts


def compare(x: Placement | Counts, y: Placement | Counts) -> MajorizationVerdict:
    """Classify the pair: x above/below/equal/incomparable relative to y.

    Requires equal totals (both partition the same M); comparison pads with
    zeros to a common length, so the verdict does not depend on how many
    trailing zeros either side carries.
    """
    cx, cy = _as_counts(x), _as_counts(y)
    if sum(cx) != sum(cy):
        raise ValueError(f"totals differ: sum{cx}={sum(cx)} vs sum{cy}={sum(cy)}")
    if cx == cy:
        return MajorizationVerdict.EQUAL
    length = max(len(cx), len(cy))
    px = list(accumulate(cx + (0,) * (length - len(cx))))
    py = list(accumulate(cy + (0,) * (length - len(cy))))
    x_ge = all(a >= b for a, b in zip(px, py))
    y_ge = all(b >= a for a, b in zip(px, py))
    if x_ge:
        return MajorizationVerdict.STRICTLY_ABOVE
    if y_ge:
        return MajorizationVerdict.STRICTLY_BELOW
    return MajorizationVerdict.INCOMPARABLE


def is_chain(
    placements: Sequence[Placement | Counts],
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """True when every pair is comparable; otherwise also the first offending pair."""
    counts = [_as_counts(p) for p in placements]
    for i in range(len(counts)):
        for j in range(i + 1, len(counts)):
            if compare(counts[i], counts[j]) is MajorizationVerdict.INCOMPARABLE:
                return False, (counts[i], counts[j])
    return True, None


@dataclass(frozen=True)
class PlacementScale:
    """A majorization chain, highest (most concentrated) member first."""

    members: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, placement: Placement | Counts) -> bool:
        return _as_counts(placement) in self.members

    def level(self, placement: Placement | Counts) -> int:
        """Height of a member counted from the bottom of the scale (0 = lowest)."""
        counts = _as_counts(placement)
        try:
            idx = self.members.index(counts)
        except ValueError:
            raise ValueError(f"{counts} is not on the scale") from None
        return len(self.members) - 1 - idx


def chain_sort(placements: Sequence[Placement | Counts]) -> PlacementScale:
    """Sort a chain descending by majorization.

    On a chain the prefix-sum sequences are themselves totally ordered, so
    sorting by padded prefix sums lexicographically (descending) realizes the
    majorization order without repeated pairwise comparisons. Raises with the
    offending pair when the input is not a chain.
    """
    ok, pair = is_chain(placements)
    if not ok:
        assert pair is not None
        raise ValueError(f"not a chain: {pair[0]} and {pair[1]} are incomparable")
    counts = [_as_counts(p) for p in placements]
    length = max((len(c) for c in counts), default=0)

    def prefix_key(c: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(accumulate(c + (0,) * (length - len(c))))

    ordered = sorted(set(counts), key=prefix_key, reverse=True)
    return PlacementScale(members=tuple(ordered))
