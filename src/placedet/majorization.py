"""Majorization partial order on placements and chain (scale) handling.

x is majorized by y (y strictly above x here) when, after sorting both
non-increasingly and zero-padding to a common length, every prefix sum of y
dominates the corresponding prefix sum of x and the totals agree. The order
is partial: e.g. (4,1,1) and (3,3) are incomparable. A placement scale is a
totally ordered chain, listed highest (most concentrated) first. Every
verdict is read from one prefix-sum dominance matrix, :func:`_dominance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .model import Placement, canonicalize_placement

Counts = Sequence[int]


class MajorizationVerdict(Enum):
    STRICTLY_ABOVE = "above"
    STRICTLY_BELOW = "below"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


_VERDICTS = np.array([MajorizationVerdict.INCOMPARABLE, MajorizationVerdict.STRICTLY_ABOVE,
                      MajorizationVerdict.STRICTLY_BELOW, MajorizationVerdict.EQUAL],
                     dtype=object)  # indexed by ge[i, j] + 2 * ge[j, i]


def _as_counts(x: Placement | Counts) -> tuple[int, ...]:
    return x.counts if isinstance(x, Placement) else canonicalize_placement(x).counts


def _dominance(placements: Sequence[Placement | Counts]) -> tuple[list, np.ndarray]:
    """Each input's canonical counts, and ``ge[i, j]``: i's zero-padded prefix sums dominate j's.

    Each input is canonicalized once; unequal totals are refused before any
    pair is decided. ``ge[i, j] and ge[j, i]`` means the counts are equal.
    """
    counts = [_as_counts(p) for p in placements]
    odd = next((c for c in counts if sum(c) != sum(counts[0])), None)
    if odd is not None:
        raise ValueError(f"totals differ: sum{counts[0]}={sum(counts[0])} vs sum{odd}={sum(odd)}")
    prefix = np.zeros((len(counts), max(map(len, counts), default=0)), dtype=np.int64)
    for row, c in zip(prefix, counts):
        row[: len(c)] = c
    np.cumsum(prefix, axis=1, out=prefix)
    return counts, (prefix[:, None, :] >= prefix[None, :, :]).all(axis=2)


def _first_incomparable(counts: list[tuple[int, ...]], ge: np.ndarray):
    """The first incomparable (i, j), i < j, in row-major order, as counts; else None."""
    i, j = np.nonzero(np.triu(~(ge | ge.T), 1))
    return (counts[i[0]], counts[j[0]]) if i.size else None


def verdict_matrix(placements: Sequence[Placement | Counts]) -> list[list[MajorizationVerdict]]:
    """Every ordered verdict: ``[i][j]`` is ``compare(placements[i], placements[j])``."""
    _, ge = _dominance(placements)
    return _VERDICTS[ge + 2 * ge.T].tolist()


def compare(x: Placement | Counts, y: Placement | Counts) -> MajorizationVerdict:
    """Classify the pair: x above/below/equal/incomparable relative to y.

    Requires equal totals; trailing zeros on either side do not change the verdict.
    """
    return verdict_matrix((x, y))[0][1]


def is_chain(
    placements: Sequence[Placement | Counts],
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """True when every pair is comparable; otherwise also the first offending pair.

    The offending pair is the first (i, j), i < j, in input order. Unequal
    totals are refused with ``ValueError``, whatever the pairs before them.
    """
    pair = _first_incomparable(*_dominance(placements))
    return pair is None, pair


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
    """Sort a chain's distinct members descending by majorization.

    On a chain a higher member dominates strictly more inputs than a lower
    one, so the members sort by their dominance counts. Raises with the
    offending pair when the input is not a chain.
    """
    counts, ge = _dominance(placements)
    pair = _first_incomparable(counts, ge)
    if pair is not None:
        raise ValueError(f"not a chain: {pair[0]} and {pair[1]} are incomparable")
    order = np.argsort(-ge.sum(axis=1), kind="stable").tolist()
    return PlacementScale(members=tuple(dict.fromkeys(counts[i] for i in order)))
