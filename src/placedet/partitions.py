"""Integer partitions: the exact search space for sensor placements.

With M identical sensors the distinct placements are exactly the integer
partitions of M, enumerated here in reverse-lexicographic order from (M)
down to (1, ..., 1). The order is part of the contract: CSV dumps and
argmin tie-breaking downstream depend on it being stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

MAX_M = 40  # exact P_e sums over each partition's count classes; keep enumeration desk-scale


@dataclass(frozen=True)
class PartitionSet:
    """All partitions of ``m`` in reverse-lexicographic order."""

    m: int
    items: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.items)


def _partitions_desc(m: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if m == 0:
        yield ()
        return
    for first in range(min(m, max_part), 0, -1):
        for rest in _partitions_desc(m - first, first):
            yield (first,) + rest


def enumerate_partitions(m: int) -> PartitionSet:
    """All non-increasing positive tuples summing to m, largest-first order.

    E.g. m=4 gives (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    """
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be in 1..{MAX_M}, got {m}")
    return PartitionSet(m=m, items=tuple(_partitions_desc(m, m)))


def partition_count(m: int) -> int:
    """Number of partitions of m (the partition function)."""
    return len(enumerate_partitions(m))

