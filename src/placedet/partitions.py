"""Integer partitions: the exact search space for sensor placements.

With M identical sensors the distinct placements are exactly the integer
partitions of M, enumerated here in reverse-lexicographic order from (M)
down to (1, ..., 1). The order is part of the contract: CSV dumps and
argmin tie-breaking downstream depend on it being stable.
"""

from __future__ import annotations

from typing import Iterator

MAX_M = 20
"""The one sensor bound: :func:`enumerate_partitions` (627 placements at 20)
and ``detection.partition_pes`` refuse more sensors, and the Monte Carlo
decision table may hold no more than 2^MAX_M x (MAX_M + 1) entries."""


def _partitions_desc(m: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if m == 0:
        yield ()
        return
    for first in range(min(m, max_part), 0, -1):
        for rest in _partitions_desc(m - first, first):
            yield (first,) + rest


def enumerate_partitions(m: int) -> tuple[tuple[int, ...], ...]:
    """All non-increasing positive tuples summing to m, largest-first order.

    E.g. m=4 gives (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    """
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be in 1..{MAX_M}, got {m}")
    return tuple(_partitions_desc(m, m))


def partition_count(m: int) -> int:
    """Number of partitions of m (the partition function)."""
    return len(enumerate_partitions(m))
