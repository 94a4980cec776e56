"""Partition enumeration and counts."""

import pytest

from placedet import (
    canonicalize_placement,
    enumerate_partitions,
    partition_count,
)

from oracles import pentagonal_partition_counts


def test_partitions_of_four_exact_list():
    assert enumerate_partitions(4) == (
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    )
    assert partition_count(4) == 5


def test_partitions_of_one():
    assert enumerate_partitions(1) == ((1,),)


def test_count_seven():
    assert partition_count(7) == 15


def test_count_ten():
    assert partition_count(10) == 42


def test_counts_match_pentagonal_recurrence():
    expected = pentagonal_partition_counts(20)
    for m in range(1, 21):
        assert partition_count(m) == expected[m]


def test_reverse_lexicographic_order():
    for m in (5, 8, 11):
        items = enumerate_partitions(m)
        assert list(items) == sorted(items, reverse=True)
        assert items[0] == (m,)
        assert items[-1] == (1,) * m


def test_no_duplicates_and_sums():
    for m in range(1, 15):
        items = enumerate_partitions(m)
        assert len(set(items)) == len(items)
        assert all(sum(p) == m for p in items)
        assert all(all(a >= b for a, b in zip(p, p[1:])) for p in items)


def test_roundtrip_through_canonicalize():
    for m in range(1, 13):
        for counts in enumerate_partitions(m):
            assert canonicalize_placement(counts, n=m).counts == counts


def test_bounds():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(21)
    with pytest.raises(ValueError):
        enumerate_partitions(41)

