"""Majorization order, chain detection, and scale sorting."""

import itertools

import pytest

from placedet import (
    MajorizationVerdict,
    canonicalize_placement,
    chain_sort,
    compare,
    enumerate_partitions,
    is_chain,
    majorization,
)
from placedet.majorization import verdict_matrix

A = MajorizationVerdict.STRICTLY_ABOVE
B = MajorizationVerdict.STRICTLY_BELOW
E = MajorizationVerdict.EQUAL
I = MajorizationVerdict.INCOMPARABLE
MIRROR = {A: B, B: A, E: E, I: I}


def test_concentrated_above_spread():
    assert compare((4, 0, 0, 0), (3, 1, 0, 0)) is A
    assert compare((3, 1, 0, 0), (4, 0, 0, 0)) is B


def test_classic_incomparable_pairs():
    assert compare((4, 1, 1), (3, 3)) is I
    assert compare((3, 1, 1, 1), (2, 2, 2)) is I


def test_equal_multisets():
    assert compare((2, 2), (2, 2)) is E
    assert compare((2, 2, 0, 0), (2, 2)) is E  # padding-insensitive


def test_placement_inputs_accepted():
    x = canonicalize_placement([4])
    y = canonicalize_placement([3, 1])
    assert compare(x, y) is A


def test_rejects_different_totals():
    with pytest.raises(ValueError):
        compare((3, 1), (3,))


@pytest.mark.parametrize("x, y", [((0, 0), (0,)), ((), ()), ((2, -1), (1,))])
def test_rejects_vectors_no_placement_has(x, y):
    # counts are canonicalized as placements are: no sensors, or a negative count, is refused
    with pytest.raises(ValueError):
        compare(x, y)
    with pytest.raises(ValueError):
        is_chain([x])


def test_antisymmetry_and_transitivity_exhaustive():
    for m in range(2, 9):
        parts = list(enumerate_partitions(m))
        verdicts = {}
        for x, y in itertools.product(parts, parts):
            verdicts[x, y] = compare(x, y)
        for x, y in itertools.product(parts, parts):
            assert verdicts[x, y] is MIRROR[verdicts[y, x]]
        for x, y, z in itertools.product(parts, parts, parts):
            if verdicts[x, y] is A and verdicts[y, z] is A:
                assert verdicts[x, z] is A


def test_extremes_dominate_everything():
    for m in range(2, 9):
        top = (m,)
        bottom = (1,) * m
        for x in enumerate_partitions(m):
            if x not in (top, bottom):
                assert compare(top, x) is A
                assert compare(x, bottom) is A


def test_padding_invariance():
    assert compare((3, 1), (2, 2)) is compare((3, 1, 0, 0, 0), (2, 2, 0))


def test_is_chain_six_sensor_optimal_set():
    ok, pair = is_chain(
        [(6, 0), (5, 1), (4, 2), (3, 2, 1), (2, 2, 1, 1), (2, 1, 1, 1, 1)]
    )
    assert ok and pair is None


def test_is_chain_reports_offender():
    ok, pair = is_chain([(4, 1, 1), (3, 3)])
    assert not ok
    assert set(pair) == {(4, 1, 1), (3, 3)}


def test_is_chain_reports_first_offender_in_input_order():
    # two incomparable pairs, (3, 1, 1, 1)-(2, 2, 2) and (3, 3)-(4, 1, 1):
    # the first (i, j), i < j, in row-major order is reported, so (1, 4)
    # comes before (2, 3)
    ok, pair = is_chain([(6,), (3, 1, 1, 1), (3, 3), (4, 1, 1), (2, 2, 2)])
    assert not ok
    assert pair == ((3, 1, 1, 1), (2, 2, 2))
    ok, pair = is_chain([(6,), (3, 3), (4, 1, 1), (3, 1, 1, 1), (2, 2, 2)])
    assert pair == ((3, 3), (4, 1, 1))


def test_unequal_totals_refused_before_any_pair():
    # an incomparable pair before the unequal total does not hide it: the
    # whole input is refused (the pairwise loop returned (False, pair) here)
    for check in (is_chain, chain_sort, verdict_matrix):
        with pytest.raises(ValueError, match="totals differ"):
            check([(4, 1, 1), (3, 3), (5,)])


def test_each_input_canonicalized_once(monkeypatch):
    calls = []

    def counted(raw):
        calls.append(raw)
        return canonicalize_placement(raw)

    monkeypatch.setattr(majorization, "canonicalize_placement", counted)
    parts = [p + (0,) for p in enumerate_partitions(6)]
    for check in (is_chain, chain_sort, verdict_matrix):
        calls.clear()
        try:
            check(parts)
        except ValueError:  # the partitions of 6 are not a chain
            pass
        assert calls == parts


@pytest.mark.parametrize("m", range(1, 13))
def test_verdict_matrix_matches_pairwise_compare(m):
    parts = enumerate_partitions(m)
    assert verdict_matrix(parts) == [[compare(x, y) for y in parts] for x in parts]


def test_verdict_matrix_of_nothing_and_of_one():
    assert verdict_matrix([]) == []
    assert verdict_matrix([(2, 1, 0)]) == [[E]]
    assert chain_sort([]).members == ()


def test_is_chain_singleton():
    assert is_chain([(3, 2)]) == (True, None)


def test_chain_sort_four_sensor_scale():
    scale = chain_sort([(2, 1, 1, 0), (4, 0, 0, 0), (2, 2, 0, 0), (3, 1, 0, 0)])
    assert scale.members == ((4,), (3, 1), (2, 2), (2, 1, 1))


def test_chain_sort_singleton():
    scale = chain_sort([(7,)])
    assert scale.members == ((7,),)


def test_chain_sort_five_sensor_figure_scale():
    scale = chain_sort(
        [(2, 2, 1), (5, 0), (1, 1, 1, 1, 1), (4, 1), (2, 1, 1, 1), (3, 2)]
    )
    assert scale.members == (
        (5,),
        (4, 1),
        (3, 2),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    )


def test_chain_sort_rejects_non_chain():
    with pytest.raises(ValueError, match="incomparable"):
        chain_sort([(4, 1, 1), (3, 3), (6,)])


def test_scale_levels_count_from_bottom():
    scale = chain_sort([(4,), (3, 1), (2, 2)])
    assert scale.level((4,)) == 2
    assert scale.level((2, 2)) == 0
    assert (3, 1, 0, 0) in scale
    with pytest.raises(ValueError):
        scale.level((2, 1, 1))
