"""Core data model and conditional pmf tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placedet import (
    PmfTable,
    SensorModel,
    canonicalize_placement,
)
from placedet.partitions import enumerate_partitions

from oracles import (
    bits_from_index,
    flip_model,
    observation_index,
    pmf_from_positions,
    positions_from_counts,
    table_row,
)


def pmf(y, j, placement, model):
    """p_j(y) read from the placement's PmfTable."""
    return table_row(PmfTable.build(placement, model), j)[y]


def block_pmf(a, v, s, m, model):
    """p_j(y) written out for a point with v sensors, a own alarms, s alarms in all."""
    pd, pf = model.p_d, model.p_f
    return pd**a * (1 - pd) ** (v - a) * pf ** (s - a) * (1 - pf) ** (m - s - (v - a))


def test_canonicalize_sorts_and_trims():
    p = canonicalize_placement([1, 2, 1, 1, 0], n=5)
    assert p.counts == (2, 1, 1, 1)
    assert p.m == 5 and p.n == 5


def test_canonicalize_already_canonical():
    p = canonicalize_placement([3], n=3)
    assert p.counts == (3,) and p.m == 3 and p.n == 3


def test_canonicalize_trims_zeros():
    p = canonicalize_placement([0, 4, 0, 0], n=4)
    assert p.counts == (4,) and p.m == 4


def test_canonicalize_idempotent():
    p = canonicalize_placement([3, 1, 1, 0], n=5)
    q = canonicalize_placement(p.counts, n=5)
    assert q == p


@pytest.mark.parametrize(
    "raw, n",
    [
        ([1, -1, 2], 3),       # negative entry
        ([1, 1, 1, 1], 3),     # more entries than points
        ([0, 0], 2),           # no sensors at all
        ([2, 2, 1, 1, 1], 4),  # five occupied points on four
    ],
)
def test_canonicalize_rejects(raw, n):
    with pytest.raises(ValueError):
        canonicalize_placement(raw, n)


def test_observation_roundtrip():
    assert observation_index((1, 0, 1, 1)) == 0b1011
    for y in range(16):
        assert observation_index(bits_from_index(y, 4)) == y


# The own-block alarm count a_j of each point, read back through the table:
# with p_d != p_f each a_j gives a different p_j(y).
MODEL = SensorModel(p_d=0.9, p_f=0.2)


def test_alarm_count_blocks():
    p = canonicalize_placement([2, 1, 1, 0], n=4)
    y = observation_index((1, 0, 1, 1))
    for j, a in zip(range(1, 5), (1, 1, 1, 0)):  # block bits y1,y2 = 1,0; point 4 empty
        assert pmf(y, j, p, MODEL) == pytest.approx(
            block_pmf(a, (2, 1, 1, 0)[j - 1], 3, 4, MODEL), abs=1e-15
        )


def test_alarm_count_all_ones_gives_block_size():
    p = canonicalize_placement([3, 2, 1], n=6)
    y = (1 << 6) - 1
    for j, v in enumerate((3, 2, 1, 0, 0, 0), start=1):
        assert pmf(y, j, p, MODEL) == pytest.approx(block_pmf(v, v, 6, 6, MODEL), abs=1e-15)


def test_alarm_count_empty_block():
    p = canonicalize_placement([2, 2, 0, 0], n=4)
    y = observation_index((1, 1, 0, 0))
    assert pmf(y, 2, p, MODEL) == pytest.approx(block_pmf(0, 2, 2, 4, MODEL), abs=1e-15)


def test_alarm_count_rejects_bad_hypothesis():
    table = PmfTable.build(canonicalize_placement([2, 1], n=3), MODEL)
    with pytest.raises(ValueError):
        table_row(table, 0)
    with pytest.raises(ValueError):
        table_row(table, 4)


def test_pmf_single_point_two_sensors():
    p = canonicalize_placement([2, 0], n=2)
    model = SensorModel(p_d=0.7, p_f=0.2)
    y11 = observation_index((1, 1))
    y10 = observation_index((1, 0))
    assert pmf(y11, 1, p, model) == pytest.approx(0.7**2, abs=1e-15)
    assert pmf(y10, 2, p, model) == pytest.approx(0.2 * 0.8, abs=1e-15)


def test_pmf_frozen_spot_values():
    # (2,1,1,0) block layout: point 2 owns y_3, point 3 owns y_4. A lone alarm
    # on the owned bit gives p_d*(1-p_f)^3 = 0.6561 at (p_f, p_d) = (0.1, 0.9);
    # a lone alarm elsewhere gives p_f*(1-p_d)*(1-p_f)^2 = 0.0081.
    p = canonicalize_placement([2, 1, 1, 0], n=4)
    model = SensorModel(p_d=0.9, p_f=0.1)
    y0001 = observation_index((0, 0, 0, 1))
    y0010 = observation_index((0, 0, 1, 0))
    assert pmf(y0001, 3, p, model) == pytest.approx(0.6561, abs=1e-15)
    assert pmf(y0010, 2, p, model) == pytest.approx(0.6561, abs=1e-15)
    assert pmf(y0010, 3, p, model) == pytest.approx(0.0081, abs=1e-15)


def test_pmf_matches_position_vector_oracle():
    model = SensorModel(p_d=0.83, p_f=0.21)
    for counts in [(2, 1, 1), (3,), (1, 1, 1, 1), (2, 2)]:
        p = canonicalize_placement(counts, n=5)
        table = PmfTable.build(p, model)
        positions = positions_from_counts(p.counts)
        for y in range(1 << p.m):
            bits = bits_from_index(y, p.m)
            for j in range(1, 6):
                expected = pmf_from_positions(bits, j, positions, model.p_d, model.p_f)
                assert table_row(table, j)[y] == pytest.approx(expected, abs=1e-14)


def test_pmf_table_rows_normalize_for_all_small_placements():
    # Every hypothesis row is a probability distribution over the 2^m alarms.
    model = SensorModel(p_d=0.87, p_f=0.23)
    for m in range(1, 13):
        for counts in enumerate_partitions(m):
            p = canonicalize_placement(counts, n=m + 1)
            table = PmfTable.build(p, model)
            sums = table.rows.sum(axis=1)
            assert abs(sums - 1.0).max() < 1e-12


def test_pmf_table_collapses_empty_rows():
    p = canonicalize_placement([2, 1], n=6)
    table = PmfTable.build(p, SensorModel(0.9, 0.1))
    assert table.n > table.placement.k
    assert table.rows.shape == (3, 8)
    for j in (3, 4, 5, 6):
        assert table_row(table, j) is table.rows[2] or (table_row(table, j) == table.rows[2]).all()
    with pytest.raises(ValueError):
        table_row(table, 7)


def test_pmf_table_no_empty_row_when_full():
    p = canonicalize_placement([1, 1], n=2)
    table = PmfTable.build(p, SensorModel(0.6, 0.2))
    assert table.n == table.placement.k
    assert table.rows.shape == (2, 4)


def test_pmf_table_refuses_more_sensors_than_points():
    with pytest.raises(ValueError, match=r"^m=3 sensors exceed n=2 points$"):
        PmfTable.build(canonicalize_placement([3], n=2), MODEL)
    with pytest.raises(ValueError, match=r"^m=3 sensors exceed n=2 points$"):
        PmfTable.build(canonicalize_placement([2, 1], n=3), MODEL, n=2)


def test_pmf_table_read_only():
    table = PmfTable.build(canonicalize_placement([2], 2), SensorModel(0.6, 0.2))
    with pytest.raises(ValueError):
        table.rows[0, 0] = 0.5


def test_degenerate_sensors_are_exact():
    # p_d = 1, p_f = 0 pins the alarm pattern; 0^0 = 1 keeps entries in {0, 1}.
    p = canonicalize_placement([2, 1], n=3)
    model = SensorModel(p_d=1.0, p_f=0.0)
    table = PmfTable.build(p, model)
    assert table_row(table, 1)[observation_index((1, 1, 0))] == 1.0
    assert table_row(table, 2)[observation_index((0, 0, 1))] == 1.0
    assert table.rows.shape == (3, 8)  # two occupied rows plus the empty row
    assert table.rows.sum(axis=1) == pytest.approx([1.0, 1.0, 1.0], abs=0)
    assert set(table.rows.ravel()) <= {0.0, 1.0}


def test_flip_model_values():
    flipped = flip_model(SensorModel(0.9, 0.1))
    assert flipped.p_d == pytest.approx(0.1, abs=1e-15)
    assert flipped.p_f == pytest.approx(0.9, abs=1e-15)
    assert flip_model(SensorModel(0.5, 0.5)) == SensorModel(p_d=0.5, p_f=0.5)
    assert flip_model(flip_model(SensorModel(0.25, 0.75))) == SensorModel(0.25, 0.75)


probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(p_d=probs, p_f=probs, y=st.integers(min_value=0, max_value=31))
def test_bit_flip_symmetry(p_d, p_f, y):
    # Complementing the observation and the model leaves the pmf unchanged.
    placement = canonicalize_placement([2, 2, 1], n=5)
    model = SensorModel(p_d, p_f)
    flipped = flip_model(model)
    y_comp = (~y) & 31
    table, flipped_table = PmfTable.build(placement, model), PmfTable.build(placement, flipped)
    for j in range(1, 6):
        lhs = table_row(table, j)[y]
        rhs = table_row(flipped_table, j)[y_comp]
        assert lhs == pytest.approx(rhs, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(p_d=probs, p_f=probs)
def test_pmf_rows_sum_to_one_any_model(p_d, p_f):
    placement = canonicalize_placement([3, 1], n=4)
    table = PmfTable.build(placement, SensorModel(p_d, p_f))
    assert abs(table.rows.sum(axis=1) - 1.0).max() < 1e-12


def test_sensor_model_validation():
    with pytest.raises(ValueError):
        SensorModel(p_d=1.2, p_f=0.1)
    with pytest.raises(ValueError):
        SensorModel(p_d=0.5, p_f=-0.1)


def test_placement_helpers():
    p = canonicalize_placement([3, 2, 1], n=7)
    assert p.k == 3
    assert p.counts + (0,) * (p.n - p.k) == (3, 2, 1, 0, 0, 0, 0)
    assert p.label() == "3-2-1"
    assert math.isclose(sum(p.counts), p.m)
