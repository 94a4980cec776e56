"""Exact P_e evaluation, MAP decisions, and the brute-force search."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placedet import (
    PmfTable,
    SensorModel,
    canonicalize_placement,
    enumerate_partitions,
    error_probability,
    error_probability_grid,
    map_decide,
    observation_index,
    optimal_placements,
)
from placedet import detection
from placedet.analysis import COUNTEREXAMPLE_PROBES, grid_values, sweep_window
from placedet.detection import TIE_EPS, argmin_with_ties, class_count, class_table
from placedet.model import block_columns, likelihood_columns, power_table, slice_table

from oracles import (
    argmin_with_ties_two_temporaries,
    closed_form_pe2,
    flip_model,
    pe_exact,
    pe_from_positions,
    pe_grid_full_table,
    positions_from_counts,
)

P11 = canonicalize_placement([1, 1], n=2)
P20 = canonicalize_placement([2], n=2)


def test_two_sensor_values():
    model = SensorModel(p_d=0.6, p_f=0.2)
    assert error_probability(P11, model).value == pytest.approx(0.3, abs=1e-12)
    assert error_probability(P20, model).value == pytest.approx(0.26, abs=1e-12)


def test_closed_form_values():
    model = SensorModel(p_d=0.6, p_f=0.2)
    assert closed_form_pe2(P11, model) == pytest.approx(0.3, abs=1e-12)
    assert closed_form_pe2(P20, model) == pytest.approx(0.26, abs=1e-12)


def test_closed_form_half_when_uninformative():
    for p in (0.1, 0.5, 0.8):
        model = SensorModel(p_d=p, p_f=p)
        assert closed_form_pe2(P11, model) == pytest.approx(0.5, abs=1e-15)
        assert closed_form_pe2(P20, model) == pytest.approx(0.5, abs=1e-15)


def test_closed_form_rejects_other_shapes():
    with pytest.raises(ValueError):
        closed_form_pe2(canonicalize_placement([2, 1], 3), SensorModel(0.6, 0.2))


def test_closed_form_agrees_on_coarse_grid():
    # Full unit square, both sides of the diagonal; fine grid in acceptance.
    for kf in range(1, 20):
        for kd in range(1, 20):
            model = SensorModel(p_d=kd * 0.05, p_f=kf * 0.05)
            for placement in (P11, P20):
                exact = error_probability(placement, model).value
                assert abs(exact - closed_form_pe2(placement, model)) <= 1e-12


def test_uninformative_model_hits_upper_bound():
    model = SensorModel(p_d=0.4, p_f=0.4)
    for counts in [(3,), (2, 1), (1, 1, 1)]:
        p = canonicalize_placement(counts, n=3)
        assert error_probability(p, model).value == pytest.approx(2 / 3, abs=1e-12)


def test_boundary_tie_between_shapes():
    # p_d(1-p_d) = p_f(1-p_f) at (0.1, 0.9): splitting or stacking both give 0.1.
    model = SensorModel(p_d=0.9, p_f=0.1)
    pe_split = error_probability(P11, model).value
    pe_stack = error_probability(P20, model).value
    assert pe_split == pytest.approx(0.1, abs=1e-12)
    assert abs(pe_split - pe_stack) <= 1e-12


def test_leave_one_out_identity_random_instances():
    rng = random.Random(424242)
    for _ in range(25):
        m = rng.randint(1, 6)
        n = rng.randint(m, m + 3)
        counts = rng.choice(list(enumerate_partitions(m)))
        model = SensorModel(p_d=rng.random(), p_f=rng.random())
        placement = canonicalize_placement(counts, n=n)
        direct = pe_from_positions(
            positions_from_counts(counts), n, model.p_d, model.p_f
        )
        fast = error_probability(placement, model, n).value
        assert abs(direct - fast) <= 1e-12


def test_permutation_invariance_of_block_assignment():
    # Non-canonical layouts evaluated through raw position vectors.
    model = SensorModel(p_d=0.77, p_f=0.18)
    canonical = canonicalize_placement([2, 1, 1], n=4)
    reference = error_probability(canonical, model).value
    for positions in ([2, 2, 3, 1], [4, 1, 1, 3], [3, 4, 4, 2]):
        scrambled = pe_from_positions(positions, 4, model.p_d, model.p_f)
        assert abs(scrambled - reference) <= 1e-12


def test_flip_symmetry_of_error_probability():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(1, 5)
        n = rng.randint(m, m + 2)
        counts = rng.choice(list(enumerate_partitions(m)))
        model = SensorModel(p_d=rng.random(), p_f=rng.random())
        placement = canonicalize_placement(counts, n=n)
        a = error_probability(placement, model, n).value
        b = error_probability(placement, flip_model(model), n).value
        assert abs(a - b) <= 1e-12


probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(p_d=probs, p_f=probs, pick=st.integers(min_value=0, max_value=10**6))
def test_pe_range_invariant(p_d, p_f, pick):
    rng = random.Random(pick)
    m = rng.randint(1, 5)
    n = rng.randint(m, m + 2)
    counts = rng.choice(list(enumerate_partitions(m)))
    placement = canonicalize_placement(counts, n=n)
    value = error_probability(placement, SensorModel(p_d, p_f), n).value
    assert -1e-12 <= value <= (n - 1) / n + 1e-12


def test_uniform_vs_doubled_inequality_coarse():
    # Spot grid here; the step-0.02 version runs in the acceptance suite.
    for m in (2, 3, 4):
        uniform = canonicalize_placement([1] * m, n=m)
        doubled = canonicalize_placement([2] + [1] * (m - 2), n=m)
        for kf in range(1, 20):
            for kd in range(kf, 20):
                model = SensorModel(p_d=kd * 0.05, p_f=kf * 0.05)
                pe_uni = error_probability(uniform, model).value
                pe_two = error_probability(doubled, model).value
                assert pe_uni >= pe_two - 1e-12


def test_grid_evaluator_matches_scalar():
    rng = random.Random(99)
    pf = np.array([rng.random() for _ in range(40)])
    pd = np.array([rng.random() for _ in range(40)])
    for counts, n in [((2, 1, 1), 5), ((3, 2), 5), ((1, 1, 1, 1), 4), ((4,), 6)]:
        grid = error_probability_grid(counts, n, pf, pd)
        placement = canonicalize_placement(counts, n=n)
        for g in range(pf.size):
            scalar = error_probability(
                placement, SensorModel(p_d=pd[g], p_f=pf[g]), n
            ).value
            assert abs(grid[g] - scalar) <= 1e-12


# (p_f, p_d): interior points on both sides of the diagonal, the diagonal
# itself (every hypothesis ties), and corners where 0^0 = 1 must hold.
DIFFERENTIAL_POINTS = ((0.15, 0.8), (0.55, 0.3), (0.4, 0.4), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))


def test_count_class_kernel_matches_oracle_for_every_partition():
    pf = np.array([p_f for p_f, _ in DIFFERENTIAL_POINTS])
    pd = np.array([p_d for _, p_d in DIFFERENTIAL_POINTS])
    for m in range(1, 9):
        for counts in enumerate_partitions(m):
            positions = positions_from_counts(counts)
            for n in (m, m + 2):
                placement = canonicalize_placement(counts, n=n)
                grid = error_probability_grid(counts, n, pf, pd)
                for g, (p_f, p_d) in enumerate(DIFFERENTIAL_POINTS):
                    expected = pe_from_positions(positions, n, p_d, p_f)
                    scalar = error_probability(placement, SensorModel(p_d, p_f), n).value
                    assert abs(grid[g] - expected) <= 1e-12, (counts, n, p_f, p_d)
                    assert abs(scalar - expected) <= 1e-12, (counts, n, p_f, p_d)


def test_grid_evaluator_matches_oracle_at_random_points():
    # The scalar evaluator is the grid kernel at one point, so the random
    # points of test_grid_evaluator_matches_scalar are checked here against
    # the independent per-position oracle instead.
    rng = random.Random(99)
    pf = np.array([rng.random() for _ in range(40)])
    pd = np.array([rng.random() for _ in range(40)])
    for counts, n in [((2, 1, 1), 5), ((3, 2), 5), ((1, 1, 1, 1), 4), ((4,), 6)]:
        grid = error_probability_grid(counts, n, pf, pd)
        positions = positions_from_counts(counts)
        for g in range(pf.size):
            expected = pe_from_positions(positions, n, pd[g], pf[g])
            assert abs(grid[g] - expected) <= 1e-12, (counts, n, pf[g], pd[g])


def test_count_class_table_shape():
    for m in range(1, 9):
        assert class_table((1,) * m, m).weight.size == m + 1
        for counts in enumerate_partitions(m):
            for n in (m, m + 2):
                mult, weight, column = class_table(counts, n)
                exponents = likelihood_columns(m)[:, column]
                assert class_count(counts) == weight.size
                assert weight.sum() == 2**m
                assert mult.sum() == n
                assert (exponents.sum(axis=0) == m).all()
    assert sum(class_table(c, 8).weight.size for c in enumerate_partitions(8)) == 591


@pytest.mark.parametrize("dtype", [np.int8, np.intp])
def test_block_columns_name_the_likelihood_formula(dtype):
    # for every block size v, own alarms a and total alarms s, the row's
    # column is p_d^a (1-p_d)^(v-a) p_f^(s-a) (1-p_f)^(m-v-s+a); the empty
    # row (v = a = 0) follows the blocks when n > k
    for m in range(1, 11):
        for v in range(1, m + 1):
            counts = (v, m - v)[: 1 + (v < m)]
            a, s = np.array(
                [(a, s) for a in range(v + 1) for s in range(a, a + m - v + 1)], dtype=dtype
            ).T
            alarms = np.stack([a, s - a])[: len(counts)]
            blocks = [(v, a), (m - v, s - a)][: len(counts)]
            for n, rows in ((len(counts), blocks), (len(counts) + 1, [*blocks, (0, 0 * s)])):
                column = block_columns(alarms, counts, n)
                assert column.shape == (len(rows), s.size)
                for (size, own), got in zip(rows, column):
                    expected = [own, size - own, s - own, m - size - s + own]
                    assert np.array_equal(likelihood_columns(m)[:, got], expected), (m, v, size, n)


def _per_node(counts, n):
    """Floats per node of the kernel's larger slice array: its slice table, or its classes."""
    return max(likelihood_columns(sum(counts)).shape[1], class_table(counts, n).weight.size)


def test_grid_slices_match_one_slice(monkeypatch):
    rng = np.random.default_rng(11)
    pf, pd = rng.uniform(size=(2, 1001))
    pf[:4], pd[:4] = [0.0, 1.0, 0.3, 0.5], [1.0, 0.0, 0.3, 0.5]
    for counts, n in (((3, 2, 1, 1, 1), 9), ((1, 1, 1), 4), ((2,), 2)):
        table = slice_table(pf, pd, sum(counts))
        monkeypatch.setattr(detection, "GRID_CHUNK_ENTRIES", 1 << 62)
        whole = error_probability_grid(counts, n, pf, pd)
        assert np.array_equal(error_probability_grid(counts, n, pf, pd, table=table), whole)
        # width 1 is raised to 2 nodes; 4 and 250 leave one node over (1001 = 4 * 250 + 1)
        for width in (1, 2, 3, 4, 7, 250):
            for shared in (None, table):
                entries = width * _per_node(counts, n)
                monkeypatch.setattr(detection, "GRID_CHUNK_ENTRIES", entries)
                got = error_probability_grid(counts, n, pf, pd, table=shared)
                assert np.array_equal(got, whole), (counts, width, shared is None)


def test_slice_width_follows_the_larger_array(monkeypatch):
    # the kernel holds the table and (classes, nodes) blocks, never rows x classes
    m, n = 8, 9
    assert likelihood_columns(m).shape[1] == math.comb(m + 3, 3) == 165
    assert detection.slice_width(165, 48) == detection.GRID_CHUNK_ENTRIES // 165 == 397
    assert detection.slice_width(8, 4) == 8192 and detection.slice_width(1 << 20, 1) == 2
    widths = []
    original = detection._weighted_gaps

    def recording(table, *rest):
        widths.append(table.shape[1])
        return original(table, *rest)

    monkeypatch.setattr(detection, "_weighted_gaps", recording)
    pf = np.linspace(0.01, 0.5, 1000)
    error_probability_grid((3, 2, 1, 1, 1), n, pf, pf + 0.3)
    assert widths == [397, 397, 206]


def test_grid_memory_bounded_by_slice():
    counts, n, nodes = (3, 2, 1, 1, 1), 9, 20_000
    one_temporary = class_table(counts, n).column.size * nodes * 8
    pf = np.linspace(0.01, 0.5, nodes)
    tracemalloc.start()
    try:
        error_probability_grid(counts, n, pf, pf + 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_temporary / 4


def _oracle_nodes(rng, size):
    """``size`` random nodes, led by every pair from {0, 0.5, 1} and a diagonal run."""
    pf, pd = rng.uniform(size=(2, size))
    corners = np.array([0.0, 0.5, 1.0])
    head = min(size, 9)
    pf[:head], pd[:head] = np.repeat(corners, 3)[:head], np.tile(corners, 3)[:head]
    pd[9:20] = pf[9:20]
    return pf, pd


def test_grid_kernel_bit_identical_to_full_table_oracle():
    # The slice-table kernel must reproduce the full (rows, classes, nodes)
    # formulation exactly: one node (which numpy would sum pairwise), a
    # small grid, and a default-width grid whose last slice holds one node;
    # each cut into slices by the kernel and read from one whole-grid table.
    rng = np.random.default_rng(23)
    for m in range(1, 9):
        for counts in enumerate_partitions(m):
            for n in (m, m + 2):
                classes = class_table(counts, n).weight.size
                width = detection.slice_width(likelihood_columns(m).shape[1], classes)
                for size in (1, 40, 2 * width + 1):
                    pf, pd = _oracle_nodes(rng, size)
                    expected = pe_grid_full_table(counts, n, pf, pd)
                    assert np.array_equal(error_probability_grid(counts, n, pf, pd), expected)
                    table = slice_table(pf, pd, m)
                    got = error_probability_grid(counts, n, pf, pd, table=table)
                    assert np.array_equal(got, expected), (counts, n, size)
    # numpy's pairwise row sum differs from the in-order one from 8 rows on,
    # so one-node grids also run at m = 9..12
    for m in range(9, 13):
        for counts in enumerate_partitions(m):
            n = m + 1
            for _ in range(3):
                pf, pd = rng.uniform(size=(2, 1))
                expected = pe_grid_full_table(counts, n, pf, pd)
                got = error_probability_grid(counts, n, pf, pd, table=slice_table(pf, pd, m))
                assert np.array_equal(got, expected), (counts, n, pf, pd)


def test_node_bits_do_not_depend_on_grid(monkeypatch):
    # A node's P_e is the same float alone, beside one other node, at any
    # slice width inside a larger grid (the last node of 50 is a lone slice
    # at width 7), with or without a shared slice table, and through the
    # scalar evaluator.
    rng = np.random.default_rng(31)
    pf, pd = rng.uniform(size=(2, 50))
    probes = (0, 24, 49)
    default = detection.GRID_CHUNK_ENTRIES
    for m in range(1, 13):
        table = slice_table(pf, pd, m)
        for counts in enumerate_partitions(m):
            n = m + 1
            grids = []
            for shared in (None, table):
                per_node = _per_node(counts, n)
                for entries in (2 * per_node, 3 * per_node, 7 * per_node, default):
                    monkeypatch.setattr(detection, "GRID_CHUNK_ENTRIES", entries)
                    grids.append(error_probability_grid(counts, n, pf, pd, table=shared))
            monkeypatch.setattr(detection, "GRID_CHUNK_ENTRIES", default)
            placement = canonicalize_placement(counts, n)
            for g in probes:
                alone = error_probability_grid(counts, n, pf[g : g + 1], pd[g : g + 1])[0]
                pair = error_probability_grid(counts, n, pf[[g, 7]], pd[[g, 7]])[0]
                shared_alone = error_probability_grid(
                    counts, n, pf[g : g + 1], pd[g : g + 1], table=table[:, g : g + 1]
                )[0]
                scalar = error_probability(placement, SensorModel(pd[g], pf[g]), n).value
                assert all(grid[g] == alone for grid in grids), (counts, g)
                assert pair == alone and scalar == alone and shared_alone == alone, (counts, g)


def _tie_pass_cases():
    """(name, pes) arrays with ties, near-ties and degenerate shapes planted."""
    rng = np.random.default_rng(15)
    below, above = np.nextafter(TIE_EPS, 0.0), np.nextafter(TIE_EPS, 1.0)
    pes = rng.uniform(0.05, 0.5, (22, 64))
    # gaps of exactly TIE_EPS and one ulp either side: x + gap and
    # (x + gap) - x are exact for x = 0 and x = 2^-30
    for g, gap in enumerate((below, TIE_EPS, above)):
        for x, node in ((0.0, g), (2.0**-30, 3 + g)):
            pes[:, node] = 0.5
            pes[4, node], pes[9, node] = x, x + gap
    pes[:, 6] = 0.3  # all tied: margin +inf, not strict
    pes[[2, 7, 11], 7] = 0.01  # an exact three-way tie
    pes[5, 8] = pes[:, 8].min() - TIE_EPS / 4  # a tie inside TIE_EPS
    pes[:, 9] = np.linspace(0.1, 0.1 + 21e-10, 22)  # a chain of 1e-10 steps
    # the rounded gap decides: fl(fl(0.3 + TIE_EPS) - 0.3) exceeds TIE_EPS
    pes[:, 10] = 0.5
    pes[4, 10], pes[9, 10] = 0.3, 0.3 + TIE_EPS
    yield "planted", pes
    yield "random", rng.random((15, 500))
    yield "single_partition", rng.random((1, 40))
    yield "single_node", rng.random((22, 1))
    yield "single_tied_node", np.full((7, 1), 0.25)


TIE_PASS_CASES = dict(_tie_pass_cases())


@pytest.mark.parametrize("name", TIE_PASS_CASES)
def test_in_place_tie_pass_matches_two_temporary_formula(name):
    # the tie pass overwrites P_e with the gaps instead of allocating two
    # arrays of its size; every output keeps the old formula's bits
    pes = TIE_PASS_CASES[name]
    expected = argmin_with_ties_two_temporaries(pes)
    got = argmin_with_ties(pes.copy())
    for want, have in zip(expected, got):
        assert want.dtype == have.dtype and want.shape == have.shape, name
        assert want.tobytes() == have.tobytes(), name
    if name == "planted":
        tie, _, margin, strict = got
        assert tie[9, [0, 1, 3, 4]].all() and not tie[9, [2, 5, 10]].any()
        assert margin[6] == np.inf and not strict[6]
    if name == "single_partition":
        assert got[0].all() and got[3].all() and np.isinf(got[2]).all()


def test_optimum_matches_region_map_cell():
    # optimal and a sweep evaluate the same node to the same bits
    pf_axis, pd_axis = (0.3, 0.46, 0.48), (0.5, 0.55, 0.6)
    window = sweep_window(7, 8, pf_axis, pd_axis)
    cells = {(cell.p_f, cell.p_d): cell for cell in window.cells}
    for p_f, p_d, _ in COUNTEREXAMPLE_PROBES:
        opt = optimal_placements(7, 8, SensorModel(p_d=p_d, p_f=p_f))
        cell = cells[p_f, p_d]
        assert (opt.pe_min, opt.margin) == (cell.pe_min, cell.margin), (p_f, p_d)
        assert [p.counts for p in opt.best] == list(cell.best)


def test_power_table_of_a_slice_is_the_slice_of_the_table():
    lengths = [*range(1, 70), 255, 256, 257, 1000, 2047, 2048, 4095, 4096, 8191, 8192, 8193, 20_000]
    size = 1001 + lengths[-1]
    node_sets = [np.random.default_rng(5).uniform(size=(2, size))]
    for step in (0.005, 0.001):  # the first nodes of a full-square sweep
        values = np.array(grid_values(step))
        i_d, i_f = np.divmod(np.arange(size), values.size)
        node_sets.append((values[i_f], values[i_d]))
    for pf, pd in node_sets:
        whole = power_table(pf, pd, 20)
        for lo in (0, 3, 1001):
            for length in lengths:
                part = power_table(pf[lo : lo + length], pd[lo : lo + length], 20)
                for w, p in zip(whole, part):
                    assert np.array_equal(w[:, lo : lo + length], p), (lo, length)


def test_kernel_accuracy_against_exact_rationals():
    rng = np.random.default_rng(41)
    pf, pd = rng.uniform(size=(2, 4))
    for m in range(1, 7):
        for counts in enumerate_partitions(m):
            n = m + 1
            positions = positions_from_counts(counts)
            grid = error_probability_grid(counts, n, pf, pd)
            for g in range(pf.size):
                alone = error_probability_grid(counts, n, pf[g : g + 1], pd[g : g + 1])[0]
                exact = pe_exact(positions, n, pd[g], pf[g])
                for value in (grid[g], alone):
                    error = float(abs(Fraction(value) - exact) / exact)
                    assert error <= 2e-15, (counts, pf[g], pd[g], error)


MALFORMED_NODES = (
    (np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.6])),  # unequal lengths
    (np.full((2, 2), 0.1), np.full((2, 2), 0.6)),  # 2-D
    (np.array(0.1), np.array(0.6)),  # 0-D
    (np.array([1.5]), np.array([0.6])),  # above 1
    (np.array([0.1]), np.array([-0.2])),  # below 0
    (np.array([np.nan]), np.array([0.6])),
    (np.array([0.1]), np.array([np.inf])),
)


def test_grid_rejects_malformed_nodes():
    counts, n = (2, 1), 3
    for pf, pd in MALFORMED_NODES:
        with pytest.raises(ValueError):
            error_probability_grid(counts, n, pf, pd)


def test_partition_pes_checks_before_building_a_table(monkeypatch):
    # malformed nodes and any point count below m are refused once per
    # call, before the first slice table
    def no_table(*args):
        raise AssertionError("slice_table called")

    monkeypatch.setattr(detection, "slice_table", no_table)
    parts = tuple(enumerate_partitions(3))
    for pf, pd in MALFORMED_NODES:
        with pytest.raises(ValueError, match="pf and pd"):
            detection.partition_pes(parts, (3, 4), pf, pd)
    pf, pd = np.array([0.1, 0.2]), np.array([0.5, 0.6])
    for n_values in ((2,), (4, 2), (3, 5, 1)):
        with pytest.raises(ValueError, match="exceed"):
            detection.partition_pes(parts, n_values, pf, pd)
    with pytest.raises(AssertionError, match="slice_table called"):
        detection.partition_pes(parts, (3, 4), pf, pd)


def test_partition_pes_refuses_sensors_and_work_before_tables(monkeypatch):
    # work = nodes x (C(m + 3, 3) + rows x count classes per placement and n)
    parts, n_values = enumerate_partitions(4), (4, 6)
    pf, pd = np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.6, 0.7])
    terms = math.comb(4 + 3, 3)
    for n in n_values:
        for counts in parts:
            terms += class_table(counts, n).column.size
    work = pf.size * terms
    monkeypatch.setattr(detection, "WORK_BUDGET", work)
    assert detection.partition_pes(parts, n_values, pf, pd).shape == (2, 5, 3)

    def no_table(*args):
        raise AssertionError("table built")

    for name in ("slice_table", "class_table"):
        monkeypatch.setattr(detection, name, no_table)
    monkeypatch.setattr(detection, "WORK_BUDGET", work - 1)
    quoted = f"work {work:,} exceeds the budget {work - 1:,}"
    with pytest.raises(detection.BudgetError, match=quoted):
        detection.partition_pes(parts, n_values, pf, pd)
    with pytest.raises(ValueError, match="sensor bound 20"):
        detection.partition_pes(((21,),), (21,), [0.1], [0.5])


def test_grid_rejects_mismatched_slice_table():
    counts, n = (2, 1), 3
    pf, pd = np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.6, 0.7])
    good = slice_table(pf, pd, 3)
    assert np.array_equal(
        error_probability_grid(counts, n, pf, pd, table=good),
        error_probability_grid(counts, n, pf, pd),
    )
    bad = [
        slice_table(pf[:2], pd[:2], 3),  # too few nodes
        slice_table(pf, pd, 2),  # built for another m
        slice_table(pf, pd, 4),
        good[:-1],  # a missing column
        good[:, 0],  # 1-D
    ]
    for table in bad:
        with pytest.raises(ValueError):
            error_probability_grid(counts, n, pf, pd, table=table)


def test_class_table_cached_read_only():
    for m in range(1, 9):
        used = set()
        for counts in enumerate_partitions(m):
            for n in (m, m + 2):
                cached = class_table(counts, n)
                assert class_table(counts, n) is cached
                assert not any(array.flags.writeable for array in cached)
                used.update(np.unique(cached.column).tolist())
        # every column of m is used by some placement: no column is dead weight
        assert used == set(range(math.comb(m + 3, 3)))
    with pytest.raises(ValueError):
        class_table((2, 1), 3).weight[0] = 0.0
    assert not likelihood_columns(4).flags.writeable


def test_rejects_more_sensors_than_points():
    with pytest.raises(ValueError):
        error_probability(canonicalize_placement([2, 1], 3), SensorModel(0.9, 0.1), n=2)
    with pytest.raises(ValueError):
        error_probability_grid((2, 1), 2, np.array([0.1]), np.array([0.9]))
    with pytest.raises(ValueError):
        optimal_placements(4, 3, SensorModel(0.9, 0.1))


def test_map_decide_full_tie_when_uninformative():
    placement = canonicalize_placement([2, 1, 1], n=4)
    model = SensorModel(p_d=0.3, p_f=0.3)
    for y in range(16):
        assert map_decide(y, placement, model) == frozenset({1, 2, 3, 4})


def test_map_decide_prefers_loaded_point():
    placement = canonicalize_placement([2], n=2)
    model = SensorModel(p_d=0.9, p_f=0.1)
    assert map_decide(observation_index((1, 1)), placement, model) == frozenset({1})


def test_map_decide_all_quiet_points_to_empty_point():
    placement = canonicalize_placement([2, 1, 1, 0], n=4)
    model = SensorModel(p_d=0.9, p_f=0.1)
    assert map_decide(0, placement, model) == frozenset({4})


def test_map_decide_ties_across_empty_points():
    placement = canonicalize_placement([2, 2], n=6)
    model = SensorModel(p_d=0.9, p_f=0.1)
    assert map_decide(0, placement, model) == frozenset({3, 4, 5, 6})


def test_map_decide_with_prebuilt_table():
    placement = canonicalize_placement([2, 1], n=4)
    model = SensorModel(p_d=0.8, p_f=0.2)
    table = PmfTable.build(placement, model, 4)
    for y in range(8):
        assert map_decide(y, placement, model, table=table) == map_decide(y, placement, model)
    with pytest.raises(ValueError):
        map_decide(3, placement, SensorModel(p_d=0.7, p_f=0.2), table=table)
    with pytest.raises(ValueError):
        map_decide(3, canonicalize_placement([3], n=4), model, table=table)
    with pytest.raises(ValueError):
        map_decide(3, placement, model, n=5, table=table)


def test_pmf_table_and_evaluator_describe_one_detector():
    # the decision table's rows give P_e = (1/n) sum_y (S(y) - max_j p_j(y)),
    # with the shared empty row counted n - k times in S
    # (p_f, p_d): the corners, the diagonal and two interior nodes
    nodes = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.3, 0.3), (0.7, 0.7), (0.2, 0.7),
             (0.6, 0.35))
    for m in range(1, 9):
        n = m + 1
        for counts in enumerate_partitions(m):
            placement, k = canonicalize_placement(counts, n), len(counts)
            for p_f, p_d in nodes:
                model = SensorModel(p_d=p_d, p_f=p_f)
                rows = PmfTable.build(placement, model, n).rows
                s = rows[:k].sum(axis=0) + (n - k) * rows[k]
                from_table = (s - rows.max(axis=0)).sum() / n
                pe = error_probability(placement, model, n).value
                assert abs(from_table - pe) <= 1e-14, (counts, p_f, p_d)


def test_optimal_four_sensors_reliable_corner():
    opt = optimal_placements(4, 4, SensorModel(p_d=0.9, p_f=0.1))
    assert [p.counts for p in opt.best] == [(2, 1, 1)]
    assert opt.strict and opt.margin > 1e-9


def test_optimal_seven_sensors_probe_points():
    cases = [
        (0.46, 0.6, (3, 2, 1, 1)),
        (0.48, 0.6, (2, 2, 2, 1)),
        (0.48, 0.5, (3, 2, 1, 1)),
    ]
    for p_f, p_d, expected in cases:
        opt = optimal_placements(7, 8, SensorModel(p_d=p_d, p_f=p_f))
        assert opt.strict
        assert opt.best[0].counts == expected


def test_optimal_full_tie_on_diagonal():
    opt = optimal_placements(4, 4, SensorModel(p_d=0.5, p_f=0.5))
    assert len(opt.best) == 5
    assert not opt.strict
    assert math.isinf(opt.margin)
    assert [p.counts for p in opt.best] == list(enumerate_partitions(4))


def test_optimal_single_partition():
    opt = optimal_placements(1, 3, SensorModel(p_d=0.9, p_f=0.1))
    assert opt.strict and math.isinf(opt.margin)
    assert opt.best[0].counts == (1,)


def test_optimal_respects_search_bound():
    with pytest.raises(ValueError):
        optimal_placements(21, 30, SensorModel(0.9, 0.1))


def test_point_count_override():
    placement = canonicalize_placement([2, 1], n=3)
    model = SensorModel(p_d=0.8, p_f=0.3)
    at3 = error_probability(placement, model).value
    at5 = error_probability(placement, model, n=5).value
    assert at3 != pytest.approx(at5, abs=1e-6)
    direct5 = pe_from_positions([1, 1, 2], 5, 0.8, 0.3)
    assert abs(at5 - direct5) <= 1e-12
