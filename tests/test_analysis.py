"""Plane sweeps, closed-form regions, and structural verifiers."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from oracles import (
    monotone_on_scale_by_cells,
    pe_grid_full_table,
    region_csv_by_cells,
    region_json_by_cells,
    region_predicate_m4,
    strict_onset,
)
from placedet import (
    BudgetError,
    RegionMap,
    SensorModel,
    chain_sort,
    check_conjecture_chain,
    check_monotone_on_scale,
    error_probability,
    canonicalize_placement,
    optimal_placements,
    sweep_plane,
    sweep_window,
    verify_cor41,
    verify_counterexample,
    verify_prop51,
    verify_thm41,
    verify_thm42,
)
from placedet.analysis import (
    _nodes,
    full_partition_scale,
    grid_values,
    region_csv_text,
    region_json_text,
    sweep_planes,
    verify_prop51_pairs,
    write_atomic,
)
from placedet import analysis, detection
from placedet.detection import argmin_with_ties, class_count, class_table, partition_pes
from placedet.model import row_bands
from placedet.partitions import MAX_M, enumerate_partitions


def test_grid_values_cover_open_interval():
    values = grid_values(0.02)
    assert len(values) == 49
    assert values[0] == pytest.approx(0.02)
    assert values[-1] == pytest.approx(0.98)
    with pytest.raises(BudgetError):
        grid_values(0.0001)
    for coarse in (0.2, math.nan):  # a bad value, not a budget
        with pytest.raises(ValueError):
            grid_values(coarse)


def test_sweep_budget_refusal_names_cost():
    # slice-table columns plus rows x count classes per partition, at each of
    # the 199 * 200 / 2 half-plane nodes
    terms = math.comb(16 + 3, 3)
    for p in enumerate_partitions(16):
        terms += len(row_bands(p, 17)) * class_table(p).weight.size
    cost = f"work {199 * 200 // 2 * terms:,} exceeds the budget {detection.WORK_BUDGET:,}"
    with pytest.raises(BudgetError, match=re.escape(cost)):
        sweep_plane(16, 17, 0.005)


def test_m9_map_matches_optimal_search():
    # maps past m = 8 are admitted by the work budget; a map node and the
    # scalar search agree bit for bit
    region_map = sweep_plane(9, 10, 0.05)
    strict = np.nonzero(region_map.strict)[0]
    for g in (strict[0], strict[-1], np.nonzero(~region_map.strict)[0][0]):
        cell = region_map.cells[int(g)]
        opt = optimal_placements(9, 10, SensorModel(p_d=cell.p_d, p_f=cell.p_f))
        assert [p.counts for p in opt.best] == list(cell.best)
        assert (opt.pe_min, opt.margin) == (cell.pe_min, cell.margin)


def test_sweep_three_sensors_three_points():
    region_map = sweep_plane(3, 3, 0.02)
    strict = region_map.strict_placements()
    assert strict == {(3,), (2, 1)}
    # diagonal cells carry the full tie set
    diag = [c for c in region_map.cells if c.i_f == c.i_d]
    assert diag and all(c.tie_count == 3 and not c.strict for c in diag)


def test_sweep_extra_point_makes_uniform_strict():
    region_map = sweep_plane(3, 4, 0.02)
    assert region_map.strict_placements() == {(3,), (2, 1), (1, 1, 1)}
    corner = [
        c
        for c in region_map.cells
        if c.p_f == pytest.approx(0.02) and c.p_d == pytest.approx(0.98)
    ]
    assert corner[0].strict and corner[0].best[0] == (1, 1, 1)


def test_sweep_full_region_flip_symmetric():
    region_map = sweep_plane(2, 3, 0.1, region="full")
    by_node = {(c.i_f, c.i_d): c for c in region_map.cells}
    top = len(region_map.pf_values) - 1
    for (i_f, i_d), cell in by_node.items():
        mirror = by_node[(top - i_f, top - i_d)]
        assert cell.best == mirror.best
        assert cell.pe_min == pytest.approx(mirror.pe_min, abs=1e-12)


def test_sweep_rejects_unknown_region():
    with pytest.raises(ValueError):
        sweep_plane(3, 3, 0.05, region="everything")


def test_csv_deterministic_and_well_formed():
    region_map = sweep_plane(3, 3, 0.05)
    text = "".join(region_csv_text(region_map))
    again = "".join(region_csv_text(sweep_plane(3, 3, 0.05)))
    assert text == again
    lines = text.strip().split("\n")
    assert lines[0] == "p_f,p_d,best,tie_count,pe_min,margin"
    assert len(lines) == 1 + len(region_map.cells)
    first = lines[1].split(",")
    assert first[0] == "0.05" and first[1] == "0.05"


def test_fixed_pd_scan_crosses_whole_scale():
    # At p_d = 0.95 the optimum climbs through all four shapes as p_f grows.
    pf_axis = tuple(0.005 * k for k in range(1, 190))
    window = sweep_window(4, 4, pf_axis, (0.95,))
    seen = []
    for cell in window.cells:
        if cell.strict and (not seen or seen[-1] != cell.best[0]):
            if cell.best[0] not in seen:
                seen.append(cell.best[0])
    assert seen == [(2, 1, 1), (2, 2), (3, 1), (4,)]


def test_region_predicate_reliable_corner():
    verdict = region_predicate_m4(0.1, 0.9)
    assert verdict.placement == (2, 1, 1) and not verdict.ambiguous


def test_region_predicate_low_pd_always_spread():
    for p_d in (0.1, 0.3, 0.5, 0.65):
        for p_f in np.linspace(0.01, p_d, 8):
            verdict = region_predicate_m4(float(p_f), p_d)
            assert verdict.placement == (2, 1, 1)


def test_region_predicate_matches_brute_force_spot():
    for p_f, p_d in [(0.2, 0.8), (0.7, 0.75), (0.85, 0.9), (0.9, 0.99), (0.6, 0.97)]:
        verdict = region_predicate_m4(p_f, p_d)
        best = min(
            ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)),
            key=lambda c: error_probability(
                canonicalize_placement(c, 4), SensorModel(p_d=p_d, p_f=p_f)
            ).value,
        )
        assert verdict.placement == best


def test_region_predicate_flags_boundary():
    assert region_predicate_m4(0.8, 0.8).ambiguous  # diagonal above 2/3: none fire
    with pytest.raises(ValueError):
        region_predicate_m4(0.9, 0.1)


def test_verify_thm41_passes_coarse():
    report = verify_thm41(m_max=4, step=0.05)
    assert report.passed
    assert report.max_violation <= 1e-12
    assert not report.counterexamples
    assert report.checked == 3 * 190
    payload = report.to_json_dict()
    assert set(payload) == {
        "claim",
        "checked",
        "max_violation",
        "counterexamples",
        "pass",
        "notes",
    }


def test_verify_thm41_rejects_empty_range():
    # m starts at 2, so m_max = 1 would report a pass that checked nothing
    with pytest.raises(ValueError):
        verify_thm41(m_max=1)


def test_verify_thm41_refuses_too_many_sensors_before_tables(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("table built")

    monkeypatch.setattr(detection, "slice_table", no_table)
    with pytest.raises(ValueError, match=f"m_max={MAX_M + 1} exceeds"):
        verify_thm41(m_max=MAX_M + 1)


def test_verify_thm42_passes():
    report = verify_thm42(3, 4, 6, step=0.1)
    assert report.passed and report.max_violation <= 1e-10


def test_verify_thm42_rejects_bad_order():
    with pytest.raises(ValueError):
        verify_thm42(4, 4, 6)


def test_point_count_leaves_best_sets_unchanged():
    # Equal scaled differences force identical argmin structure node by node.
    at4 = sweep_plane(3, 4, 0.05)
    at6 = sweep_plane(3, 6, 0.05)
    assert len(at4.cells) == len(at6.cells)
    for a, b in zip(at4.cells, at6.cells):
        assert (a.i_f, a.i_d) == (b.i_f, b.i_d)
        assert a.best == b.best
        assert a.strict == b.strict


def test_two_sensor_case_identity():
    # On the region p_d >= p_f, p_d(1-p_d) >= p_f(1-p_f) the split-vs-stack
    # gap reduces to (p_d - p_f)(1 - p_d - p_f)/2 exactly.
    split = canonicalize_placement([1, 1], 2)
    stack = canonicalize_placement([2], 2)
    for p_f, p_d in [(0.2, 0.6), (0.1, 0.5), (0.3, 0.45), (0.05, 0.9)]:
        assert p_d * (1 - p_d) >= p_f * (1 - p_f)
        model = SensorModel(p_d=p_d, p_f=p_f)
        gap = (
            error_probability(split, model).value
            - error_probability(stack, model).value
        )
        assert gap == pytest.approx((p_d - p_f) * (1 - p_d - p_f) / 2, abs=1e-12)


def test_verify_cor41_coarse():
    report = verify_cor41(3, step=0.02)
    assert report.passed
    assert report.notes["strict_at_n_equal_m"] == ["2-1", "3"]
    assert report.notes["strict_at_n_plus_1"] == ["1-1-1", "2-1", "3"]
    with pytest.raises(ValueError):
        verify_cor41(6)


def test_monotone_on_scale_passes_for_four_sensors():
    region_map = sweep_plane(4, 4, 0.02)
    scale = full_partition_scale(4)
    for axis in ("increasing_pf", "increasing_pd"):
        report = check_monotone_on_scale(region_map, scale, axis)
        assert report.passed
        assert report.notes["skipped_off_scale"] == 0
        assert report.notes["skipped_ties"] > 0  # diagonal cells
    with pytest.raises(ValueError):
        check_monotone_on_scale(region_map, scale, "diagonal")


def test_full_partition_scale_only_below_six():
    assert full_partition_scale(5).members[0] == (5,)
    with pytest.raises(ValueError):
        full_partition_scale(6)


def test_verify_prop51_single_pair():
    report = verify_prop51(3, 3, step=0.02)
    assert report.passed
    assert report.notes["skipped_off_scale"] == 0


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (5, 5)])
def test_monotone_holds_for_remaining_small_pairs(m, n):
    report = verify_prop51(m, n, step=0.02)
    assert report.passed
    assert report.notes["skipped_off_scale"] == 0


def test_predicate_crossing_sequence_at_high_pd():
    # Fixed p_d = 0.95 row: predicates fire in scale order as p_f grows.
    seen = []
    for k in range(1, 190):
        verdict = region_predicate_m4(0.005 * k, 0.95)
        if verdict.placement is not None and verdict.placement not in seen:
            seen.append(verdict.placement)
    assert seen == [(2, 1, 1), (2, 2), (3, 1), (4,)]


def test_counterexample_window_detects_inversion():
    report = verify_counterexample()
    assert report.passed
    assert report.notes["violations_increasing_pf"]
    assert report.notes["violations_increasing_pd"]
    drop = report.notes["violations_increasing_pf"][0]
    assert drop["from"] == "3-2-1-1" and drop["to"] == "2-2-2-1"


def test_monotone_violation_reported_in_window():
    window = sweep_window(7, 8, (0.46, 0.48), (0.5, 0.6))
    scale = chain_sort([(3, 2, 1, 1), (2, 2, 2, 1)])
    report = check_monotone_on_scale(window, scale, "increasing_pf")
    assert not report.passed
    assert report.max_violation >= 1.0


def test_conjecture_chain_four_sensors():
    region_map = sweep_plane(4, 4, 0.02)
    report = check_conjecture_chain(region_map)
    assert report.passed
    assert report.notes["chain"]


def test_conjecture_chain_six_sensors_coarse():
    region_map = sweep_plane(6, 6, 0.02)
    report = check_conjecture_chain(region_map)
    assert report.passed
    expected = {"6", "5-1", "4-2", "3-2-1", "2-2-1-1", "2-1-1-1-1"}
    assert set(report.notes["strict_set"]) <= expected


def test_strict_onset_rows():
    region_map = sweep_plane(4, 4, 0.02)
    below, first = strict_onset(region_map, (2, 2))
    assert below is not None and first is not None
    assert below < first <= below + 0.02 + 1e-12
    assert strict_onset(region_map, (1, 1, 1, 1)) == (None, None)
    # a window has every row, so the row below is i_d - 1; a placement that
    # already wins on the lowest row has none
    window = sweep_window(4, 4, tuple(0.02 * k for k in range(1, 40)), (0.6, 0.7, 0.8, 0.9))
    onsets = set()
    for counts in window.partitions:
        rows = [c.i_d for c in window.cells if c.strict and c.best[0] == counts]
        if rows:
            first = min(rows)
            onsets.add(first)
            below = window.pd_values[first - 1] if first > 0 else None
            assert strict_onset(window, counts) == (below, window.pd_values[first])
        else:
            assert strict_onset(window, counts) == (None, None)
    assert {0, 1} <= onsets


def _window_7_8():
    pf_axis = tuple(0.46 + 0.01 * i for i in range(3))
    pd_axis = tuple(0.50 + 0.01 * i for i in range(11))
    return sweep_window(7, 8, pf_axis, pd_axis)


# (map, scale) pairs for the array paths against the per-cell oracles
DIFFERENTIAL_CASES = {
    "m3n3": lambda: (sweep_plane(3, 3, 0.01), full_partition_scale(3)),
    "m4n5": lambda: (sweep_plane(4, 5, 0.01), full_partition_scale(4)),
    "m5n6": lambda: (sweep_plane(5, 6, 0.01), full_partition_scale(5)),
    "window_m7n8": lambda: (_window_7_8(), chain_sort([(3, 2, 1, 1), (2, 2, 2, 1)])),
    "m5n6_two_member_scale": lambda: (sweep_plane(5, 6, 0.01), chain_sort([(3, 2), (2, 2, 1)])),
    "m4n4_full": lambda: (sweep_plane(4, 4, 0.02, region="full"), full_partition_scale(4)),
}


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_array_paths_match_per_cell_oracles(case):
    region_map, scale = DIFFERENTIAL_CASES[case]()
    reports = {}
    for axis in ("increasing_pf", "increasing_pd"):
        report = check_monotone_on_scale(region_map, scale, axis).to_json_dict()
        # JSON text also compares the Python types (int vs float, no numpy scalars)
        assert json.dumps(report) == json.dumps(monotone_on_scale_by_cells(region_map, scale, axis))
        reports[axis] = report
    assert "".join(region_csv_text(region_map)) == region_csv_by_cells(region_map)
    assert "".join(region_json_text(region_map, "1")) == region_json_by_cells(region_map, "1")
    if case == "window_m7n8":
        assert all(r["counterexamples"] for r in reports.values())
    if case == "m5n6_two_member_scale":
        assert all(r["notes"]["skipped_off_scale"] > 0 for r in reports.values())


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_cells_are_built_from_the_arrays(case):
    region_map, _ = DIFFERENTIAL_CASES[case]()
    parts = region_map.partitions
    cells = region_map.cells
    assert len(cells) == region_map.pe_min.size == region_map.tie.shape[1]
    assert cells[-1] == cells[len(cells) - 1]
    assert cells[1:3] == (cells[1], cells[2])
    with pytest.raises(IndexError):
        cells[len(cells)]
    diagonal = 0
    for g, cell in enumerate(cells):
        assert (cell.i_f, cell.i_d) == (region_map.i_f[g], region_map.i_d[g])
        assert cell.p_f == region_map.pf_values[cell.i_f]
        assert cell.p_d == region_map.pd_values[cell.i_d]
        assert cell.best[0] == parts[region_map.winner[g]]
        assert cell.tie_count == region_map.tie[:, g].sum()
        assert cell.pe_min == region_map.pe_min[g] and cell.margin == region_map.margin[g]
        assert cell.strict == region_map.strict[g] == (cell.tie_count == 1)
        assert type(cell.i_f) is int and type(cell.p_f) is float and type(cell.strict) is bool
        if cell.p_f == cell.p_d:  # the sensors are blind: every placement ties
            diagonal += 1
            assert cell.best == parts
    assert diagonal > 0 or case == "window_m7n8"


def test_conjecture_chain_reports_uncovered_ties():
    # Hand-built values at three nodes, walked in node order: (2, 2, 2, 1)
    # wins strictly; a tie of (4, 1, 1, 1) and (3, 3, 1) extends the chain by
    # the first; then a tie of (3, 3, 1) and (3, 2, 2), both incomparable with
    # (4, 1, 1, 1), is left uncovered.
    parts = tuple(enumerate_partitions(7))
    at = {p: i for i, p in enumerate(parts)}
    pes = np.ones((len(parts), 3))
    pes[at[(2, 2, 2, 1)], 0] = 0.5
    pes[[at[(4, 1, 1, 1)], at[(3, 3, 1)]], 1] = 0.5
    pes[[at[(3, 3, 1)], at[(3, 2, 2)]], 2] = 0.5
    pf_axis, pd_axis = (0.1, 0.2, 0.3), (0.9,)
    nodes = _nodes(pf_axis, pd_axis, half_plane=False)
    tie, pe_min, margin, strict = argmin_with_ties(pes)
    region_map = RegionMap(7, 7, None, "window", pf_axis, pd_axis, parts, *nodes,
                           tie, pe_min, margin, strict, tie.argmax(axis=0))
    report = check_conjecture_chain(region_map)
    assert not report.passed and report.checked == 3
    assert report.counterexamples == (
        {"p_f": 0.3, "p_d": 0.9, "tie_set": ["3-3-1", "3-2-2"]},
    )
    assert report.notes["chain"] == ["4-1-1-1", "2-2-2-1"]


def test_region_map_frees_power_table_before_argmin(monkeypatch):
    # At m = 8 a whole-grid power table (4 x 9 floats per node) outweighs
    # the P_e array (22 per node); held through the argmin pass, it raised
    # the peak of `sweep --m 8 --n 8 --step 0.001` from 273 to 385 MiB. A
    # map now holds one slice table at a time and none into the argmin
    # (these 3,600 nodes are one P_e block).
    axis = tuple(np.linspace(0.01, 0.99, 60))
    nodes = len(axis) ** 2
    pes_bytes = len(enumerate_partitions(8)) * nodes * 8
    table_bytes = 4 * 9 * nodes * 8
    held = []

    def traced_argmin(pes, out):
        held.append(tracemalloc.get_traced_memory()[0])
        return argmin_with_ties(pes, out)

    monkeypatch.setattr(analysis, "argmin_with_ties", traced_argmin)
    tracemalloc.start()
    try:
        sweep_window(8, 8, axis, axis)
    finally:
        tracemalloc.stop()
    assert held[0] < pes_bytes + table_bytes / 2


def _capture_pes(monkeypatch) -> list:
    """Patch the maps' ``partition_pes`` to record a copy of each P_e block a map evaluates.

    The map's argmin consumes the block, so the copy is taken first;
    ``np.concatenate(blocks, axis=2)`` gives a map's whole (n_values,
    partitions, nodes) P_e.
    """
    captured = []

    def capture(*args):
        pes = partition_pes(*args)
        captured.append(pes.copy())
        return pes

    monkeypatch.setattr(analysis, "partition_pes", capture)
    return captured


def test_kernel_peak_of_a_map_does_not_grow_with_nodes(monkeypatch):
    # Past the P_e block, the kernel phase of a map holds one slice table
    # and its temporaries, whatever the node count; only the node arrays
    # (i_f, i_d, pf, pd: 32 bytes a node) grow. A whole-grid power table
    # added 288 bytes a node at m = 8. Both maps are one P_e block, and the
    # peak is read as the kernel returns it, before the map's arrays exist.
    peaks = []

    def traced_partition_pes(*args):
        pes = partition_pes(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - pes.nbytes)
        return pes

    monkeypatch.setattr(analysis, "partition_pes", traced_partition_pes)
    sizes = []
    for side in (60, 120):
        axis = tuple(np.linspace(0.01, 0.99, side))
        sizes.append(side * side)
        tracemalloc.start()
        try:
            sweep_window(8, 8, axis, axis)
        finally:
            tracemalloc.stop()
    assert sizes == [3_600, 14_400]
    assert peaks[1] - peaks[0] < 64 * (sizes[1] - sizes[0]), peaks


def test_map_peak_holds_one_pe_array():
    # The tie pass works in P_e's own storage and the node arrays are built
    # once, so a map's peak is P_e, the tie mask and the node arrays plus the
    # kernel's slice temporaries (a slice table and two gathers of its size).
    # Two P_e-sized temporaries in the tie pass and a second node pass added
    # about 3.2 MB here.
    axis = tuple(np.linspace(0.01, 0.99, 120))
    nodes = len(axis) ** 2
    parts = len(enumerate_partitions(8))
    held = parts * nodes * 8 + parts * nodes + 4 * nodes * 8  # pes, tie, i_f/i_d/pf/pd
    slack = 3 * detection.GRID_CHUNK_ENTRIES * 8
    sweep_window(8, 8, axis[:2], axis[:2])  # caches and imports outside the trace
    tracemalloc.start()
    try:
        sweep_window(8, 8, axis, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes == 14_400
    assert peak < held + slack, (peak, held)


def test_map_walk_builds_each_class_table_once(monkeypatch):
    # verify thm42 at m = 14 calls the kernel for 2 x 135 (n, partition)
    # pairs on every 96-node slice, in a fixed cycle: each partition's count
    # classes are built once, on the first slice, and serve both point
    # counts, however long the cycle.
    m, n_values = 14, (15, 16)
    parts = tuple(enumerate_partitions(m))
    built = []
    block_columns = detection.block_columns

    def counting(alarms, counts):
        built.append(counts)
        return block_columns(alarms, counts)

    monkeypatch.setattr(detection, "block_columns", counting)
    detection.class_table.cache_clear()
    try:
        axis = tuple(np.linspace(0.05, 0.95, 15))
        _, _, pf, pd = _nodes(axis, axis, half_plane=False)
        width = detection.slice_width(math.comb(m + 3, 3), max(map(class_count, parts)))
        assert width == 96 and pf.size > 2 * width
        pes = partition_pes(parts, n_values, pf, pd)
    finally:
        detection.class_table.cache_clear()
    assert sorted(built) == sorted(parts)
    assert np.isfinite(pes).all()


@pytest.mark.parametrize("m, n", [(8, 8), (8, 9), (9, 9), (9, 10)])
def test_optimal_chain_holds_to_m8_and_breaks_at_m9(m, n):
    # the first structural result past the paper's (7, 8) probe: at step
    # 0.01 the strict optima form one majorization chain for m = 8, and at
    # m = 9 two incomparable placements each win strictly somewhere
    report = check_conjecture_chain(sweep_plane(m, n, 0.01))
    if m == 8:
        assert report.passed and not report.counterexamples
    else:
        assert not report.passed
        assert report.counterexamples == (
            {"incomparable_strict_pair": ["3-2-1-1-1-1", "2-2-2-2-1"]},
        )


WINDOW_AXES = (tuple(0.46 + 0.01 * i for i in range(5)), tuple(0.5 + 0.01 * i for i in range(7)))


def test_region_map_pes_match_standalone_kernel_and_oracle(monkeypatch):
    # A map's shared slice tables give every partition the bits of its own
    # standalone partition_pes call and of the full-table oracle: on the
    # half plane, on a window, and over 7-node slices (the last of the 190
    # nodes is a lone slice).
    captured = _capture_pes(monkeypatch)
    default = detection.GRID_CHUNK_ENTRIES
    for m in range(1, 9):
        parts = enumerate_partitions(m)
        per_node = max(math.comb(m + 3, 3), max(map(class_count, parts)))
        builds = (
            (default, lambda n: sweep_plane(m, n, 0.05)),
            (default, lambda n: sweep_window(m, n, *WINDOW_AXES)),
            (7 * per_node, lambda n: sweep_plane(m, n, 0.05)),
        )
        for n in (m, m + 1, m + 3):
            for entries, build in builds:
                monkeypatch.setattr(detection, "GRID_CHUNK_ENTRIES", entries)
                region_map = build(n)
                monkeypatch.setattr(detection, "GRID_CHUNK_ENTRIES", default)
                pes = np.concatenate(captured, axis=2)[0]
                captured.clear()
                pf, pd = region_map.pf, region_map.pd
                assert pes.shape == (len(parts), pf.size)
                for i, counts in enumerate(region_map.partitions):
                    oracle = pe_grid_full_table(counts, n, pf, pd)
                    alone = partition_pes((counts,), (n,), pf, pd)[0, 0]
                    assert np.array_equal(pes[i], alone)
                    assert np.array_equal(pes[i], oracle), (m, n, counts)


def test_csv_labels_equal_per_node_formatting():
    # each axis value is formatted once; the rows must equal the per-node
    # f-string rendering, also for axis values like 0.46 + 0.01 * i that are
    # not the nearest floats to their decimals
    maps = [
        sweep_plane(4, 5, 0.01),
        sweep_window(7, 8, *WINDOW_AXES),
        sweep_window(3, 4, tuple(np.linspace(0.0, 1.0, 7)), (0.25, 1, 0.999999949)),
        sweep_window(3, 4, (), (0.5,)),  # no nodes: the JSON list is "[]"
    ]
    for region_map in maps:
        assert "".join(region_csv_text(region_map)) == region_csv_by_cells(region_map)
        assert "".join(region_json_text(region_map, "1")) == region_json_by_cells(region_map, "1")


def test_write_atomic_peaks_below_the_text(tmp_path):
    # each block is written as it comes, so neither the whole text nor an
    # encoded copy of it is ever made
    line = "0.123456789,0.5\n"
    path = tmp_path / "map.csv"
    tracemalloc.start()
    try:
        write_atomic(str(path), (line * (1 << 16) for _ in range(16)))  # 16 blocks of 1 MiB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert path.read_text() == line * (1 << 20)


def test_write_atomic_fault_mid_stream_keeps_the_old_target(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("old\n")

    def blocks():
        yield "new\n"
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        write_atomic(str(path), blocks())
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]


def _assert_same_maps(got, expected):
    assert len(got) == len(expected)
    for a_map, b_map in zip(got, expected):
        for f in dataclasses.fields(RegionMap):
            a, b = getattr(a_map, f.name), getattr(b_map, f.name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
            else:
                assert a == b, f.name


@pytest.mark.parametrize(
    "m, n_values, region",
    [(1, (1, 2), "pd_ge_pf"), (3, (3, 4), "pd_ge_pf"), (4, (4, 5, 7), "full"), (5, (6,), "pd_ge_pf")],
)
def test_multi_n_maps_equal_separate_maps(m, n_values, region):
    # the maps of one m from shared partition_pes calls equal sweep_plane's, field by field
    maps = sweep_planes(m, n_values, 0.05, region)
    assert [rm.n for rm in maps] == list(n_values)
    _assert_same_maps(maps, [sweep_plane(m, n, 0.05, region) for n in n_values])


def test_prop51_pairs_equal_one_report_per_pair():
    pairs = ((3, 3), (3, 4), (4, 4), (4, 5), (5, 6))
    reports = verify_prop51_pairs(pairs, step=0.05)
    assert [r.to_json_dict() for r in reports] == [
        verify_prop51(m, n, step=0.05).to_json_dict() for m, n in pairs
    ]


def test_json_cells_at_blind_sensors():
    # at p_d = p_f every partition ties, so every label is written into the
    # tie set; labels are digits and dashes, which JSON quotes as they are
    for m in range(1, MAX_M + 1):
        for counts in enumerate_partitions(m):
            label = "-".join(map(str, counts))
            assert json.dumps(label) == f'"{label}"'
    axis = (0.0, 0.3, 1.0)
    region_map = sweep_window(6, 7, axis, axis)
    text = "".join(region_json_text(region_map, "1"))
    assert text == region_json_by_cells(region_map, "1")
    labels = ["-".join(map(str, p)) for p in region_map.partitions]
    blind = [c for c in json.loads(text)["cells"] if c["p_f"] == c["p_d"]]
    assert len(blind) == 3
    assert all(c["best"] == labels and c["margin"] == "inf" and not c["strict"] for c in blind)


def _whole_array_maps(m, n_values, step, region, pf_values, pd_values):
    """The maps' fields from one whole-map ``partition_pes`` call and its argmin: the fold's oracle."""
    i_f, i_d, pf, pd = _nodes(pf_values, pd_values, region == "pd_ge_pf")
    parts = enumerate_partitions(m)
    maps = []
    for n, pes in zip(n_values, partition_pes(parts, n_values, pf, pd)):
        tie, pe_min, margin, strict = argmin_with_ties(pes)
        maps.append(RegionMap(m, n, step, region, pf_values, pd_values, parts,
                              i_f, i_d, pf, pd, tie, pe_min, margin, strict, tie.argmax(axis=0)))
    return maps


@pytest.mark.parametrize("m", range(1, 9))
def test_multi_block_maps_equal_the_whole_array_fold(monkeypatch, m):
    # 7 nodes a block: the 190 half-plane nodes at step 0.05 end in a lone
    # node, and the 400 of the full square in a block of 1
    parts = len(enumerate_partitions(m))
    values = grid_values(0.05)
    window = (tuple(np.linspace(0.05, 0.95, 4)), (0.2, 0.5, 0.9))
    cases = [
        ((m,), 0.05, "pd_ge_pf", values, values),
        ((m, m + 1, m + 3), 0.05, "pd_ge_pf", values, values),
        ((m + 1,), 0.05, "full", values, values),
        ((m,), None, "window", *window),
        ((m,), None, "window", (), (0.5,)),  # no nodes
    ]
    for n_values, step, region, pf_values, pd_values in cases:
        monkeypatch.setattr(analysis, "PE_BLOCK_ENTRIES", 7 * parts * len(n_values))
        if step is None:
            got = [sweep_window(m, n_values[0], pf_values, pd_values)]
        else:
            got = sweep_planes(m, n_values, step, region)
        monkeypatch.undo()
        _assert_same_maps(got, _whole_array_maps(m, n_values, step, region, pf_values, pd_values))


def test_multi_block_map_peaks_at_its_arrays_and_one_block(monkeypatch):
    # a map folds each P_e block into its own arrays and frees it before
    # the next, so its peak is those arrays, one block and the kernel's
    # slice temporaries. A block (22 x 16,384 doubles, 2.9 MB) is larger
    # than the slack, so neither a second live block nor a whole P_e array
    # (5.7 MB) fits under the bound.
    axis = tuple(np.linspace(0.01, 0.99, 180))
    parts = len(enumerate_partitions(8))
    monkeypatch.setattr(analysis, "PE_BLOCK_ENTRIES", parts * 16_384)
    sweep_window(8, 8, axis[:2], axis[:2])  # caches and imports outside the trace
    tracemalloc.start()
    try:
        region_map = sweep_window(8, 8, axis, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(getattr(region_map, f.name).nbytes for f in dataclasses.fields(RegionMap)
              if isinstance(getattr(region_map, f.name), np.ndarray))
    block = parts * 16_384 * 8
    slack = 4 * detection.GRID_CHUNK_ENTRIES * 8  # a slice table, its gathers, small temporaries
    assert region_map.pe_min.size == 32_400 and block > slack
    assert peak < own + block + slack, (peak, own)


def test_multi_block_map_is_gated_before_its_first_table(monkeypatch):
    # the whole node set is checked once before the first block, so a NaN
    # in the last block or a map over the budget builds no table at all
    def no_table(*args):
        raise AssertionError("a slice table was built")

    monkeypatch.setattr(detection, "slice_table", no_table)
    monkeypatch.setattr(analysis, "PE_BLOCK_ENTRIES", 64)
    axis = tuple(np.linspace(0.05, 0.95, 10))
    with pytest.raises(ValueError, match="finite and in"):
        sweep_window(4, 4, axis, (*axis, math.nan))
    with pytest.raises(BudgetError):
        sweep_plane(16, 17, 0.005)
    with pytest.raises(AssertionError, match="slice table"):  # the window gated in does build
        sweep_window(4, 4, axis, axis)
