"""Acceptance suite: one test per criterion, pinned tolerances, pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The heavy sweeps keep to the stated budgets on a laptop.
"""

import time
from contextlib import contextmanager

import numpy as np

from placedet import (
    SensorModel,
    canonicalize_placement,
    chain_sort,
    check_monotone_on_scale,
    enumerate_partitions,
    error_probability,
    optimal_placements,
    partition_count,
    simulate,
    sweep_plane,
    verify_cor41,
    verify_counterexample,
    verify_thm41,
    verify_thm42,
)
from placedet.analysis import grid_values, region_csv_text
from placedet.detection import partition_pes

from oracles import (
    M4_PLACEMENTS,
    closed_form_pe2,
    m4_fired_grid,
    pentagonal_partition_counts,
    strict_onset,
)


@contextmanager
def criterion(number: int, name: str, budget_s: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"


def test_criterion_01_partition_facts():
    with criterion(1, "partition-facts", 1.0):
        four = enumerate_partitions(4)
        assert four == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
        assert partition_count(4) == 5
        expected = pentagonal_partition_counts(12)
        for m in range(1, 13):
            assert partition_count(m) == expected[m]


def test_criterion_02_two_sensor_oracle():
    with criterion(2, "two-sensor-closed-form-oracle", 5.0):
        placements = [canonicalize_placement([1, 1], 2), canonicalize_placement([2], 2)]
        worst = 0.0
        for kd in range(1, 100):
            for kf in range(1, 100):
                model = SensorModel(p_d=kd * 0.01, p_f=kf * 0.01)
                for placement in placements:
                    gap = abs(
                        error_probability(placement, model).value
                        - closed_form_pe2(placement, model)
                    )
                    worst = max(worst, gap)
        assert worst <= 1e-12, f"worst oracle gap {worst:.3e}"


def test_criterion_03_uniform_never_beats_doubled():
    with criterion(3, "uniform-never-strictly-optimal", 120.0):
        report = verify_thm41(m_max=5, step=0.02)
        assert report.passed, report.counterexamples[:3]
        # Equality cells may only sit on the diagonal, or for m=2 on the
        # p_d(1-p_d) = p_f(1-p_f) curve.
        values = grid_values(0.02)
        nodes = [
            (i_f, i_d)
            for i_d in range(len(values))
            for i_f in range(i_d + 1)
        ]
        pf = np.array([values[i] for i, _ in nodes])
        pd = np.array([values[j] for _, j in nodes])
        for m in (2, 3, 4, 5):
            uniform = (1,) * m
            doubled = (2,) + (1,) * (m - 2)
            pe_uni, pe_two = partition_pes((uniform, doubled), (m,), pf, pd)[0]
            diff = pe_uni - pe_two
            assert diff.min() >= -1e-12
            equal_cells = np.nonzero(np.abs(diff) <= 1e-12)[0]
            assert equal_cells.size > 0
            for g in equal_cells:
                i_f, i_d = nodes[g]
                on_diagonal = i_f == i_d
                on_curve = abs(pd[g] * (1 - pd[g]) - pf[g] * (1 - pf[g])) <= 1e-9
                if m == 2:
                    assert on_diagonal or on_curve, (m, pf[g], pd[g], diff[g])
                else:
                    assert on_diagonal, (m, pf[g], pd[g], diff[g])
            if m == 2:
                off_diag_equal = [g for g in equal_cells if nodes[g][0] != nodes[g][1]]
                assert off_diag_equal, "m=2 equality curve not observed"


def test_criterion_04_point_count_invariance():
    with criterion(4, "scaled-pe-difference-invariant", 120.0):
        for m, n1, n2 in [(3, 4, 6), (4, 5, 7)]:
            report = verify_thm42(m, n1, n2, step=0.05)
            assert report.passed
            assert report.max_violation <= 1e-10, report.max_violation


def test_criterion_05_strict_set_grows_by_uniform():
    with criterion(5, "strict-set-grows-by-uniform", 300.0):
        for m in (3, 4):
            report = verify_cor41(m, step=0.01)
            assert report.passed, report.counterexamples


def test_criterion_06_four_sensor_closed_form_regions():
    with criterion(6, "four-sensor-region-predicates", 180.0):
        step = 0.005
        region_map = sweep_plane(4, 4, step)
        pf = np.array([c.p_f for c in region_map.cells])
        pd = np.array([c.p_d for c in region_map.cells])
        fired = m4_fired_grid(pf, pd)
        n_fired = fired.sum(axis=0)
        disagreements = []
        checked = 0
        for g, cell in enumerate(region_map.cells):
            if not cell.strict or n_fired[g] != 1:
                continue
            checked += 1
            predicted = M4_PLACEMENTS[int(fired[:, g].argmax())]
            if predicted != cell.best[0]:
                disagreements.append((g, cell, predicted))
        assert checked > 19000
        # Any disagreement must hug a predicate boundary: some neighbouring
        # node within one grid step carries a different fired-set.
        by_node = {(c.i_f, c.i_d): g for g, c in enumerate(region_map.cells)}
        for g, cell, predicted in disagreements:
            signature = fired[:, g].tobytes()
            near_boundary = False
            for df in (-1, 0, 1):
                for dd in (-1, 0, 1):
                    neighbour = by_node.get((cell.i_f + df, cell.i_d + dd))
                    if neighbour is not None and fired[:, neighbour].tobytes() != signature:
                        near_boundary = True
            assert near_boundary, (cell.p_f, cell.p_d, cell.best[0], predicted)
        # Fixed-p_d switch points bracket the exact thresholds: the placement
        # first wins strictly within one grid step of the threshold row.
        thresholds = [
            ((2, 2), 2.0 / 3.0),
            ((3, 1), 373.0 / 539.0),
            ((4,), 947.0 / 1093.0),
        ]
        for counts, threshold in thresholds:
            lo, hi = strict_onset(region_map, counts)
            assert lo is not None and hi is not None, counts
            assert hi - lo <= step + 1e-12
            assert lo - step <= threshold <= hi + step, (counts, lo, hi, threshold)


FIGURE_SCALES = {
    3: ((3,), (2, 1), (1, 1, 1)),
    4: ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)),
    5: ((5,), (4, 1), (3, 2), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)),
}


def test_criterion_07_monotone_on_scale():
    with criterion(7, "optimum-monotone-on-scale", 600.0):
        for m, n in [(3, 3), (3, 4), (4, 4), (4, 5), (5, 6)]:
            region_map = sweep_plane(m, n, 0.01)
            scale = chain_sort(FIGURE_SCALES[m])
            for axis in ("increasing_pf", "increasing_pd"):
                report = check_monotone_on_scale(region_map, scale, axis)
                assert report.passed, (m, n, axis, report.counterexamples[:3])
                assert report.notes["skipped_off_scale"] == 0, (
                    m, n, axis, report.notes["off_scale_placements"],
                )
                assert report.notes["skipped_ties"] > 0


def test_criterion_08_seven_sensor_counterexample():
    with criterion(8, "seven-sensor-counterexample", 60.0):
        probes = [
            (0.46, 0.6, (3, 2, 1, 1)),
            (0.48, 0.5, (3, 2, 1, 1)),
            (0.48, 0.6, (2, 2, 2, 1)),
        ]
        for p_f, p_d, expected in probes:
            opt = optimal_placements(7, 8, SensorModel(p_d=p_d, p_f=p_f))
            assert opt.strict and opt.best[0].counts == expected, (p_f, p_d)
        report = verify_counterexample()
        assert report.passed
        assert report.notes["violations_increasing_pf"]
        assert report.notes["violations_increasing_pd"]


def test_criterion_09_monte_carlo_battery():
    with criterion(9, "monte-carlo-cross-validation", 120.0):
        import random

        rng = random.Random(20250809)
        instances = []
        for i in range(20):
            m = rng.randint(2, 6)
            n = rng.randint(m, 8)
            counts = rng.choice(list(enumerate_partitions(m)))
            p_d = rng.uniform(0.05, 0.95)
            p_f = rng.uniform(0.05, 0.95)
            instances.append((counts, n, p_d, p_f, 1000 + i))
        for counts, n, p_d, p_f, seed in instances:
            placement = canonicalize_placement(counts, n)
            model = SensorModel(p_d=p_d, p_f=p_f)
            exact = error_probability(placement, model).value
            result = simulate(placement, model, trials=1_000_000, seed=seed)
            assert abs(result.pe_hat - exact) <= 4 * result.std_err, (
                counts, n, p_d, p_f, seed, result.pe_hat, exact, result.std_err,
            )
        # determinism: seed fixed, thread count varied
        counts, n, p_d, p_f, seed = instances[0]
        placement = canonicalize_placement(counts, n)
        model = SensorModel(p_d=p_d, p_f=p_f)
        serial = simulate(placement, model, trials=1_000_000, seed=seed, threads=1)
        pooled = simulate(placement, model, trials=1_000_000, seed=seed, threads=3)
        repeat = simulate(placement, model, trials=1_000_000, seed=seed, threads=1)
        assert serial == pooled == repeat


FIGURE_INVENTORIES = {
    (3, 3): {(3,), (2, 1)},
    (3, 4): {(3,), (2, 1), (1, 1, 1)},
    (4, 4): {(4,), (3, 1), (2, 2), (2, 1, 1)},
    (4, 5): {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)},
    (5, 6): {(5,), (4, 1), (3, 2), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)},
}


def test_criterion_10_figure_reproduction():
    with criterion(10, "figure-region-maps", None):
        for (m, n), expected in FIGURE_INVENTORIES.items():
            first = sweep_plane(m, n, 0.005)
            second = sweep_plane(m, n, 0.005)
            assert "".join(region_csv_text(first)) == "".join(region_csv_text(second)), (m, n)
            assert first.strict_placements() == expected, (
                m, n, first.strict_placements(),
            )
