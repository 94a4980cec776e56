"""Monte Carlo estimator: agreement with the exact evaluator and determinism."""

import random
import tracemalloc

import numpy as np
import pytest
from oracles import observation_index, simulate_errors_unblocked

from placedet import (
    Placement,
    PmfTable,
    SensorModel,
    canonicalize_placement,
    enumerate_partitions,
    error_probability,
    map_decide,
    simulate,
)
from placedet import montecarlo
from placedet.detection import MAP_TIE_RTOL
from placedet.montecarlo import CHUNK_TRIALS, _decision_tables, _index_weights
from placedet.partitions import MAX_M


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "counts, n, p_d, p_f, trials, tie_rule, errors",
    [
        ((3, 2, 2, 1, 1), 10, 0.7, 0.2, 1_000_003, "uniform_random", 663491),
        ((5, 3), 9, 0.7, 0.2, 1_000_003, "lowest_index", 729448),
        ((2, 2, 2, 2, 1), 11, 0.5, 0.5, 1_000_003, "uniform_random", 909418),
        ((4, 4, 4, 4), 17, 0.7, 0.2, 200_000, "lowest_index", 155829),
    ],
)
def test_golden_error_counts(counts, n, p_d, p_f, trials, tie_rule, errors, threads):
    # pins the random stream: m = 9 crosses a byte boundary, m = 8 fills one
    # byte, p_d = p_f ties every hypothesis, m = 16 spans two bytes
    placement = canonicalize_placement(counts)
    model = SensorModel(p_d=p_d, p_f=p_f)
    result = simulate(
        placement, model, n, trials=trials, seed=11, tie_rule=tie_rule, threads=threads
    )
    assert result.errors == errors


# (counts, n) per m: m = 8 fills a byte, 9 and 17 cross one
_ORACLE_PLACEMENTS = {1: ((1,), 3), 8: ((3, 2, 2, 1), 9), 9: ((3, 2, 2, 1, 1), 10),
                      17: ((5, 4, 3, 3, 2), 18)}
# (m, p_d, p_f): informative models, the corners with p in {0, 1} and the
# p_d = p_f diagonal; at m = 17 false alarms stay rare so that few distinct
# observations need an oracle decision
_ORACLE_MODELS = [
    (1, 0.7, 0.2), (1, 1.0, 0.0), (1, 0.0, 0.0), (1, 0.4, 0.4),
    (8, 0.8, 0.15), (8, 0.0, 1.0), (8, 0.5, 0.5),
    (9, 0.7, 0.2), (9, 1.0, 1.0), (9, 0.3, 0.3),
    (17, 0.9, 0.02), (17, 0.03, 0.03),
]


@pytest.fixture(scope="module")
def shared_decision_tables():
    """``_decision_tables`` built once per (placement, model, n) in this module.

    The m = 17 table takes over a second to build, and each oracle case
    calls ``simulate`` twelve times on the same inputs.
    """
    tables = {}

    def build(placement, model, n):
        key = (placement, model, n)
        if key not in tables:
            tables[key] = _decision_tables(placement, model, n)
        return tables[key]

    return build


@pytest.mark.parametrize("tie_rule", ["uniform_random", "lowest_index"])
@pytest.mark.parametrize("m, p_d, p_f", _ORACLE_MODELS)
def test_counts_match_unblocked_oracle(
    monkeypatch, shared_decision_tables, m, p_d, p_f, tie_rule
):
    # the blocked loop makes the draws of one unblocked draw per chunk, and
    # its table lookups decide as the per-observation likelihood argmax does
    monkeypatch.setattr(montecarlo, "_decision_tables", shared_decision_tables)
    counts, n = _ORACLE_PLACEMENTS[m]
    placement = canonicalize_placement(counts)
    model = SensorModel(p_d=p_d, p_f=p_f)
    block_rows = max(1, montecarlo.DRAW_BLOCK_ENTRIES // m)
    for trials in (1, block_rows - 1, block_rows + 1, CHUNK_TRIALS + 5):
        seed = 1000 * m + trials
        expected = simulate_errors_unblocked(
            counts, n, p_d, p_f, trials, seed, tie_rule, CHUNK_TRIALS, MAP_TIE_RTOL
        )
        for threads in (1, 2, 3):
            result = simulate(
                placement, model, n, trials=trials, seed=seed, tie_rule=tie_rule,
                threads=threads,
            )
            assert result.errors == expected, (trials, threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_draw_loop_memory_is_bounded_per_worker(threads):
    # the per-worker buffers take about 1.4 MiB at m = 9; a loop that
    # allocates its temporaries per block or per chunk peaks above 2 MiB
    placement = canonicalize_placement((3, 2, 2, 1, 1))
    model = SensorModel(p_d=0.7, p_f=0.2)
    tracemalloc.start()
    try:
        simulate(placement, model, 10, trials=1_000_000, seed=5, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= threads * 2 * 2**20


@pytest.mark.parametrize("block_entries", [1, 37, 1 << 30])
def test_draw_block_size_does_not_change_counts(monkeypatch, block_entries):
    placement = canonicalize_placement([3, 2, 1])
    model = SensorModel(p_d=0.65, p_f=0.3)
    default = simulate(placement, model, 7, trials=70_001, seed=4)
    monkeypatch.setattr(montecarlo, "DRAW_BLOCK_ENTRIES", block_entries)
    assert simulate(placement, model, 7, trials=70_001, seed=4) == default


@pytest.mark.parametrize("m", range(1, MAX_M + 1))
def test_index_weights_match_observation_index(m):
    # every alarm vector up to m = 10, then 10^4 random ones; the float32
    # alarms and the matmul are the draw loop's
    if m <= 10:
        y = np.arange(1 << m)
        bits = (y[:, None] >> np.arange(m - 1, -1, -1)) & 1 == 1
    else:
        bits = np.random.default_rng(m).random((10_000, m)) < 0.5
        bits[:2] = [[False] * m, [True] * m]
    alarms = bits.astype(np.float32)
    index = np.matmul(alarms, _index_weights(m)).astype(np.int64)
    assert index.tolist() == [observation_index(row.tolist()) for row in bits]


def test_lazy_chunk_seed_equals_spawned_child():
    for seed in (0, 11, 2**40 + 3):
        children = np.random.SeedSequence(seed).spawn(40)
        for i in (0, 1, 17, 39):
            lazy = np.random.SeedSequence(seed, spawn_key=(i,))
            a = np.random.default_rng(children[i]).random(8)
            b = np.random.default_rng(lazy).random(8)
            assert np.array_equal(a, b)


def test_refuses_too_many_sensors_before_building_tables(monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("decision table built")

    monkeypatch.setattr(montecarlo, "_decision_tables", no_tables)
    model = SensorModel(p_d=0.7, p_f=0.2)
    placement = canonicalize_placement([MAX_M + 1])
    with pytest.raises(ValueError, match="exceeds"):
        simulate(placement, model, MAX_M + 1, trials=10, seed=1)
    # more sensors than the simulation's points
    with pytest.raises(ValueError, match="m=3 sensors exceed n=2 points"):
        simulate(Placement((3,)), model, n=2, trials=10, seed=1)


def test_decision_table_bound_edges(monkeypatch):
    # the 2^m x n table may hold as many entries as at MAX_M sensors on MAX_M + 1 points
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(montecarlo, "_decision_tables", admitted)
    model = SensorModel(p_d=0.7, p_f=0.2)
    edge = (1 << MAX_M) * (MAX_M + 1)
    for counts, n in (([MAX_M], MAX_M + 1), ([1], edge // 2)):
        with pytest.raises(Admitted):
            simulate(canonicalize_placement(counts), model, n=n, trials=10)
    for counts, n in (([MAX_M], MAX_M + 2), ([1], edge // 2 + 1)):
        with pytest.raises(ValueError, match="exceeds"):
            simulate(canonicalize_placement(counts), model, n=n, trials=10)


def test_matches_exact_value_two_sensors():
    placement = canonicalize_placement([2])
    model = SensorModel(p_d=0.6, p_f=0.2)
    result = simulate(placement, model, 2, trials=1_000_000, seed=11)
    assert result.trials == 1_000_000
    assert abs(result.pe_hat - 0.26) <= 4 * result.std_err


def test_uninformative_four_points():
    placement = canonicalize_placement([2, 1])
    model = SensorModel(p_d=0.35, p_f=0.35)
    result = simulate(placement, model, 4, trials=500_000, seed=5)
    assert abs(result.pe_hat - 0.75) <= 4 * result.std_err


def test_same_seed_same_result():
    placement = canonicalize_placement([2, 1, 1])
    model = SensorModel(p_d=0.8, p_f=0.3)
    a = simulate(placement, model, 5, trials=200_000, seed=99)
    b = simulate(placement, model, 5, trials=200_000, seed=99)
    assert a == b


def test_thread_count_does_not_change_counts():
    placement = canonicalize_placement([3, 1])
    model = SensorModel(p_d=0.7, p_f=0.25)
    serial = simulate(placement, model, 5, trials=300_000, seed=123, threads=1)
    for threads in (0, 2, 4, 7):  # 5 chunks, so 7 is capped at 5 workers
        pooled = simulate(placement, model, 5, trials=300_000, seed=123, threads=threads)
        assert serial == pooled


def test_chunk_boundary_sizes():
    placement = canonicalize_placement([2])
    model = SensorModel(p_d=0.9, p_f=0.2)
    exact = error_probability(placement, model, 3).value
    for trials in (1, 65_536, 65_537, 131_072 + 17):
        result = simulate(placement, model, 3, trials=trials, seed=3)
        assert 0 <= result.errors <= trials
        if trials > 10_000:
            assert abs(result.pe_hat - exact) <= 5 * result.std_err


def test_lowest_index_tie_rule_also_optimal():
    placement = canonicalize_placement([2, 2])
    model = SensorModel(p_d=0.75, p_f=0.3)
    exact = error_probability(placement, model, 5).value
    result = simulate(
        placement, model, 5, trials=400_000, seed=21, tie_rule="lowest_index"
    )
    assert result.pe_hat <= exact + 4 * result.std_err


def test_validation_errors():
    placement = canonicalize_placement([2])
    model = SensorModel(p_d=0.6, p_f=0.2)
    with pytest.raises(ValueError):
        simulate(placement, model, 2, trials=0, seed=1)
    with pytest.raises(ValueError):
        simulate(placement, model, 2, trials=10, seed=1, tie_rule="coin_flip")


def test_std_err_formula():
    placement = canonicalize_placement([1, 1])
    model = SensorModel(p_d=0.9, p_f=0.1)
    result = simulate(placement, model, 2, trials=10_000, seed=7)
    expected = (result.pe_hat * (1 - result.pe_hat) / result.trials) ** 0.5
    assert result.std_err == pytest.approx(expected, rel=1e-12)


def test_decision_table_matches_per_observation_map_decide():
    rng = random.Random(31)
    models = [
        SensorModel(p_d=1.0, p_f=0.0),
        SensorModel(p_d=0.0, p_f=1.0),
        SensorModel(p_d=1.0, p_f=1.0),
        SensorModel(p_d=0.0, p_f=0.0),
        SensorModel(p_d=0.45, p_f=0.45),
    ]
    models += [SensorModel(p_d=rng.random(), p_f=rng.random()) for _ in range(5)]
    for model, m in zip(models, (7, 3, 5, 6, 4, 7, 2, 6, 1, 5)):
        counts = rng.choice(list(enumerate_partitions(m)))
        placement, n = canonicalize_placement(counts), rng.randint(m, m + 2)
        n += rng.randint(0, 1)
        tie_table, tie_len = _decision_tables(placement, model, n)
        assert tie_table.shape == (1 << m, n)
        table = PmfTable.build(placement, model, n)
        for y in range(1 << m):
            ties = sorted(map_decide(y, table))
            assert tie_len[y] == len(ties)
            assert tie_table[y].tolist() == ties + [0] * (n - len(ties))
