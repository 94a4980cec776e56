"""Monte Carlo estimator: agreement with the exact evaluator and determinism."""

import random

import numpy as np
import pytest

from placedet import (
    SensorModel,
    canonicalize_placement,
    enumerate_partitions,
    error_probability,
    map_decide,
    observation_index,
    simulate,
)
from placedet import montecarlo
from placedet.detection import MAX_SEARCH_M
from placedet.montecarlo import _alarm_buffer, _decision_tables, _pack_alarms


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
    placement = canonicalize_placement(counts, n=n)
    model = SensorModel(p_d=p_d, p_f=p_f)
    result = simulate(
        placement, model, trials=trials, seed=11, tie_rule=tie_rule, threads=threads
    )
    assert result.errors == errors


@pytest.mark.parametrize("block_entries", [1, 37, 1 << 30])
def test_draw_block_size_does_not_change_counts(monkeypatch, block_entries):
    placement = canonicalize_placement([3, 2, 1], n=7)
    model = SensorModel(p_d=0.65, p_f=0.3)
    default = simulate(placement, model, trials=70_001, seed=4)
    monkeypatch.setattr(montecarlo, "DRAW_BLOCK_ENTRIES", block_entries)
    assert simulate(placement, model, trials=70_001, seed=4) == default


@pytest.mark.parametrize("m", [1, 7, 8, 9, 15, 16, 17, 20])
def test_pack_alarms_matches_observation_index(m):
    rng = np.random.default_rng(m)
    bits = rng.random((200, m)) < 0.5
    bits = np.vstack([bits, np.zeros((1, m), bool), np.ones((1, m), bool)])
    buffer = _alarm_buffer(len(bits), m)
    assert buffer.shape[1] in (8, 16, 32, 64) and m <= buffer.shape[1] < max(2 * m, 9)
    buffer[:, -m:] = bits
    packed = _pack_alarms(buffer)
    assert packed.dtype == np.int64
    assert packed.tolist() == [observation_index(row.tolist()) for row in bits]
    assert packed[-2] == 0 and packed[-1] == (1 << m) - 1


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
    placement = canonicalize_placement([MAX_SEARCH_M + 1], n=MAX_SEARCH_M + 1)
    with pytest.raises(ValueError, match="exceeds"):
        simulate(placement, model, trials=10, seed=1)


def test_matches_exact_value_two_sensors():
    placement = canonicalize_placement([2], n=2)
    model = SensorModel(p_d=0.6, p_f=0.2)
    result = simulate(placement, model, trials=1_000_000, seed=11)
    assert result.trials == 1_000_000
    assert abs(result.pe_hat - 0.26) <= 4 * result.std_err


def test_uninformative_four_points():
    placement = canonicalize_placement([2, 1], n=4)
    model = SensorModel(p_d=0.35, p_f=0.35)
    result = simulate(placement, model, trials=500_000, seed=5)
    assert abs(result.pe_hat - 0.75) <= 4 * result.std_err


def test_same_seed_same_result():
    placement = canonicalize_placement([2, 1, 1], n=5)
    model = SensorModel(p_d=0.8, p_f=0.3)
    a = simulate(placement, model, trials=200_000, seed=99)
    b = simulate(placement, model, trials=200_000, seed=99)
    assert a == b


def test_thread_count_does_not_change_counts():
    placement = canonicalize_placement([3, 1], n=5)
    model = SensorModel(p_d=0.7, p_f=0.25)
    serial = simulate(placement, model, trials=300_000, seed=123, threads=1)
    for threads in (0, 2, 4, 7):  # 5 chunks, so 7 is capped at 5 workers
        pooled = simulate(placement, model, trials=300_000, seed=123, threads=threads)
        assert serial == pooled


def test_chunk_boundary_sizes():
    placement = canonicalize_placement([2], n=3)
    model = SensorModel(p_d=0.9, p_f=0.2)
    exact = error_probability(placement, model).value
    for trials in (1, 65_536, 65_537, 131_072 + 17):
        result = simulate(placement, model, trials=trials, seed=3)
        assert 0 <= result.errors <= trials
        if trials > 10_000:
            assert abs(result.pe_hat - exact) <= 5 * result.std_err


def test_lowest_index_tie_rule_also_optimal():
    placement = canonicalize_placement([2, 2], n=5)
    model = SensorModel(p_d=0.75, p_f=0.3)
    exact = error_probability(placement, model).value
    result = simulate(
        placement, model, trials=400_000, seed=21, tie_rule="lowest_index"
    )
    assert result.pe_hat <= exact + 4 * result.std_err


def test_validation_errors():
    placement = canonicalize_placement([2], n=2)
    model = SensorModel(p_d=0.6, p_f=0.2)
    with pytest.raises(ValueError):
        simulate(placement, model, trials=0, seed=1)
    with pytest.raises(ValueError):
        simulate(placement, model, trials=10, seed=1, tie_rule="coin_flip")


def test_std_err_formula():
    placement = canonicalize_placement([1, 1], n=2)
    model = SensorModel(p_d=0.9, p_f=0.1)
    result = simulate(placement, model, trials=10_000, seed=7)
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
        placement = canonicalize_placement(counts, n=rng.randint(m, m + 2))
        n = placement.n + rng.randint(0, 1)
        tie_table, tie_len = _decision_tables(placement, model, n)
        assert tie_table.shape == (1 << m, n)
        for y in range(1 << m):
            ties = sorted(map_decide(y, placement, model, n))
            assert tie_len[y] == len(ties)
            assert tie_table[y].tolist() == ties + [0] * (n - len(ties))
