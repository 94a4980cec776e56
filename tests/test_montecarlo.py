"""Monte Carlo estimator: agreement with the exact evaluator and determinism."""

import random

import pytest

from placedet import (
    SensorModel,
    canonicalize_placement,
    enumerate_partitions,
    error_probability,
    map_decide,
    simulate,
)
from placedet.montecarlo import _decision_tables


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
    pooled = simulate(placement, model, trials=300_000, seed=123, threads=4)
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
