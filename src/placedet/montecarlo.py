"""Monte Carlo cross-validation of the exact error-probability evaluator.

Simulates the full generative process: draw the intruder position uniformly,
let every sensor alarm independently (p_d at the intruder's point, p_f
elsewhere), decide with the MAP table, and count mistakes. With the
``uniform_random`` tie rule the estimator is unbiased for the analytic P_e;
``lowest_index`` is an equally optimal deterministic tie break (all tied
hypotheses share the maximum posterior, so the expected error is identical).

Trials are processed in fixed-size chunks whose generators derive from
(seed, chunk index), so the merged counts do not depend on how many workers
process the chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detection import map_decide
from .model import Placement, PmfTable, SensorModel

CHUNK_TRIALS = 1 << 16

TIE_RULES = ("uniform_random", "lowest_index")


@dataclass(frozen=True)
class SimResult:
    trials: int
    errors: int
    pe_hat: float
    std_err: float
    seed: int


def simulate(
    placement: Placement,
    model: SensorModel,
    n: int | None = None,
    trials: int = 1_000_000,
    seed: int = 0,
    tie_rule: str = "uniform_random",
    threads: int = 1,
) -> SimResult:
    """Estimate P_e by simulation; reproducible for a given seed.

    The decision table (argmax set per observation) is built once from the
    exact pmf; each trial then only needs alarm draws and a table lookup.
    """
    n = placement.n if n is None else n
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if tie_rule not in TIE_RULES:
        raise ValueError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
    m = placement.m
    tie_table, tie_len = _decision_tables(placement, model, n)
    point_of_sensor = np.repeat(
        np.arange(1, placement.k + 1, dtype=np.int64), placement.counts
    )
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)

    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)

    def run_chunk(i: int) -> int:
        size = min(CHUNK_TRIALS, trials - i * CHUNK_TRIALS)
        rng = np.random.default_rng(seeds[i])
        x = rng.integers(1, n + 1, size=size, dtype=np.int64)
        u = rng.random((size, m))
        prob = np.where(point_of_sensor[None, :] == x[:, None], model.p_d, model.p_f)
        obs = ((u < prob).astype(np.int64) * weights[None, :]).sum(axis=1)
        if tie_rule == "uniform_random":
            lens = tie_len[obs]
            # the product can round up to lens when r is within an ulp of 1
            pick = np.minimum((rng.random(size) * lens).astype(np.int64), lens - 1)
        else:
            pick = np.zeros(size, dtype=np.int64)
        decision = tie_table[obs, pick]
        return int((decision != x).sum())

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            errors = sum(pool.map(run_chunk, range(n_chunks)))
    else:
        errors = sum(run_chunk(i) for i in range(n_chunks))

    pe_hat = errors / trials
    std_err = math.sqrt(pe_hat * (1.0 - pe_hat) / trials)
    return SimResult(
        trials=trials, errors=errors, pe_hat=pe_hat, std_err=std_err, seed=seed
    )


def _decision_tables(placement: Placement, model: SensorModel, n: int):
    """Padded argmax-set table (2^m, n) and tie-set sizes per observation."""
    m = placement.m
    table = PmfTable.build(placement, model, n)
    tie_table = np.zeros((1 << m, n), dtype=np.int64)
    tie_len = np.zeros(1 << m, dtype=np.int64)
    for y in range(1 << m):
        ties = sorted(map_decide(y, placement, model, n, table=table))
        tie_len[y] = len(ties)
        tie_table[y, : len(ties)] = ties
    return tie_table, tie_len
