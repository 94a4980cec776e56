"""Monte Carlo cross-validation of the exact error-probability evaluator.

Simulates the full generative process: draw the intruder position uniformly,
let every sensor alarm independently (p_d at the intruder's point, p_f
elsewhere), decide with the MAP table, and count mistakes. With the
``uniform_random`` tie rule the estimator is unbiased for the analytic P_e;
``lowest_index`` is an equally optimal deterministic tie break (all tied
hypotheses share the maximum posterior, so the expected error is identical).

Trials are processed in fixed-size chunks whose generators derive from
(seed, chunk index), so the merged counts do not depend on how many workers
process the chunks. Chunk i's generator is seeded with
``SeedSequence(seed, spawn_key=(i,))``, the same child that
``SeedSequence(seed).spawn(...)[i]`` gives, built only when the chunk runs.

Before any chunk runs, ``simulate`` builds its tables once: the decision
table (the argmax set of every observation, padded to n columns, with the
size of each set), and a threshold table of shape (n + 1, m) that holds in
row x the alarm probability of every sensor when the intruder is at x (p_d
on x's block, p_f elsewhere), so a trial's alarms are ``u < thresholds[x]``.

Each worker allocates its buffers once and reuses them for every chunk of
its stripe; per chunk the loop allocates only the positions x. A chunk
draws x, then makes one pass over row blocks of about ``DRAW_BLOCK_ENTRIES``
uniforms: draw the block's uniforms, compare them with the gathered
threshold rows into a float32 alarm block, form each row's observation
index with one ``np.matmul`` by (2^(m-1), ..., 2, 1) (y_1 most significant,
the packing of ``model``; exact, since every partial sum is an integer
below 2^m <= 2^20 < 2^24), and decide: ``uniform_random`` picks a tie by
the flat index obs * n + pick into the decision table, ``lowest_index``
takes the first tie. Count the decisions that miss x.

``Generator.random`` consumes one 64-bit PCG64 output per double, in order,
so the blocks read the same stream as one (chunk size, m) draw. The tie
uniforms come from a second PCG64 generator per worker, set to the chunk
generator's state after the positions and advanced by size * m outputs, so
every chunk makes the same draws as unblocked draws of the positions, the
uniforms and then the ties.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detection import map_decide
from .model import Placement, PmfTable, SensorModel
from .partitions import MAX_M

CHUNK_TRIALS = 1 << 16
DRAW_BLOCK_ENTRIES = 1 << 15  # uniforms per row block: 256 KiB, L2-sized

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

    The decision table (argmax set per observation) and the (n + 1, m) table
    of per-sensor alarm probabilities are built once. Each worker then makes
    one pass over the row blocks of each chunk it runs: per trial a position,
    m uniforms compared against its threshold row, one matmul row for the
    observation index and a table lookup, with tie uniforms from a generator
    advanced past the chunk's alarm uniforms. The counts depend only on
    (placement, model, n, trials, seed, tie_rule), not on ``threads``.
    The decision table has 2^m x n entries, so it may hold no more than at
    ``partitions.MAX_M`` sensors on MAX_M + 1 points; a larger (m, n), or
    m > n, is refused before any table is built.
    """
    n = placement.n if n is None else n
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if tie_rule not in TIE_RULES:
        raise ValueError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    m = placement.m
    if m > n:
        raise ValueError(f"m={m} sensors exceed n={n} points")
    if (1 << m) * n > (1 << MAX_M) * (MAX_M + 1):
        raise ValueError(
            f"m={m}, n={n} exceeds the simulation bound: the decision table has "
            f"2^m x n entries, at most 2^{MAX_M} x {MAX_M + 1}"
        )
    tie_table, tie_len = _decision_tables(placement, model, n)
    # 1-D lookups: the first tie by observation, any tie by obs * n + pick
    first_tie = np.ascontiguousarray(tie_table[:, 0])
    flat_ties = tie_table.ravel()
    thresholds = _alarm_thresholds(placement, model, n)
    weights = _index_weights(m)
    rows = min(max(1, DRAW_BLOCK_ENTRIES // m), CHUNK_TRIALS, trials)  # block rows
    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    workers = max(1, min(threads, n_chunks))

    def run_stripe(first: int) -> int:
        # one task per worker, so a huge chunk count queues no futures; every
        # chunk of the stripe reuses the worker's buffers below
        u, thr = np.empty((rows, m)), np.empty((rows, m))
        alarms, obs = np.empty((rows, m), np.float32), np.empty(rows, np.float32)
        index, pick, lens = (np.empty(rows, dtype=np.int64) for _ in range(3))
        r, miss = np.empty(rows), np.empty(rows, dtype=bool)
        tie_rng = np.random.Generator(np.random.PCG64(seed))  # state set per chunk
        errors = 0
        for i in range(first, n_chunks, workers):
            size = min(CHUNK_TRIALS, trials - i * CHUNK_TRIALS)
            bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,)))
            rng = np.random.Generator(bitgen)
            x = rng.integers(1, n + 1, size=size, dtype=np.int64)
            if tie_rule == "uniform_random":
                tie_rng.bit_generator.state = bitgen.state
                tie_rng.bit_generator.advance(size * m)
            # every np.take below uses mode="clip", which writes straight into
            # out (the indices are in range); the default "raise" buffers a copy
            for lo in range(0, size, rows):
                b = min(rows, size - lo)
                rng.random(out=u[:b])
                np.take(thresholds, x[lo : lo + b], axis=0, out=thr[:b], mode="clip")
                np.less(u[:b], thr[:b], out=alarms[:b])
                np.matmul(alarms[:b], weights, out=obs[:b])
                np.copyto(index[:b], obs[:b], casting="unsafe")
                if tie_rule == "uniform_random":
                    np.take(tie_len, index[:b], out=lens[:b], mode="clip")
                    tie_rng.random(out=r[:b])
                    np.multiply(r[:b], lens[:b], out=r[:b])
                    # truncates, as astype; pick < lens, since r is a multiple of
                    # 2^-53 below 1 and lens < 2^53, so r * lens rounds below lens
                    np.copyto(pick[:b], r[:b], casting="unsafe")
                    np.multiply(index[:b], n, out=index[:b])
                    np.add(index[:b], pick[:b], out=index[:b])
                    np.take(flat_ties, index[:b], out=pick[:b], mode="clip")
                else:
                    np.take(first_tie, index[:b], out=pick[:b], mode="clip")
                np.not_equal(pick[:b], x[lo : lo + b], out=miss[:b])
                errors += int(np.count_nonzero(miss[:b]))
            del x  # so the next chunk's positions do not coexist with these
        return errors

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            errors = sum(pool.map(run_stripe, range(workers)))
    else:
        errors = run_stripe(0)

    pe_hat = errors / trials
    std_err = math.sqrt(pe_hat * (1.0 - pe_hat) / trials)
    return SimResult(
        trials=trials, errors=errors, pe_hat=pe_hat, std_err=std_err, seed=seed
    )


def _alarm_thresholds(placement: Placement, model: SensorModel, n: int) -> np.ndarray:
    """(n + 1, m) alarm probabilities: row x is p_d on x's block, p_f elsewhere.

    Row 0 is unused (positions are 1-based); rows past the occupied points
    are all p_f.
    """
    point_of_sensor = np.repeat(
        np.arange(1, placement.k + 1, dtype=np.int64), placement.counts
    )
    at_x = np.arange(n + 1, dtype=np.int64)[:, None] == point_of_sensor[None, :]
    return np.where(at_x, model.p_d, model.p_f)


def _index_weights(m: int) -> np.ndarray:
    """float32 (2^(m-1), ..., 2, 1): alarms @ weights is the observation index."""
    return (2.0 ** np.arange(m - 1, -1, -1)).astype(np.float32)


def _decision_tables(placement: Placement, model: SensorModel, n: int):
    """Padded argmax-set table (2^m, n) and tie-set sizes per observation."""
    m = placement.m
    table = PmfTable.build(placement, model, n)
    tie_table = np.zeros((1 << m, n), dtype=np.int64)
    tie_len = np.zeros(1 << m, dtype=np.int64)
    for y in range(1 << m):
        ties = sorted(map_decide(y, table))
        tie_len[y] = len(ties)
        tie_table[y, : len(ties)] = ties
    return tie_table, tie_len
