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
its stripe: a (rows, m) block of uniforms and one of thresholds, a bool
alarm buffer, a chunk-length array of packed observations, and block-length
integer, float and bool scratch. Per block the loop allocates only the
packed bytes that ``np.packbits`` returns, one byte per 8 alarm columns;
per chunk, only the positions. A chunk then runs in three steps:

* draw the positions x, one per trial;
* for each row block of about ``DRAW_BLOCK_ENTRIES`` uniforms: draw the
  uniforms into the block with ``rng.random(out=...)``, gather the threshold
  rows of the block's positions with ``np.take``, and compare into the last m
  columns of the alarm buffer, whose width is m rounded up to 8, 16, 32 or 64
  bits with the leading columns left False; ``np.packbits`` over the flat
  buffer, read as big-endian unsigned integers of that width, gives each
  row's observation index with y_1 most significant, as in
  ``model.observation_index``, and is stored into the chunk's array;
* after all alarm blocks, for each block again: with ``uniform_random``, draw
  the block's tie uniforms and pick a tie by the flat index obs * n + pick
  into the decision table; with ``lowest_index``, look up the first tie of
  each observation. Count the decisions that miss x.

``Generator.random`` consumes one 64-bit output per double, in order, so the
uniform blocks read the same stream as one (chunk size, m) draw, and the tie
blocks the same as one draw of chunk size. The positions come first, then the
uniform blocks, then the tie blocks, so every chunk makes the same draws, in
the same order, as a single unblocked draw of each would.
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

    The decision table (argmax set per observation) is built once from the
    exact pmf, and so is the (n + 1, m) table of per-sensor alarm
    probabilities for each intruder position. Each trial then only needs a
    position, m uniforms compared against its threshold row, the packed
    observation index and a table lookup. Each worker reuses one set of
    buffers for every block of every chunk it runs; the tie uniforms of a
    chunk are drawn block by block after all its alarm blocks, which reads
    the same stream as one draw. The counts depend only on
    (placement, model, n, trials, seed, tie_rule), not on ``threads``.
    The decision table has 2^m x n entries, so it may hold no more than at
    ``partitions.MAX_M`` sensors on MAX_M + 1 points; a larger (m, n) is
    refused before any table is built.
    """
    n = placement.n if n is None else n
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if tie_rule not in TIE_RULES:
        raise ValueError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
    m = placement.m
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
    block_rows = max(1, DRAW_BLOCK_ENTRIES // m)
    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    workers = max(1, min(threads, n_chunks))

    def run_stripe(first: int) -> int:
        # one task per worker, so a huge chunk count queues no futures; every
        # chunk of the stripe reuses the worker's buffers below
        rows = min(block_rows, CHUNK_TRIALS, trials)
        buffer = _alarm_buffer(rows, m)
        u, thr = np.empty((rows, m)), np.empty((rows, m))
        obs = np.empty(min(CHUNK_TRIALS, trials), dtype=_packed_dtype(buffer))
        index, pick, lens = (np.empty(rows, dtype=np.int64) for _ in range(3))
        r, miss = np.empty(rows), np.empty(rows, dtype=bool)
        errors = 0
        for i in range(first, n_chunks, workers):
            size = min(CHUNK_TRIALS, trials - i * CHUNK_TRIALS)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            x = rng.integers(1, n + 1, size=size, dtype=np.int64)
            blocks = [(lo, min(lo + rows, size)) for lo in range(0, size, rows)]
            # every np.take below uses mode="clip", which writes straight into
            # out (the indices are in range); the default "raise" buffers a copy
            for lo, hi in blocks:
                b = hi - lo
                rng.random(out=u[:b])
                np.take(thresholds, x[lo:hi], axis=0, out=thr[:b], mode="clip")
                np.less(u[:b], thr[:b], out=buffer[:b, -m:])
                obs[lo:hi] = _pack_alarms(buffer[:b])
            for lo, hi in blocks:
                b = hi - lo
                np.copyto(index[:b], obs[lo:hi])
                if tie_rule == "uniform_random":
                    np.take(tie_len, index[:b], out=lens[:b], mode="clip")
                    rng.random(out=r[:b])
                    np.multiply(r[:b], lens[:b], out=r[:b])
                    # truncates, as astype; pick < lens, since r is a multiple of
                    # 2^-53 below 1 and lens < 2^53, so r * lens rounds below lens
                    np.copyto(pick[:b], r[:b], casting="unsafe")
                    np.multiply(index[:b], n, out=index[:b])
                    np.add(index[:b], pick[:b], out=index[:b])
                    np.take(flat_ties, index[:b], out=pick[:b], mode="clip")
                else:
                    np.take(first_tie, index[:b], out=pick[:b], mode="clip")
                np.not_equal(pick[:b], x[lo:hi], out=miss[:b])
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


def _alarm_buffer(rows: int, m: int) -> np.ndarray:
    """Zeroed (rows, width) bool buffer, width = m rounded up to 8, 16, 32 or 64.

    Alarms (y_1, ..., y_m) go in the last m columns; the leading pad columns
    stay False, so each packed row is a big-endian unsigned integer.
    """
    width = 8
    while width < m:
        width *= 2
    return np.zeros((rows, width), dtype=bool)


def _packed_dtype(buffer: np.ndarray) -> np.dtype:
    """Big-endian unsigned integer as wide as a row of an ``_alarm_buffer``."""
    return np.dtype(f">u{buffer.shape[1] // 8}")


def _pack_alarms(buffer: np.ndarray) -> np.ndarray:
    """Observation index of each row of an ``_alarm_buffer``, y_1 most significant.

    The indices come back in ``_packed_dtype(buffer)``, a view of the packed
    bytes, so storing them into an array of that dtype copies no more.
    """
    packed = np.packbits(buffer)  # flat and big-endian: one byte per 8 columns
    return packed.view(_packed_dtype(buffer))


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
