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

The draw loop of a chunk works as follows:

* a threshold table of shape (n + 1, m), built once per ``simulate``, holds
  in row x the alarm probability of every sensor when the intruder is at x
  (p_d on x's block, p_f elsewhere), so a trial's alarms are
  ``u < thresholds[x]``;
* the comparison writes each row of alarms into the last m columns of a
  bool buffer whose width is m rounded up to 8, 16, 32 or 64 bits, with the
  leading columns left False; ``np.packbits`` over the flat buffer, read as
  big-endian unsigned integers of that width, gives each row's observation
  index with y_1 most significant, as in ``model.observation_index``;
* the uniforms ``u`` are drawn in row blocks of about ``DRAW_BLOCK_ENTRIES``
  values so the temporaries stay in cache.

``Generator.random`` consumes one 64-bit output per double, in order, so the
row blocks read the same stream as one (chunk size, m) draw. The positions are
drawn before the blocks and the tie draws after them, so every chunk makes
the same draws, in the same order, as a single unblocked draw would.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .detection import MAX_SEARCH_M, map_decide
from .model import Placement, PmfTable, SensorModel

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
    observation index and a table lookup. The counts depend only on
    (placement, model, n, trials, seed, tie_rule), not on ``threads``.
    Placements of more than ``detection.MAX_SEARCH_M`` sensors are refused
    before any table is built, since the decision table has 2^m rows.
    """
    n = placement.n if n is None else n
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if tie_rule not in TIE_RULES:
        raise ValueError(f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}")
    m = placement.m
    if m > MAX_SEARCH_M:
        raise ValueError(
            f"m={m} exceeds the simulation bound {MAX_SEARCH_M}: "
            "the decision table has 2^m rows"
        )
    tie_table, tie_len = _decision_tables(placement, model, n)
    thresholds = _alarm_thresholds(placement, model, n)
    block_rows = max(1, DRAW_BLOCK_ENTRIES // m)
    n_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS

    def run_chunk(i: int) -> int:
        size = min(CHUNK_TRIALS, trials - i * CHUNK_TRIALS)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        x = rng.integers(1, n + 1, size=size, dtype=np.int64)
        obs = np.empty(size, dtype=np.int64)
        buffer = _alarm_buffer(min(block_rows, size), m)
        alarms = buffer[:, -m:]
        for lo in range(0, size, block_rows):
            hi = min(lo + block_rows, size)
            u = rng.random((hi - lo, m))
            np.less(u, thresholds[x[lo:hi]], out=alarms[: hi - lo])
            obs[lo:hi] = _pack_alarms(buffer[: hi - lo])
        if tie_rule == "uniform_random":
            lens = tie_len[obs]
            # the product can round up to lens when r is within an ulp of 1
            pick = np.minimum((rng.random(size) * lens).astype(np.int64), lens - 1)
        else:
            pick = np.zeros(size, dtype=np.int64)
        decision = tie_table[obs, pick]
        return int((decision != x).sum())

    workers = max(1, min(threads, n_chunks))

    def run_stripe(first: int) -> int:
        # one task per worker, so a huge chunk count queues no futures
        return sum(run_chunk(i) for i in range(first, n_chunks, workers))

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


def _pack_alarms(buffer: np.ndarray) -> np.ndarray:
    """Observation index of each row of an ``_alarm_buffer``, y_1 most significant."""
    packed = np.packbits(buffer)  # flat and big-endian: one byte per 8 columns
    return packed.view(f">u{buffer.shape[1] // 8}").astype(np.int64)


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
