"""Exact error-probability evaluation and brute-force optimal placement search.

Under a uniform prior the Bayes-optimal detector is the MAP rule, and its
error probability for a placement v over n points is

    P_e(v) = (1/n) * sum_y min_i sum_{j != i} p_j(y)
           = (1/n) * sum_y [ S(y) - max_j p_j(y) ]

since dropping the largest term minimizes the leave-one-out sum. p_j(y)
depends on y only through the per-block alarm counts, and equal blocks are
interchangeable, so the sum runs over count classes (multisets of per-block
alarm counts) weighted by their number of alarm vectors: M + 1 classes for
the placement 1^M, at most 2^M. S adds the occupied rows once each and the
shared empty-point row n - k times, in a fixed order, so results are
reproducible bit-for-bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ObservationIndex,
    Placement,
    PmfTable,
    SensorModel,
    block_exponents,
    canonicalize_placement,
    likelihoods,
    power_table,
)
from .partitions import enumerate_partitions

TIE_EPS = 1e-9
"""Absolute P_e gap below which placements are reported as tied.

Exact P_e values are sums over at most 2^m count classes, each an integer
weight times a few double products, so round-off sits many orders below
this; genuine region boundaries are exact tie loci and must surface as ties
instead of being broken by noise.
"""

MAX_SEARCH_M = 20  # each partition costs one term per count class; refuse beyond desk scale

GRID_CHUNK_ENTRIES = 1 << 16
"""Rows x classes x nodes per slice in :func:`error_probability_grid`.

Each (rows, classes, nodes) temporary holds at most this many floats
(512 KiB), whatever the grid size; e.g. 227 nodes at a time for the 288
row-class pairs of (3,2,1,1,1) on 9 points, and 8192 for (3,) on 4 points.
Temporaries of this size stay in cache, which made M = 8 and small-M
sweeps faster than one whole-grid slice.
"""

MAP_TIE_RTOL = 1e-12
"""Relative slack when collecting MAP argmax ties.

Likelihoods of hypotheses that tie analytically (e.g. at p_d = p_f) are
computed through different multiplication orders and can differ by a few ulp;
this tolerance re-unites them without ever bridging genuine gaps.
"""


@dataclass(frozen=True)
class ErrorProbability:
    """Exact P_e of the MAP detector for one placement/model/point-count."""

    value: float
    placement: Placement
    model: SensorModel
    n: int


@dataclass(frozen=True)
class Optimum:
    """Tie-aware argmin over all placements of m sensors.

    ``best`` lists every placement within TIE_EPS of the minimum, in
    enumeration order. ``margin`` is the gap from the minimum to the best
    non-tied competitor (+inf when none exists, e.g. a full tie at
    p_d = p_f or a single-partition search). ``strict`` marks a unique
    minimizer with positive margin.
    """

    best: tuple[Placement, ...]
    pe_min: float
    margin: float
    strict: bool


def count_classes(counts: tuple[int, ...], n: int):
    """``(exponents, mult, weight)`` of the count classes of ``counts`` over n points.

    ``exponents`` (4, rows, classes) holds the powers of p_d, 1-p_d, p_f and
    1-p_f in each row's likelihood of each class; rows are the blocks of
    ``counts`` in order, then the shared empty row when n > k. ``mult`` is the
    hypotheses per row, ``weight`` the alarm vectors per class (sum 2^m).
    """
    k = len(counts)
    # per run of g equal blocks of size v: every multiset of own-block alarm
    # counts, weighted by its arrangements times prod C(v, a)
    runs = []
    for v, blocks in itertools.groupby(counts):
        g = len(list(blocks))
        runs.append([
            (alarms, math.factorial(g)
             // math.prod(math.factorial(alarms.count(a)) for a in set(alarms))
             * math.prod(math.comb(v, a) for a in alarms))
            for alarms in itertools.combinations_with_replacement(range(v + 1), g)
        ])
    combos = list(itertools.product(*runs))
    a = np.array([[x for alarms, _ in c for x in alarms] for c in combos], dtype=np.intp).T
    exponents = block_exponents(a, counts, n)
    mult = np.where(np.arange(exponents.shape[1]) < k, 1.0, n - k)
    weight = np.array([math.prod(w for _, w in c) for c in combos], dtype=float)
    return exponents, mult, weight


def class_count(counts: tuple[int, ...]) -> int:
    """Number of count classes of ``counts``, without listing them.

    A run of g equal blocks of size v contributes the multisets of g
    own-block alarm counts from 0..v, C(v + g, g) of them.
    """
    return math.prod(
        math.comb(v + g, g)
        for v, g in ((v, len(list(blocks))) for v, blocks in itertools.groupby(counts))
    )


def error_probability(
    placement: Placement, model: SensorModel, n: int | None = None
) -> ErrorProbability:
    """Exact P_e of the MAP detector; requires m <= n."""
    n = placement.n if n is None else n
    value = error_probability_grid(placement.counts, n, [model.p_f], [model.p_d])
    return ErrorProbability(value=float(value[0]), placement=placement, model=model, n=n)


def error_probability_grid(
    counts: tuple[int, ...], n: int, pf: np.ndarray, pd: np.ndarray
) -> np.ndarray:
    """Vectorized P_e for one canonical placement at many (p_f, p_d) points.

    ``pf`` and ``pd`` are equal-length 1-D arrays; returns the matching P_e
    array. :func:`error_probability` is this kernel at a single point. The
    class table is placement-only, so a sweep touches each grid node with
    pure array arithmetic on (rows, classes, nodes) arrays. Nodes go through
    in slices of at most ``GRID_CHUNK_ENTRIES`` entries, so memory stays
    bounded, and the result is bit-identical to one whole-grid slice.
    """
    m = sum(counts)
    if m > n:
        raise ValueError(f"m={m} sensors exceed n={n} points")
    exponents, mult, weight = count_classes(tuple(counts), n)
    powers = power_table(pf, pd, exponents.max())  # whole grid at once, then sliced
    size = powers[0].shape[1]
    out = np.empty(size)
    # numpy sums a one-node slice pairwise along the class axis, not in
    # order, which can change its last bits: slices hold at least two nodes
    # and a lone last node joins the slice before it
    width = max(2, GRID_CHUNK_ENTRIES // (exponents.shape[1] * exponents.shape[2]))
    starts = list(range(0, size, width))
    if len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [size]):
        pmf = likelihoods(exponents, [p[:, lo:hi] for p in powers])  # (rows, classes, nodes)
        s = (mult[:, None, None] * pmf).sum(axis=0)
        mx = pmf.max(axis=0)
        out[lo:hi] = (weight[:, None] * (s - mx)).sum(axis=0) / n
    return out


def map_decide(
    y: ObservationIndex,
    placement: Placement,
    model: SensorModel,
    n: int | None = None,
    *,
    table: PmfTable | None = None,
) -> frozenset[int]:
    """Hypothesis indices attaining the maximum posterior for observation y.

    With a uniform prior this is the likelihood argmax; all ties are
    returned (every empty point joins the set whenever the shared
    empty-point row attains the maximum). ``table`` is a prebuilt
    :class:`PmfTable` for the same placement, model and n, so that deciding
    every observation costs one table build instead of one per call.
    """
    n = placement.n if n is None else n
    if placement.m > n:
        raise ValueError(f"m={placement.m} sensors exceed n={n} points")
    if table is None:
        table = PmfTable.build(placement, model, n)
    elif (table.placement, table.model, table.n) != (placement, model, n):
        raise ValueError("table was built for a different placement, model or n")
    column = table.rows[:, y]
    mx = column.max()
    top = column >= mx - abs(mx) * MAP_TIE_RTOL
    k = placement.k
    return frozenset(j for j in range(1, n + 1) if top[j - 1 if j <= k else k])


def closed_form_pe2(placement: Placement, model: SensorModel) -> float:
    """Independent closed-form P_e for the two-sensor, two-point cases.

    Term-by-term transcription of the explicit four-observation minima for
    the placements (1,1) and (2); valid on the whole (p_f, p_d) unit square.
    Used as an oracle against :func:`error_probability`.
    """
    if placement.m != 2 or placement.n != 2:
        raise ValueError("closed form covers m = n = 2 only")
    pd, pf = model.p_d, model.p_f
    if placement.counts == (1, 1):
        return 0.5 * (
            (1.0 - pd) * (1.0 - pf)
            + pd * pf
            + 2.0 * min(pf - pd * pf, pd - pd * pf)
        )
    if placement.counts == (2,):
        return 0.5 * (
            min((1.0 - pd) ** 2, (1.0 - pf) ** 2)
            + min(pd**2, pf**2)
            + 2.0 * min(pd * (1.0 - pd), pf * (1.0 - pf))
        )
    raise ValueError(f"unexpected placement {placement.counts} for m=n=2")


def optimal_placements(
    m: int, n: int, model: SensorModel, tie_eps: float = TIE_EPS
) -> Optimum:
    """Exhaustive search over all partitions of m; tie-aware argmin.

    Candidates are scored in enumeration order so tie reporting and CSV
    output are reproducible. No pruning: these exact values are the ground
    truth the structural results are checked against.
    """
    if not 1 <= m <= n:
        raise ValueError(f"require 1 <= m <= n, got m={m}, n={n}")
    if m > MAX_SEARCH_M:
        raise ValueError(f"m={m} exceeds the exact-search bound {MAX_SEARCH_M}")
    candidates = [
        canonicalize_placement(counts, n) for counts in enumerate_partitions(m)
    ]
    values = [error_probability(p, model, n).value for p in candidates]
    return _argmin_with_ties(candidates, values, tie_eps)


def _argmin_with_ties(
    candidates: list[Placement], values: list[float], tie_eps: float
) -> Optimum:
    pe_min = min(values)
    best = tuple(
        p for p, v in zip(candidates, values) if v - pe_min <= tie_eps
    )
    rest = [v for v in values if v - pe_min > tie_eps]
    margin = (min(rest) - pe_min) if rest else math.inf
    strict = len(best) == 1 and margin > tie_eps
    return Optimum(best=best, pe_min=pe_min, margin=margin, strict=strict)
