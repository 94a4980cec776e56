"""Exact error-probability evaluation and brute-force optimal placement search.

Under a uniform prior the Bayes-optimal detector is the MAP rule, and its
error probability for a placement v over n points is

    P_e(v) = (1/n) * sum_y min_i sum_{j != i} p_j(y)
           = (1/n) * sum_y [ S(y) - max_j p_j(y) ]

since dropping the largest term minimizes the leave-one-out sum. p_j(y)
depends on y only through the per-block alarm counts, and equal blocks are
interchangeable, so the sum runs over count classes (multisets of per-block
alarm counts) weighted by their number of alarm vectors: M + 1 classes for
the placement 1^M, at most 2^M. Many (row, class) pairs share one likelihood
(the same own-block count a, false alarms c and block size v), so the grid
kernel forms each distinct one once per node slice, from a power table that
the placements of one map share. S adds the occupied rows once each and the
shared empty-point row n - k times, then the classes, in a fixed order, so a
node's P_e bits do not depend on the grid or window around it, the slice
width or the thread count: ``pe``, ``optimal`` and sweeps agree bit for bit.
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

A slice holds this many entries divided by rows x classes nodes; e.g. 227
nodes at a time for the 288 row-class pairs of (3,2,1,1,1) on 9 points, and
8192 for (3,) on 4 points. Its distinct-column likelihood table and its
per-row (classes, nodes) blocks each hold at most this many floats
(512 KiB), whatever the grid size. Temporaries of this size stay in cache,
which made M = 8 and small-M sweeps faster than one whole-grid slice.
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
    counts: tuple[int, ...],
    n: int,
    pf: np.ndarray,
    pd: np.ndarray,
    *,
    powers: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Vectorized P_e for one canonical placement at many (p_f, p_d) points.

    ``pf`` and ``pd`` are equal-length 1-D arrays of values in [0, 1];
    returns the matching P_e array. :func:`error_probability` is this kernel
    at a single point. ``powers`` is a :func:`~placedet.model.power_table`
    of the same nodes that reaches the largest exponent (``sum(counts)``
    always does), so that the placements of one map share one table; it is
    built here when omitted. Many (row, class) pairs share one (a, b, c, d)
    column, so each node slice forms the likelihoods of the distinct columns
    only, then gathers them row by row into S and the running max. Nodes go
    through in slices of ``GRID_CHUNK_ENTRIES // (rows x classes)`` nodes,
    so memory stays bounded. A node's value does not depend on the other
    nodes, the slice width or the thread count: alone it gets the same bits.
    """
    m = sum(counts)
    if m > n:
        raise ValueError(f"m={m} sensors exceed n={n} points")
    pf, pd = np.asarray(pf, dtype=float), np.asarray(pd, dtype=float)
    if pf.ndim != 1 or pf.shape != pd.shape:
        raise ValueError(f"pf and pd must be 1-D of equal length, got {pf.shape} and {pd.shape}")
    if not (((0.0 <= pf) & (pf <= 1.0)).all() and ((0.0 <= pd) & (pd <= 1.0)).all()):
        raise ValueError("pf and pd must be finite and in [0, 1]")  # NaN fails both bounds
    exponents, mult, weight = count_classes(tuple(counts), n)
    top = int(exponents.max())
    if powers is None:
        powers = power_table(pf, pd, top)  # whole grid at once, then sliced
    elif len(powers) != 4 or any(
        np.ndim(p) != 2 or p.shape[1] != pf.size or p.shape[0] <= top for p in powers
    ):
        raise ValueError(f"powers must be a power_table of these {pf.size} nodes up to {top}")
    rows, classes = exponents.shape[1:]
    # b = v - a and d = m - c - v, so (a, c, v) identifies a column
    a, b, c = exponents[:3].reshape(3, -1)
    _, first, inverse = np.unique(
        (a * (m + 1) + c) * (m + 1) + a + b, return_index=True, return_inverse=True
    )
    columns = exponents.reshape(4, -1)[:, first]
    inverse = inverse.reshape(rows, classes)
    size = pf.size
    out = np.empty(size)
    width = max(2, GRID_CHUNK_ENTRIES // (rows * classes))
    for lo in range(0, size, width):
        hi = min(lo + width, size)
        # numpy sums a one-node block pairwise and wider ones in order, so a
        # lone node goes through as two copies of itself
        nodes = slice(lo, hi) if hi - lo > 1 else [lo, lo]
        table = likelihoods(columns, [p[:, nodes] for p in powers])  # (distinct, nodes)
        out[lo:hi] = _weighted_gaps(table, inverse, mult, weight)[: hi - lo] / n
        del table  # before the next slice's table is built
    return out


def _weighted_gaps(table, inverse, mult, weight) -> np.ndarray:
    """Sum over classes of weight x (S - max) for one node slice.

    ``table`` holds the distinct likelihoods (columns x nodes) and
    ``inverse`` (rows, classes) the column of each row and class. S adds the
    rows in order, each times its ``mult`` (1, or n - k for the empty row);
    the (classes, nodes) arrays die on return.
    """
    s = table[inverse[0]]
    mx = s.copy()
    for r in range(1, len(inverse)):
        pmf = table[inverse[r]]
        np.maximum(mx, pmf, out=mx)
        if mult[r] != 1.0:
            pmf *= mult[r]
        s += pmf
    s -= mx
    s *= weight[:, None]
    return s.sum(axis=0)


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


def optimal_placements(m: int, n: int, model: SensorModel) -> Optimum:
    """Exhaustive search over all partitions of m; tie-aware argmin.

    Candidates are scored in enumeration order so tie reporting and CSV
    output are reproducible. No pruning: these exact values are the ground
    truth the structural results are checked against.
    """
    if not 1 <= m <= n:
        raise ValueError(f"require 1 <= m <= n, got m={m}, n={n}")
    if m > MAX_SEARCH_M:
        raise ValueError(f"m={m} exceeds the exact-search bound {MAX_SEARCH_M}")
    candidates = [canonicalize_placement(counts, n) for counts in enumerate_partitions(m)]
    pes = np.array([[error_probability(p, model, n).value] for p in candidates])
    tie, pe_min, margin, strict = argmin_with_ties(pes)
    best = tuple(p for p, t in zip(candidates, tie[:, 0]) if t)
    return Optimum(best, float(pe_min[0]), float(margin[0]), bool(strict[0]))


def argmin_with_ties(pes: np.ndarray):
    """The tie rule: ``(tie, pe_min, margin, strict)`` of a (partitions, nodes) P_e array.

    ``tie[i, g]`` marks partition i within TIE_EPS of the node's minimum
    ``pe_min[g]``; ``margin[g]`` is the gap to the best non-tied partition
    (+inf when none); ``strict[g]`` marks a unique minimiser with positive margin.
    """
    pe_min = pes.min(axis=0)
    tie = (pes - pe_min[None, :]) <= TIE_EPS
    margin = np.where(tie, np.inf, pes).min(axis=0) - pe_min
    strict = tie.sum(axis=0) == 1  # every non-tied gap, so the margin, exceeds TIE_EPS
    return tie, pe_min, margin, strict
