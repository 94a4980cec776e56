"""Exact error-probability evaluation and brute-force optimal placement search.

Under a uniform prior the Bayes-optimal detector is the MAP rule, and its
error probability for a placement v over n points is

    P_e(v) = (1/n) * sum_y min_i sum_{j != i} p_j(y)
           = (1/n) * sum_y [ S(y) - max_j p_j(y) ]

since dropping the largest term minimizes the leave-one-out sum. p_j(y)
depends on y only through the per-block alarm counts, and equal blocks are
interchangeable, so the sum runs over count classes (multisets of per-block
alarm counts) weighted by their number of alarm vectors: M + 1 classes for
the placement 1^M, at most 2^M. A likelihood depends only on the own-block
count a, the false alarms c and the block size v, so all placements of M
share C(M + 3, 3) columns (165 at M = 8). :func:`partition_pes` is the one
evaluator: it checks the nodes once, cuts them into slices and builds one
table of those columns per slice (:func:`slice_table`), which every
placement and point count of the call reads. Region maps, the optimum
search and a lone placement all go through it, so it is also the one gate:
before any table it refuses placements of more than
``partitions.MAX_M`` sensors and calls whose work exceeds
:data:`WORK_BUDGET` (:class:`BudgetError`). S adds the occupied rows
once each and the shared empty-point row n - k times, then the classes, in
a fixed order, so a node's P_e bits do not depend on the grid or window
around it, the slice width, the other placements or the thread count:
``pe``, ``optimal`` and sweeps agree bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    ObservationIndex,
    Placement,
    PmfTable,
    SensorModel,
    block_columns,
    canonicalize_placement,
    likelihood_columns,
    slice_table,
)
from .partitions import MAX_M, enumerate_partitions

TIE_EPS = 1e-9
"""Absolute P_e gap below which placements are reported as tied.

Exact P_e values are sums over at most 2^m count classes, each an integer
weight times a few double products, so round-off sits many orders below
this; genuine region boundaries are exact tie loci and must surface as ties
instead of being broken by noise.
"""

WORK_BUDGET = 3_200_000_000
"""Most work one :func:`partition_pes` call may take on.

Work is nodes x (C(m + 3, 3) + rows x count classes summed over placements
and point counts): each node's slice-table columns plus the entries the
kernel gathers. It admits ``sweep --m 8 --n 9 --step 0.001 --region full``
(3.09e9; 8-10 s and a 274 MiB resident peak on a shared 2-vCPU host, most of
it the 22 x 998,001 P_e array) and refuses ``verify thm42 --m 20 --n1 21
--n2 22`` (3.42e9).
"""

GRID_CHUNK_ENTRIES = 1 << 16
"""Floats per slice table or (classes, nodes) block in :func:`partition_pes`.

A slice holds this many entries divided by the larger of the table's
columns and the most classes of any placement in the call
(:func:`slice_width`); e.g. 397 nodes at a time for the 165-column
:func:`slice_table` of m = 8, and 3,276 for (3,) alone, whose 20 columns
outnumber its 4 classes. Its likelihood table and its per-row (classes,
nodes) blocks each hold at most this many floats (512 KiB), whatever the
grid size. Temporaries of this size stay in cache, which made M = 8 and
small-M sweeps faster than one whole-grid slice.
"""

MAP_TIE_RTOL = 1e-12
"""Relative slack when collecting MAP argmax ties.

Likelihoods of hypotheses that tie analytically (e.g. at p_d = p_f) are
computed through different multiplication orders and can differ by a few ulp;
this tolerance re-unites them without ever bridging genuine gaps.
"""


class BudgetError(RuntimeError):
    """Raised instead of starting a computation larger than the budget."""


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
    value = partition_pes((placement.counts,), (n,), [model.p_f], [model.p_d])[0, 0, 0]
    return ErrorProbability(value=float(value), placement=placement, model=model, n=n)


def partition_pes(parts, n_values, pf, pd, threads=1) -> np.ndarray:
    """P_e of placements of one m at each point count: (n_values, parts, nodes).

    ``parts`` are canonical count tuples of the same m, at most ``MAX_M``,
    ``pf`` and ``pd`` equal-length 1-D arrays of values in [0, 1], every n
    in ``n_values`` at least m, and the call's work within
    :data:`WORK_BUDGET`; all of this is checked once, before any table is
    built. Node slices of :func:`slice_width` nodes run in the outer
    loop, split over ``threads`` workers. Each slice builds one
    :func:`slice_table`, which every placement and point count reads
    through :func:`error_probability_grid`, so no table spans the whole grid.
    """
    m = sum(parts[0])
    for n in n_values:
        if m > n:
            raise ValueError(f"m={m} sensors exceed n={n} points")
    pf, pd = np.asarray(pf, dtype=float), np.asarray(pd, dtype=float)
    if pf.ndim != 1 or pf.shape != pd.shape:
        raise ValueError(f"pf and pd must be 1-D of equal length, got {pf.shape} and {pd.shape}")
    if not (((0.0 <= pf) & (pf <= 1.0)).all() and ((0.0 <= pd) & (pd <= 1.0)).all()):
        raise ValueError("pf and pd must be finite and in [0, 1]")  # NaN fails both bounds
    if m > MAX_M:
        raise ValueError(f"m={m} sensors exceed the sensor bound {MAX_M}")
    columns, classes = math.comb(m + 3, 3), [class_count(p) for p in parts]
    terms = columns + sum(
        (len(p) + (n > len(p))) * c for n in n_values for p, c in zip(parts, classes)
    )
    if pf.size * terms > WORK_BUDGET:
        raise BudgetError(
            f"work {pf.size * terms:,} exceeds the budget {WORK_BUDGET:,}: "
            f"{pf.size:,} nodes x {terms:,} likelihood columns and row x class terms"
        )
    pes = np.empty((len(n_values), len(parts), pf.size))
    width = slice_width(columns, max(classes))

    def run(lo: int) -> None:
        nodes = slice(lo, lo + width)
        f, d = pf[nodes], pd[nodes]
        table = slice_table(f, d, m)
        for j, n in enumerate(n_values):
            for i, counts in enumerate(parts):
                pes[j, i, nodes] = error_probability_grid(counts, n, f, d, table=table)

    starts = range(0, pf.size, width)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, starts))
    else:
        for lo in starts:
            run(lo)
    return pes


def error_probability_grid(
    counts: tuple[int, ...],
    n: int,
    pf: np.ndarray,
    pd: np.ndarray,
    *,
    table: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized P_e for one canonical placement at many (p_f, p_d) points.

    ``pf`` and ``pd`` are equal-length 1-D arrays of values in [0, 1];
    returns the matching P_e array. Without ``table`` this is
    :func:`partition_pes` of the one placement, which checks the nodes and
    n and walks them in slices. ``table`` is a :func:`slice_table` of the
    same nodes and m = ``sum(counts)``, taken as one slice: only its shape
    is checked, and the kernel gathers each row's columns from it into S
    and the running max. A node's value does not depend on the other
    nodes, the slice width, the table or the thread count: alone it gets
    the same bits.
    """
    if table is None:
        return partition_pes((counts,), (n,), pf, pd)[0, 0]
    size = np.size(pf)
    if np.shape(table) != (likelihood_columns(sum(counts)).shape[1], size):
        raise ValueError(f"table must be a slice_table of these {size} nodes for m={sum(counts)}")
    classes = class_table(tuple(counts), n)
    # numpy sums a one-node block pairwise and wider ones in order, so a
    # lone node goes through as two copies of itself
    if size == 1:
        table = table[:, [0, 0]]
    return _weighted_gaps(table, classes.column, classes.mult, classes.weight)[:size] / n


def slice_width(entries: int, classes: int) -> int:
    """Nodes per slice for a table of ``entries`` likelihood columns and ``classes`` classes.

    :func:`_weighted_gaps` holds the table and (classes, nodes) blocks, so
    neither exceeds ``GRID_CHUNK_ENTRIES`` floats; at least two nodes.
    """
    return max(2, GRID_CHUNK_ENTRIES // max(entries, classes))


class ClassTable(NamedTuple):
    """The count classes of a placement over n points, as read-only arrays.

    ``column`` (rows, classes) names the likelihood of each row and class
    as a :func:`likelihood_columns` column, so a row of a
    :func:`slice_table`; rows are the blocks in order, then the shared
    empty row when n > k. ``mult`` is the hypotheses per row (1, or n - k
    for the empty row), ``weight`` the alarm vectors per class (sum 2^m).
    """

    mult: np.ndarray
    weight: np.ndarray
    column: np.ndarray


@functools.cache
def class_table(counts: tuple[int, ...], n: int) -> ClassTable:
    """:class:`ClassTable` of ``counts`` over n points, built once per (counts, n).

    Unbounded: a region map calls the kernel for every partition and point
    count on every node slice, in a fixed cycle that a bounded cache
    shorter than the cycle would miss on every call. Every placement of
    m = 14 at two point counts holds 5.4 MiB, of m = 20 at one 78 MiB.
    """
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
    column = block_columns(a, counts, n)
    k = len(counts)
    mult = np.where(np.arange(len(column)) < k, 1.0, n - k)
    weight = np.array([math.prod(w for _, w in c) for c in combos], dtype=float)
    table = ClassTable(mult, weight, column)
    for array in table:
        array.flags.writeable = False
    return table


def _weighted_gaps(table, column, mult, weight) -> np.ndarray:
    """Sum over classes of weight x (S - max) for one node slice.

    ``table`` is a :func:`slice_table` (likelihood columns x nodes) and
    ``column`` (rows, classes) the column of each row and class. S adds the
    rows in order, each times its ``mult`` (1, or n - k for the empty row);
    the (classes, nodes) arrays die on return.
    """
    s = table[column[0]]
    mx = s.copy()
    for r in range(1, len(column)):
        pmf = table[column[r]]
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


def optimal_placements(m: int, n: int, model: SensorModel) -> Optimum:
    """Exhaustive search over all partitions of m; tie-aware argmin.

    Candidates are scored in enumeration order so tie reporting and CSV
    output are reproducible. No pruning: these exact values are the ground
    truth the structural results are checked against.
    """
    if not 1 <= m <= n:
        raise ValueError(f"require 1 <= m <= n, got m={m}, n={n}")
    candidates = [canonicalize_placement(counts, n) for counts in enumerate_partitions(m)]
    parts = tuple(p.counts for p in candidates)
    pes = partition_pes(parts, (n,), [model.p_f], [model.p_d])[0]
    tie, pe_min, margin, strict = argmin_with_ties(pes)
    best = tuple(p for p, t in zip(candidates, tie[:, 0]) if t)
    return Optimum(best, float(pe_min[0]), float(margin[0]), bool(strict[0]))


def argmin_with_ties(pes: np.ndarray):
    """The tie rule: ``(tie, pe_min, margin, strict)`` of a (partitions, nodes) P_e array.

    ``tie[i, g]`` marks partition i within TIE_EPS of the node's minimum
    ``pe_min[g]``; ``margin[g]`` is the gap to the best non-tied partition
    (+inf when none); ``strict[g]`` marks a unique minimiser with positive margin.

    Consumes ``pes``: it is overwritten with the gaps to ``pe_min``, tied
    entries set to +inf, so no float temporary of its size is made. The
    margin is the least such gap, the same bits as the least non-tied P_e
    minus ``pe_min`` because fl(x - c) is monotone in x.
    """
    pe_min = pes.min(axis=0)
    pes -= pe_min
    tie = pes <= TIE_EPS
    np.putmask(pes, tie, np.inf)
    margin = pes.min(axis=0)
    strict = tie.sum(axis=0) == 1  # every non-tied gap, so the margin, exceeds TIE_EPS
    return tie, pe_min, margin, strict
