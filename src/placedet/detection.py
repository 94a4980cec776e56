"""Exact error-probability evaluation and brute-force optimal placement search.

Under a uniform prior the Bayes-optimal detector is the MAP rule, and its
error probability for a placement v over n points is

    P_e(v) = (1/n) * sum_y min_i sum_{j != i} p_j(y)
           = (1/n) * sum_y [ S(y) - max_j p_j(y) ]

since dropping the largest term minimizes the leave-one-out sum. p_j(y)
depends on y only through the per-block alarm counts, and equal blocks are
interchangeable, so the sum runs over count classes (multisets of per-block
alarm counts) weighted by their number of alarm vectors: M + 1 classes for
the placement 1^M, at most 2^M, whatever n (:func:`class_table`). A
likelihood depends only on the own-block count a, the false alarms c and
the block size v, so all placements of M share C(M + 3, 3) columns (165 at
M = 8): a band of (v + 1)(M - v + 1) per block size v, and each row of a
placement reads the columns of its own band
(:func:`placedet.model.row_bands`). :func:`partition_pes` is the one
evaluator: it checks the nodes once, cuts them into slices and builds one
table per slice (:func:`slice_table`) of the bands its placements read,
which every placement and point count of the call reads. Region maps, the
optimum search and a lone placement all go through it, and through its one
gate, :func:`check_call`: before any table it refuses malformed placements,
placements of more than ``partitions.MAX_M`` sensors and calls whose work
exceeds :data:`WORK_BUDGET` (:class:`BudgetError`). S adds the occupied
rows once each and the shared empty-point row n - k times (n enters
nowhere else), then the classes, in a fixed order, so a node's P_e bits do
not depend on the grid or window around it, the slice width or the other
placements: ``pe``, ``optimal`` and sweeps agree bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    Placement,
    PmfTable,
    SensorModel,
    band_width,
    block_columns,
    row_bands,
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

Work is nodes x (the slice-table columns built + rows x count classes
summed over placements and point counts): each node's likelihood columns
plus the entries the kernel gathers. A call over every placement of m
builds all C(m + 3, 3) columns (all but band 0 at m = n = 1). It admits
``sweep --m 8 --n 9 --step 0.001 --region full`` (3.09e9; 8-10 s and a
116 MiB resident peak on a shared 2-vCPU host, most of it the map's own
arrays) and refuses ``verify thm42 --m 20 --n1 21 --n2 22`` (3.42e9).
"""

GRID_CHUNK_ENTRIES = 1 << 16
"""Floats per slice table or (classes, nodes) block in :func:`partition_pes`.

A slice holds this many entries divided by the larger of the table's
columns and the most classes of any placement in the call
(:func:`slice_width`); e.g. 397 nodes at a time for the 165-column
:func:`slice_table` of m = 8, and 8,192 for (3,) alone on 3 points, whose
bands 0 and 3 hold 8 columns against its 4 classes. Its likelihood table
and its per-row (classes, nodes) blocks each hold at most this many floats
(512 KiB), whatever the grid size. Temporaries of this size stay in cache, which made M = 8 and
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


def error_probability(placement: Placement, model: SensorModel, n: int) -> ErrorProbability:
    """Exact P_e of the MAP detector with ``placement`` on n points; requires m <= n."""
    value = partition_pes((placement.counts,), (n,), [model.p_f], [model.p_d])[0, 0, 0]
    return ErrorProbability(value=float(value), placement=placement, model=model, n=n)


def check_call(parts, n_values, pf, pd):
    """The one gate of a :func:`partition_pes` call: its ``(pf, pd, bands, slice_width)``.

    Refuses the call unless ``parts`` are one or more tuples of counts >= 1
    summing to one m <= ``MAX_M``, ``pf`` and ``pd`` equal-length 1-D arrays
    of values in [0, 1], every n in ``n_values`` at least m, and the work
    within :data:`WORK_BUDGET` (else :class:`BudgetError`). A region map
    calls it once on all its nodes, before its first block.
    """
    if not parts:
        raise ValueError("no placements to evaluate")
    m = sum(parts[0])
    if any(sum(p) != m for p in parts):
        raise ValueError(f"parts must all place m={m} sensors, as {tuple(parts[0])} does")
    if m > min(n_values, default=m):
        raise ValueError(f"m={m} sensors exceed n={min(n_values)} points")
    pf, pd = np.asarray(pf, dtype=float), np.asarray(pd, dtype=float)
    if pf.ndim != 1 or pf.shape != pd.shape:
        raise ValueError(f"pf and pd must be 1-D of equal length, got {pf.shape} and {pd.shape}")
    if not (((0.0 <= pf) & (pf <= 1.0)).all() and ((0.0 <= pd) & (pd <= 1.0)).all()):
        raise ValueError("pf and pd must be finite and in [0, 1]")  # NaN fails both bounds
    if m > MAX_M:
        raise ValueError(f"m={m} sensors exceed the sensor bound {MAX_M}")
    rows = [[row_bands(p, n) for p in parts] for n in n_values]
    bands = tuple(sorted({v for per_n in rows for r in per_n for v in r}))
    columns, classes = sum(band_width(m, v) for v in bands), [class_count(p) for p in parts]
    terms = columns + sum(len(r) * c for per_n in rows for r, c in zip(per_n, classes))
    if pf.size * terms > WORK_BUDGET:
        raise BudgetError(
            f"work {pf.size * terms:,} exceeds the budget {WORK_BUDGET:,}: "
            f"{pf.size:,} nodes x {terms:,} likelihood columns and row x class terms"
        )
    return pf, pd, bands, slice_width(columns, max(classes))


def partition_pes(parts, n_values, pf, pd) -> np.ndarray:
    """P_e of placements of one m at each point count: (n_values, parts, nodes).

    :func:`check_call` admits the call before any table is built. Each node
    slice builds one :func:`slice_table` of the bands the call reads (the
    block sizes of ``parts``, and band 0 when some n exceeds a placement's
    occupied points), which every placement and point count reads through
    :func:`error_probability_grid`. One placement's P_e at one n is
    ``partition_pes((counts,), (n,), pf, pd)[0, 0]``.
    """
    pf, pd, bands, width = check_call(parts, n_values, pf, pd)
    m = sum(parts[0])
    pes = np.empty((len(n_values), len(parts), pf.size))
    for lo in range(0, pf.size, width):
        nodes = slice(lo, lo + width)
        f, d = pf[nodes], pd[nodes]
        table = slice_table(f, d, m, bands)
        for j, n in enumerate(n_values):
            for i, counts in enumerate(parts):
                pes[j, i, nodes] = error_probability_grid(counts, n, f, d, table=table)
        del table  # so the next slice's table is not built beside this one
    return pes


def error_probability_grid(
    counts: tuple[int, ...], n: int, pf: np.ndarray, pd: np.ndarray, *, table: dict[int, np.ndarray]
) -> np.ndarray:
    """P_e of one canonical placement at one node slice: the kernel of :func:`partition_pes`.

    ``pf`` and ``pd`` are the slice's equal-length 1-D arrays, and
    ``table`` is their :func:`slice_table` for m = ``sum(counts)``, holding
    at least the bands the placement's rows read. Only the counts and those
    bands' shapes are checked (the nodes and n are :func:`partition_pes`'s),
    and the kernel gathers each row's columns from its band into S and the
    running max. A node's value does not depend on the other nodes of the
    slice: alone it gets the same bits.
    """
    size, m, bands = np.size(pf), sum(counts), row_bands(counts, n)
    for v in set(bands):
        if v not in table or table[v].shape != (band_width(m, v), size):
            raise ValueError(f"table must be a slice_table of these {size} nodes for m={m}")
    weight, column = class_table(tuple(counts))
    return _weighted_gaps(table, bands, column, n - len(counts), weight)[:size] / n


def slice_width(entries: int, classes: int) -> int:
    """Nodes per slice for a table of ``entries`` likelihood columns and ``classes`` classes.

    :func:`_weighted_gaps` holds the table and (classes, nodes) blocks, so
    neither exceeds ``GRID_CHUNK_ENTRIES`` floats; at least two nodes.
    """
    return max(2, GRID_CHUNK_ENTRIES // max(entries, classes))


class ClassTable(NamedTuple):
    """The count classes of a placement, at any point count, as read-only arrays.

    ``column`` (k + 1, classes) is each row's column in its band of a
    :func:`slice_table` (:func:`placedet.model.block_columns`): the blocks
    in order, then the empty row, read only when n > k. ``weight`` is the
    alarm vectors per class (sum 2^m).
    """

    weight: np.ndarray
    column: np.ndarray


@functools.cache
def class_table(counts: tuple[int, ...]) -> ClassTable:
    """:class:`ClassTable` of ``counts``, built once per placement.

    Unbounded, since a region map's kernel calls cycle through every
    placement, but it holds at most one table per placement of m <= MAX_M:
    95.3 MiB of arrays for every m <= 20, 40.4 MiB of it at m = 20.
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
    weight = np.array([math.prod(w for _, w in c) for c in combos], dtype=float)
    table = ClassTable(weight, block_columns(a, counts))
    for array in table:
        array.flags.writeable = False
    return table


def _weighted_gaps(table, bands, column, empty, weight) -> np.ndarray:
    """Sum over classes of weight x (S - max) for one node slice.

    ``table`` is a :func:`slice_table` (one (columns, nodes) view per
    band), ``bands`` the band of each row read and ``column`` (rows,
    classes) the column of each row and class within it. S adds the rows
    in order, the band-0 empty row ``empty`` (n - k) times; the
    (classes, nodes) arrays die on return.
    """
    s = table[bands[0]][column[0]]
    mx = s.copy()
    for r in range(1, len(bands)):
        pmf = table[bands[r]][column[r]]
        np.maximum(mx, pmf, out=mx)
        if not bands[r] and empty != 1:
            pmf *= empty
        s += pmf
    s -= mx
    s *= weight[:, None]
    # numpy sums a one-node block pairwise and wider ones in order, so a
    # lone node goes through as two copies of itself
    if s.shape[1] == 1:
        s = np.hstack([s, s])
    return s.sum(axis=0)


def map_decide(y: int, table: PmfTable) -> frozenset[int]:
    """Hypothesis indices attaining the maximum posterior for observation y.

    With a uniform prior this is the likelihood argmax over column y of
    ``table`` (a :class:`PmfTable`, which refuses m > n when built); all
    ties within :data:`MAP_TIE_RTOL` are returned, and every empty point
    joins the set whenever the shared empty-point row attains the maximum.
    """
    column = table.rows[:, y]
    mx = column.max()
    top = column >= mx - abs(mx) * MAP_TIE_RTOL
    k = table.placement.k
    return frozenset(j for j in range(1, table.n + 1) if top[j - 1 if j <= k else k])


def optimal_placements(m: int, n: int, model: SensorModel) -> Optimum:
    """Exhaustive search over all partitions of m; tie-aware argmin.

    Candidates are scored in enumeration order so tie reporting and CSV
    output are reproducible. No pruning: these exact values are the ground
    truth the structural results are checked against.
    """
    if not 1 <= m <= n:
        raise ValueError(f"require 1 <= m <= n, got m={m}, n={n}")
    candidates = [Placement(counts) for counts in enumerate_partitions(m)]
    parts = tuple(p.counts for p in candidates)
    pes = partition_pes(parts, (n,), [model.p_f], [model.p_d])[0]
    tie, pe_min, margin, strict = argmin_with_ties(pes)
    best = tuple(p for p, t in zip(candidates, tie[:, 0]) if t)
    return Optimum(best, float(pe_min[0]), float(margin[0]), bool(strict[0]))


def argmin_with_ties(pes: np.ndarray, out=(None, None, None, None)):
    """The tie rule: ``(tie, pe_min, margin, strict)`` of a (partitions, nodes) P_e array.

    ``tie[i, g]`` marks partition i within TIE_EPS of the node's minimum
    ``pe_min[g]``; ``margin[g]`` is the gap to the best non-tied partition
    (+inf when none); ``strict[g]`` marks a unique minimiser with positive margin.
    They are written into the arrays ``out`` names; a None is allocated.

    Consumes ``pes``: it is overwritten with the gaps to ``pe_min``, tied
    entries set to +inf, so no float temporary of its size is made. The
    margin is the least such gap, the same bits as the least non-tied P_e
    minus ``pe_min`` because fl(x - c) is monotone in x.
    """
    tie, pe_min, margin, strict = out
    pe_min = pes.min(axis=0, out=pe_min)
    pes -= pe_min
    tie = np.less_equal(pes, TIE_EPS, out=tie)
    np.putmask(pes, tie, np.inf)
    margin = pes.min(axis=0, out=margin)
    strict = np.equal(tie.sum(axis=0), 1, out=strict)  # every non-tied gap exceeds TIE_EPS
    return tie, pe_min, margin, strict
