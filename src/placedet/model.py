"""Sensor/placement data model and the exact conditional alarm likelihood.

The observation model: M identical binary sensors are distributed over N
points. Each sensor alarms with probability ``p_d`` when the intruder is at
its own point and with probability ``p_f`` otherwise, independently given
the intruder location. A placement assigns a count of sensors to each point;
because sensors are identical, only the sorted count vector matters, so the
canonical form is a non-increasing integer partition with zeros trimmed
(:class:`Placement`). N is not part of a placement: it enters P_e only as
the weight of the empty points, and every evaluator takes it as an argument.

Joint alarm vectors ``(y_1, ..., y_M)`` are packed into integers with y_1 as
the most significant bit, i.e. the index equals the decimal value of the
binary string y_1 y_2 ... y_M. Sensors are laid out in block order: the
first v_1 bits belong to point 1, the next v_2 to point 2, and so on.

With the intruder at point j, holding v sensors of which a alarm, and s
alarms in total, the alarm vector has likelihood

    p_j(y) = p_d^a (1-p_d)^(v-a) p_f^c (1-p_f)^(M-v-c),  c = s - a

(an empty point has v = a = 0). So a likelihood is fixed by the block size
v, its band, and by a and c: column a * (M - v + 1) + c of band v, the
(v + 1)(M - v + 1) columns of :func:`likelihood_columns`. Row r of a
placement reads band ``counts[r]``, and the shared empty row, present when
n > k, reads band 0 (:func:`row_bands`); :func:`block_columns` names each
row's column within its band. :func:`slice_table` is the one place the
product is formed: one view per band asked for, at each node, from the
powers in a :func:`power_table`. :class:`PmfTable` (one column per alarm
vector) and the count-class P_e kernel in :mod:`placedet.detection` both
gather their likelihoods from it. The powers cover one node slice only,
and a node's powers do not depend on the other nodes of the table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SensorModel:
    """Per-sensor detection probability ``p_d`` and false-alarm probability ``p_f``."""

    p_d: float
    p_f: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_d <= 1.0):
            raise ValueError(f"p_d must be in [0, 1], got {self.p_d}")
        if not (0.0 <= self.p_f <= 1.0):
            raise ValueError(f"p_f must be in [0, 1], got {self.p_f}")


@dataclass(frozen=True)
class Placement:
    """Canonical sensor placement: the non-increasing positive counts of its points.

    ``counts`` holds only the occupied points (zeros trimmed), so a placement
    is an integer partition of ``m``. The number of points n is not part of
    it: every evaluator takes n, and reads the n - k empty points as one
    shared row.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts or min(self.counts) < 1:
            raise ValueError(f"counts must be one or more positive entries: {self.counts}")
        if any(a < b for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError(f"counts must be non-increasing: {self.counts}")

    @property
    def m(self) -> int:
        """Total sensor count."""
        return sum(self.counts)

    @property
    def k(self) -> int:
        """Number of occupied points."""
        return len(self.counts)

    def label(self) -> str:
        """Dash-joined counts, e.g. ``2-1-1``."""
        return placement_label(self.counts)


def placement_label(counts: Sequence[int]) -> str:
    """The label of a count vector in every output: dash-joined counts, e.g. ``2-1-1``."""
    return "-".join(map(str, counts))


def canonicalize_placement(raw_counts: Sequence[int]) -> Placement:
    """Sort counts descending, trim zeros, and wrap as a Placement.

    Permutations of the count vector yield the same error probability under a
    uniform intruder prior, so the sorted form is the canonical representative.
    Negative counts and a vector with no sensors are refused. Idempotent on
    already-canonical input.
    """
    counts = [int(v) for v in raw_counts]
    if any(v < 0 for v in counts):
        raise ValueError(f"negative sensor counts not allowed: {raw_counts}")
    if sum(counts) < 1:
        raise ValueError("placement must contain at least one sensor")
    return Placement(tuple(sorted((v for v in counts if v > 0), reverse=True)))


def power_table(pf, pd, top) -> tuple[np.ndarray, ...]:
    """Powers 0..top of p_d, 1-p_d, p_f and 1-p_f: four (top + 1, nodes) arrays.

    ``pf`` and ``pd`` are equal-length 1-D arrays of (p_f, p_d) nodes.
    0^0 = 1, so deterministic sensors (p_d, p_f in {0, 1}) give exact 0/1
    entries instead of NaN. Each power row is one 1-D ``np.power`` of the
    stacked bases by a scalar, so a node's entries do not depend on the other
    nodes (a broadcast ``p[None, :] ** ks`` rounds some by array length).
    """
    pf, pd = np.asarray(pf, dtype=float), np.asarray(pd, dtype=float)
    bases = np.stack([pd, 1.0 - pd, pf, 1.0 - pf])
    table = np.empty((top + 1,) + bases.shape)
    for k in range(top + 1):
        np.power(bases, float(k), out=table[k])
    return tuple(table[:, i] for i in range(4))


def row_bands(counts: Sequence[int], n: int) -> tuple[int, ...]:
    """The band each row of ``counts`` over n points reads.

    Block r reads band ``counts[r]``; the shared empty row, present when
    n > k, reads band 0. A block of no sensors would read band 0 too, so a
    count below 1 is refused here, before any table.
    """
    if len(counts) == 0 or min(counts) < 1:
        raise ValueError(f"counts {tuple(counts)} must be one or more blocks of at least 1 sensor")
    return tuple(counts) + (0,) * (n > len(counts))


def band_width(m: int, v: int) -> int:
    """Columns in band v of m sensors: (v + 1)(m - v + 1), a then c ascending."""
    return (v + 1) * (m - v + 1)


@functools.lru_cache(maxsize=256)
def likelihood_columns(m: int, bands: tuple[int, ...]) -> np.ndarray:
    """(4, columns) exponents (a, b, c, d) of the bands of m sensors, one after another.

    A column is fixed by the block size v, the block's alarms a and the false
    alarms c (b = v - a, d = m - v - c), and sits at a * (m - v + 1) + c
    within band v (:func:`block_columns`). Read-only.
    """
    columns = np.array(
        [
            (a, v - a, c, m - v - c)
            for v in bands
            for a in range(v + 1)
            for c in range(m - v + 1)
        ],
        dtype=np.intp,
    ).T
    columns.flags.writeable = False
    return columns


def slice_table(pf, pd, m: int, bands: tuple[int, ...]) -> dict[int, np.ndarray]:
    """Likelihood columns of m sensors at each node: one (columns, nodes) view per band.

    ``table[v]`` holds p_d^a (1-p_d)^b p_f^c (1-p_f)^d for each (a, b, c, d)
    of band v, for each block size v in ``bands``. All of them come from
    one product over ``likelihood_columns(m, bands)``, and a column's bits
    do not depend on which other bands are built. One table serves every
    placement of m and every point count n that reads only these bands;
    e.g. 165 columns at m = 8 for all of 0..8, against 1,101 distinct
    columns over the 22 placements on 9 points.
    """
    a, b, c, d = power_table(pf, pd, m)
    e = likelihood_columns(m, bands)
    table, views, lo = a[e[0]] * b[e[1]] * c[e[2]] * d[e[3]], {}, 0
    for v in bands:
        hi = lo + band_width(m, v)
        views[v], lo = table[lo:hi], hi
    return views


def block_columns(alarms: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """(k + 1, cols) column of each row's likelihood within the row's band.

    ``alarms`` (k, cols) holds the own-block alarm count of each occupied
    point in each column (an alarm vector or a count class). Rows are the
    blocks of ``counts`` in order, then the shared empty row (v = a = 0,
    every alarm false), which :func:`row_bands` reads only when n > k. With s
    alarms in all, a row of block size v and a own alarms reads column
    a * (m - v + 1) + s - a of band v, and the empty row column s of band 0.
    The indices take the dtype of ``alarms``, widened if needed to hold
    every column of the widest band of m = ``sum(counts)``.
    """
    m = sum(counts)
    dtype = np.promote_types(alarms.dtype, np.min_scalar_type(-band_width(m, m // 2)))
    a = alarms.astype(dtype, copy=False)
    s = a.sum(axis=0, dtype=dtype)
    v = np.array(counts, dtype=dtype)[:, None]
    return np.vstack([a * (m - v + 1) + (s - a), s[None]])


@dataclass(frozen=True)
class PmfTable:
    """Conditional pmf of every alarm vector, with the empty-point rows collapsed.

    ``rows[r, y]`` is p_j(y) at observation index y in 0..2^M - 1:
    occupied point j reads ``rows[j - 1]``, and when n > k every empty point
    reads the shared final row ``rows[k]``, which only then exists
    (:func:`row_bands`). ``n`` is the point count :meth:`build` was given.
    :func:`placedet.detection.map_decide` decides from it. The array is
    frozen read-only so tables can be shared across workers.
    """

    placement: Placement
    n: int
    rows: np.ndarray

    @classmethod
    def build(cls, placement: Placement, model: SensorModel, n: int) -> "PmfTable":
        m = placement.m
        if m > n:
            raise ValueError(f"m={m} sensors exceed n={n} points")
        y = np.arange(1 << m, dtype=np.int32)
        # int8 holds every count (M < 32), so the column indices stay narrow
        bits = ((y[None, :] >> np.arange(m - 1, -1, -1, dtype=np.int32)[:, None]) & 1).astype(np.int8)
        starts = np.cumsum((0,) + placement.counts[:-1])
        alarms = np.add.reduceat(bits, starts, axis=0, dtype=np.int8)  # (k, 2^M) block sums
        bands = row_bands(placement.counts, n)
        column = block_columns(alarms, placement.counts)[: len(bands)]
        table = slice_table([model.p_f], [model.p_d], m, tuple(sorted(set(bands))))
        rows = np.empty(column.shape)
        for r, v in enumerate(bands):  # row by row: the gather's intp index holds 2^M entries
            np.take(table[v][:, 0], column[r], out=rows[r])
        rows.flags.writeable = False
        return cls(placement=placement, n=n, rows=rows)
