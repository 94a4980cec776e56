"""Sensor/placement data model and the exact conditional alarm likelihood.

The observation model: M identical binary sensors are distributed over N
points. Each sensor alarms with probability ``p_d`` when the intruder is at
its own point and with probability ``p_f`` otherwise, independently given
the intruder location. A placement assigns a count of sensors to each point;
because sensors are identical, only the sorted count vector matters, so the
canonical form is a non-increasing integer partition with zeros trimmed.

Joint alarm vectors ``(y_1, ..., y_M)`` are packed into integers with y_1 as
the most significant bit, i.e. the index equals the decimal value of the
binary string y_1 y_2 ... y_M. Sensors are laid out in block order: the
first v_1 bits belong to point 1, the next v_2 to point 2, and so on.

With the intruder at point j, holding v sensors of which a alarm, and s
alarms in total, the alarm vector has likelihood

    p_j(y) = p_d^a (1-p_d)^(v-a) p_f^(s-a) (1-p_f)^(M-s-(v-a))

(an empty point has v = a = 0). :func:`likelihoods` is the one place this
product is formed, from the powers in a :func:`power_table`;
:class:`PmfTable` (one column per alarm vector) and the count-class P_e
kernel in :mod:`placedet.detection` both hand it exponent tables built by
:func:`block_exponents`. The kernel passes only the distinct (a, b, c, d)
columns of its table, and the placements of one region map share one
:func:`power_table` of its nodes, built once up to exponent M. A node's
powers do not depend on the other nodes of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

ObservationIndex = int


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


def flip_model(model: SensorModel) -> SensorModel:
    """Complementary model (1-p_d, 1-p_f).

    Inverting every alarm bit turns a detector for ``model`` into a detector
    for the flipped model, so the error probability is invariant under this
    map. It reduces the p_d < p_f half-plane to the p_d >= p_f half.
    """
    return SensorModel(1.0 - model.p_d, 1.0 - model.p_f)


@dataclass(frozen=True)
class Placement:
    """Canonical sensor placement: non-increasing positive counts per point.

    ``counts`` holds only the occupied points (zeros trimmed); conceptually
    it is padded with zeros out to length ``n``. ``m`` is the total sensor
    count, ``n`` the number of points.
    """

    counts: tuple[int, ...]
    m: int
    n: int

    def __post_init__(self) -> None:
        if any(v <= 0 for v in self.counts):
            raise ValueError(f"counts must be positive after trimming: {self.counts}")
        if any(a < b for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError(f"counts must be non-increasing: {self.counts}")
        if sum(self.counts) != self.m:
            raise ValueError(f"sum(counts)={sum(self.counts)} != m={self.m}")
        if len(self.counts) > self.n:
            raise ValueError(f"{len(self.counts)} occupied points exceed n={self.n}")

    @property
    def k(self) -> int:
        """Number of occupied points."""
        return len(self.counts)

    def padded(self, length: int | None = None) -> tuple[int, ...]:
        """Counts padded with zeros to ``length`` (default ``n``)."""
        length = self.n if length is None else length
        if length < self.k:
            raise ValueError(f"cannot pad {self.counts} to length {length}")
        return self.counts + (0,) * (length - self.k)

    def label(self) -> str:
        """Dash-joined counts, e.g. ``2-1-1``."""
        return "-".join(str(v) for v in self.counts)


def canonicalize_placement(raw_counts: Sequence[int], n: int) -> Placement:
    """Sort counts descending, trim zeros, and wrap as a Placement.

    Permutations of the count vector yield the same error probability under a
    uniform intruder prior, so the sorted form is the canonical representative.
    Idempotent on already-canonical input.
    """
    counts = [int(v) for v in raw_counts]
    if any(v < 0 for v in counts):
        raise ValueError(f"negative sensor counts not allowed: {raw_counts}")
    if len(counts) > n:
        raise ValueError(f"count vector of length {len(counts)} exceeds n={n}")
    m = sum(counts)
    if m < 1:
        raise ValueError("placement must contain at least one sensor")
    trimmed = tuple(sorted((v for v in counts if v > 0), reverse=True))
    if len(trimmed) > n:
        raise ValueError(f"{len(trimmed)} occupied points exceed n={n}")
    return Placement(trimmed, m, n)


def observation_index(bits: Iterable[int]) -> ObservationIndex:
    """Pack bits (y_1, ..., y_m) into an index, y_1 most significant."""
    y = 0
    for b in bits:
        y = (y << 1) | (b & 1)
    return y


def block_exponents(alarms: np.ndarray, counts: Sequence[int], n: int) -> np.ndarray:
    """(4, rows, cols) exponents of p_d, 1-p_d, p_f and 1-p_f in p_j(y).

    ``alarms`` (k, cols) holds the own-block alarm count of each occupied
    point in each column (an alarm vector or a count class). Rows are the
    blocks of ``counts`` in order, then the shared empty row when n > k.
    The table keeps the dtype of ``alarms``.
    """
    k = len(counts)
    s = alarms.sum(axis=0, dtype=alarms.dtype)
    v = np.array(counts, dtype=alarms.dtype)[:, None]
    if n > k:  # the empty row: no own block, every alarm is a false alarm
        alarms = np.vstack([alarms, np.zeros_like(alarms[:1])])
        v = np.vstack([v, np.zeros_like(v[:1])])
    return np.stack([alarms, v - alarms, s - alarms, sum(counts) - s - (v - alarms)])


def power_table(pf, pd, top) -> tuple[np.ndarray, ...]:
    """Powers 0..top of p_d, 1-p_d, p_f and 1-p_f: four (top + 1, nodes) arrays.

    ``pf`` and ``pd`` are equal-length 1-D arrays of (p_f, p_d) nodes.
    0^0 = 1, so deterministic sensors (p_d, p_f in {0, 1}) give exact 0/1
    entries instead of NaN. Each exponent row is one 1-D ``np.power`` of the
    stacked bases by a scalar, so a node's entries do not depend on the other
    nodes (a broadcast ``p[None, :] ** ks`` rounds some by array length).
    """
    pf, pd = np.asarray(pf, dtype=float), np.asarray(pd, dtype=float)
    bases = np.stack([pd, 1.0 - pd, pf, 1.0 - pf])
    table = np.empty((top + 1,) + bases.shape)
    for k in range(top + 1):
        np.power(bases, float(k), out=table[k])
    return tuple(table[:, i] for i in range(4))


def likelihoods(exponents: np.ndarray, powers: Sequence[np.ndarray]) -> np.ndarray:
    """p_d^a (1-p_d)^b p_f^c (1-p_f)^d for each (a, b, c, d) column of ``exponents``.

    ``exponents`` is a (4, rows, cols) or (4, cols) integer table and
    ``powers`` a :func:`power_table` that reaches its largest entry. Returns
    (rows, cols, nodes) or (cols, nodes).
    """
    a, b, c, d = powers
    return a[exponents[0]] * b[exponents[1]] * c[exponents[2]] * d[exponents[3]]


@dataclass(frozen=True)
class PmfTable:
    """Conditional pmf of every alarm vector, with the empty-point rows collapsed.

    ``rows[r, y]`` is p_j(y): rows 0..k-1 hold the occupied points; when
    ``collapsed`` a final shared row holds the common pmf of all n - k empty
    points (it does not depend on the placement). The column is the
    observation index y in 0..2^M - 1. The array is frozen read-only so
    tables can be shared across workers.
    """

    model: SensorModel
    placement: Placement
    n: int
    rows: np.ndarray
    collapsed: bool

    @classmethod
    def build(cls, placement: Placement, model: SensorModel, n: int | None = None) -> "PmfTable":
        n = placement.n if n is None else n
        if n < placement.k:
            raise ValueError(f"n={n} smaller than {placement.k} occupied points")
        m = placement.m
        y = np.arange(1 << m, dtype=np.int32)
        # int8 holds every count (M < 32), so the exponent table is half the pmf's size
        bits = ((y[None, :] >> np.arange(m - 1, -1, -1, dtype=np.int32)[:, None]) & 1).astype(np.int8)
        starts = np.cumsum((0,) + placement.counts[:-1])
        alarms = np.add.reduceat(bits, starts, axis=0, dtype=np.int8)  # (k, 2^M) block sums
        exponents = block_exponents(alarms, placement.counts, n)
        powers = power_table([model.p_f], [model.p_d], exponents.max())
        rows = np.empty(exponents.shape[1:])
        for r in range(len(rows)):  # row by row: the kernel's temporaries hold 2^M entries
            rows[r] = likelihoods(exponents[:, r : r + 1], powers)[0, :, 0]
        rows.flags.writeable = False
        return cls(model=model, placement=placement, n=n, rows=rows, collapsed=n > placement.k)

    def row(self, j: int) -> np.ndarray:
        """Pmf row for hypothesis j (1-based); empty points share the last row."""
        if not 1 <= j <= self.n:
            raise ValueError(f"hypothesis index {j} out of range 1..{self.n}")
        k = self.placement.k
        return self.rows[j - 1] if j <= k else self.rows[k]
