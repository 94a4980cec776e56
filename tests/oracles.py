"""Independent brute-force oracles the tests check the package against.

Everything here is deliberately naive: per-sensor position vectors instead of
count blocks, leave-one-out sums instead of the S - max shortcut, and the
classical pentagonal-number recurrence for partition counts. None of it
shares code with the package paths it validates. The region-map oracles walk
``RegionMap.cells`` one ``RegionCell`` at a time instead of reading the
map's per-node arrays. ``pe_exact`` is the one exact reference: rational
arithmetic, no rounding at all. ``pe_grid_full_table`` is the exception
that proves a rewrite changed no bits: it repeats the grid kernel's
arithmetic in its plainest array form, as ``argmin_with_ties_two_temporaries``
does for the in-place tie pass.

The closed forms at the end (``closed_form_pe2``, the M = 4 region
inequalities) and ``flip_model`` and ``strict_onset`` are references only
the tests read; the acceptance tests compare the package against them.
``observation_index`` packs alarm bits, and ``table_row`` reads a
``PmfTable`` row by 1-based hypothesis, for the tests that need them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

import numpy as np

from placedet import SensorModel
from placedet.detection import TIE_EPS, class_table

Counts = tuple[int, ...]


def pentagonal_partition_counts(limit: int) -> list[int]:
    """Partition counts p(0..limit) via the pentagonal-number recurrence."""
    p = [1] + [0] * limit
    for n in range(1, limit + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def positions_from_counts(counts) -> list[int]:
    """Per-sensor point assignments for a count vector (block layout, 1-based)."""
    return [j for j, v in enumerate(counts, start=1) for _ in range(v)]


def bits_from_index(y: int, m: int) -> list[int]:
    """Alarm bits (y_1, ..., y_m) of an observation index, y_1 most significant."""
    return [(y >> (m - 1 - k)) & 1 for k in range(m)]


def observation_index(bits) -> int:
    """Pack bits (y_1, ..., y_m) into an index, y_1 most significant."""
    y = 0
    for b in bits:
        y = (y << 1) | (b & 1)
    return y


def table_row(table, j: int) -> np.ndarray:
    """Pmf row of hypothesis j (1-based) in a ``PmfTable``: empty points share row k."""
    if not 1 <= j <= table.n:
        raise ValueError(f"hypothesis index {j} out of range 1..{table.n}")
    k = table.placement.k
    return table.rows[j - 1] if j <= k else table.rows[k]


def pmf_from_positions(bits, j: int, positions, pd: float, pf: float) -> float:
    """Joint alarm probability as a plain product over sensors."""
    prob = 1.0
    for y_k, u_k in zip(bits, positions):
        p = pd if u_k == j else pf
        prob *= p if y_k else (1.0 - p)
    return prob


def map_ties(bits, positions, n: int, pd: float, pf: float, rtol: float) -> list[int]:
    """Every point j in 1..n whose ``pmf_from_positions`` is within ``rtol`` of the largest."""
    rows = [pmf_from_positions(bits, j, positions, pd, pf) for j in range(1, n + 1)]
    mx = max(rows)
    return [j for j, row in enumerate(rows, start=1) if row >= mx - abs(mx) * rtol]


def simulate_errors_unblocked(
    counts, n: int, pd: float, pf: float, trials: int, seed: int,
    tie_rule: str, chunk_trials: int, rtol: float,
) -> int:
    """Monte Carlo error count of the MAP rule, drawn one whole chunk at a time.

    Makes the draws of ``montecarlo.simulate`` in their documented order:
    chunk i's generator is seeded with ``SeedSequence(seed, spawn_key=(i,))``
    and draws the positions, then one unblocked (size, m) uniform array, then
    (``uniform_random`` only) one tie uniform per trial. Alarm bits become an
    observation index by a dot product with powers of two, not by packing.
    Each observation's argmax set comes from ``map_ties`` over every point,
    ties collected within the relative tolerance ``rtol``, and is cached per
    observation, not tabulated over all 2^m.
    """
    positions = positions_from_counts(counts)
    m = len(positions)
    sensor_at = np.array(positions)
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
    decisions: dict[int, list[int]] = {}
    errors = 0
    for i, lo in enumerate(range(0, trials, chunk_trials)):
        size = min(chunk_trials, trials - lo)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        x = rng.integers(1, n + 1, size=size, dtype=np.int64)
        u = rng.random((size, m))
        alarm_p = np.where(sensor_at[None, :] == x[:, None], pd, pf)
        obs = ((u < alarm_p).astype(np.int64) @ weights).tolist()
        r = rng.random(size).tolist() if tie_rule == "uniform_random" else [0.0] * size
        for x_t, y, r_t in zip(x.tolist(), obs, r):
            ties = decisions.get(y)
            if ties is None:
                ties = decisions[y] = map_ties(bits_from_index(y, m), positions, n, pd, pf, rtol)
            pick = min(int(r_t * len(ties)), len(ties) - 1)
            errors += ties[pick] != x_t
    return errors


def pe_from_positions(positions, n: int, pd: float, pf: float) -> float:
    """Error probability via the raw leave-one-out minimum, O(2^m * n^2)."""
    m = len(positions)
    total = 0.0
    for idx in range(1 << m):
        bits = bits_from_index(idx, m)
        rows = [pmf_from_positions(bits, j, positions, pd, pf) for j in range(1, n + 1)]
        total += min(sum(rows) - rows[i] for i in range(n))
    return total / n


def pe_exact(positions, n: int, pd: float, pf: float) -> Fraction:
    """Error probability as an exact rational, O(2^m * n * m) Fraction steps.

    Sums over every alarm vector at the exact value of the float node
    (``Fraction(pd)``, and ``1 - Fraction(pd)`` rather than the rounded
    ``1.0 - pd``), so it measures the accuracy of a float evaluator.
    """
    pd, pf = Fraction(pd), Fraction(pf)
    m = len(positions)
    total = Fraction(0)
    for idx in range(1 << m):
        bits = bits_from_index(idx, m)
        rows = []
        for j in range(1, n + 1):
            prob = Fraction(1)
            for y_k, u_k in zip(bits, positions):
                p = pd if u_k == j else pf
                prob *= p if y_k else 1 - p
            rows.append(prob)
        s = sum(rows)
        total += min(s - row for row in rows)
    return total / n


def pe_grid_full_table(counts, n: int, pf, pd) -> np.ndarray:
    """Grid P_e from the full (rows, classes, nodes) likelihood table.

    Takes a placement, its point count and equal-length node arrays, and
    decodes the exponents of each row and class from the ``class_table``
    columns itself: row r is a block of size v = counts[r], or the empty row
    (v = 0) when n exceeds the occupied points, and column i of that row is
    a = i // (m - v + 1) own alarms and c = i % (m - v + 1) false alarms.
    The empty row's multiplicity n - k is worked out here, not read from the
    package.
    Builds the powers over the whole grid, one 1-D ``np.power`` of the
    stacked bases per exponent (an element's bits then do not depend on the
    array's length), forms every row x class likelihood with four gathers
    and three multiplies, and sums in the grid kernel's order: rows one
    after another, the empty row weighted by its multiplicity, then the
    classes one after another in the S - max form. The sums are written out
    as loops, not numpy reductions, which add pairwise along a contiguous
    axis, so the order is the same for one node and for many, and the
    kernel must match this bit for bit.
    """
    weight, columns = class_table(tuple(counts))
    m, sizes = sum(counts), list(counts) + [0] * (n > len(counts))
    exponents = np.zeros((4, len(sizes), weight.size), dtype=np.intp)
    for r, (v, column) in enumerate(zip(sizes, columns)):
        a, c = np.divmod(column.astype(np.intp), m - v + 1)
        exponents[:, r] = [a, v - a, c, m - v - c]
    mult = [1.0 if v else float(n - len(counts)) for v in sizes]
    pf, pd = np.asarray(pf, dtype=float), np.asarray(pd, dtype=float)
    bases = np.stack([pd, 1.0 - pd, pf, 1.0 - pf])
    powers = np.array([np.power(bases, float(k)) for k in range(exponents.max() + 1)])
    a, b, c, d = (powers[:, i] for i in range(4))
    pmf = a[exponents[0]] * b[exponents[1]] * c[exponents[2]] * d[exponents[3]]
    s = mult[0] * pmf[0]
    for r in range(1, len(pmf)):
        s = s + mult[r] * pmf[r]
    gaps = weight[:, None] * (s - pmf.max(axis=0))
    total = gaps[0]
    for row in gaps[1:]:
        total = total + row
    return total / n


def _label(counts) -> str:
    return "-".join(map(str, counts))


def monotone_on_scale_by_cells(region_map, scale, axis: str) -> dict:
    """``check_monotone_on_scale(...).to_json_dict()`` from a per-cell walk.

    Lanes are grid rows (``increasing_pf``) or columns (``increasing_pd``),
    each walked in ascending order of the other index.
    """
    key = attrgetter("i_d", "i_f") if axis == "increasing_pf" else attrgetter("i_f", "i_d")
    lanes: dict = {}
    for cell in sorted(region_map.cells, key=key):
        lanes.setdefault(key(cell)[0], []).append(cell)
    skipped_ties = skipped_off_scale = checked = worst_drop = 0
    off_scale = set()
    violations = []
    for lane in lanes.values():
        previous_level = previous_cell = None
        for cell in lane:
            if not cell.strict:
                skipped_ties += 1
                continue
            winner = cell.best[0]
            if winner not in scale:
                off_scale.add(winner)
                skipped_off_scale += 1
                continue
            level = scale.level(winner)
            checked += 1
            if previous_level is not None and level < previous_level:
                drop = previous_level - level
                worst_drop = max(worst_drop, drop)
                violations.append({
                    "axis": axis,
                    "p_f": cell.p_f,
                    "p_d": cell.p_d,
                    "from": _label(previous_cell.best[0]),
                    "to": _label(winner),
                    "level_drop": drop,
                })
            previous_level, previous_cell = level, cell
    return {
        "claim": f"optimum-monotone-on-scale/{axis}",
        "checked": checked,
        "max_violation": float(worst_drop),
        "counterexamples": violations,
        "pass": not violations,
        "notes": {
            "skipped_ties": skipped_ties,
            "skipped_off_scale": skipped_off_scale,
            "off_scale_placements": sorted(_label(p) for p in off_scale),
        },
    }


def argmin_with_ties_two_temporaries(pes: np.ndarray):
    """The tie rule in its plainest form, with two P_e-sized temporaries.

    ``(tie, pe_min, margin, strict)`` as ``detection.argmin_with_ties``
    returns them; ``pes`` is left as it is.
    """
    pe_min = pes.min(axis=0)
    tie = (pes - pe_min[None, :]) <= TIE_EPS
    margin = np.where(tie, np.inf, pes).min(axis=0) - pe_min
    strict = tie.sum(axis=0) == 1
    return tie, pe_min, margin, strict


def region_json_by_cells(region_map, schema_version: str) -> str:
    """Sweep JSON from one dict per cell, dumped in one piece.

    Non-finite floats are written as their ``repr`` strings, since JSON has
    no infinity.
    """
    def finite(x: float):
        return x if math.isfinite(x) else repr(x)

    cells = [
        {
            "p_f": finite(cell.p_f),
            "p_d": finite(cell.p_d),
            "best": [_label(b) for b in cell.best],
            "pe_min": finite(cell.pe_min),
            "margin": finite(cell.margin),
            "strict": cell.strict,
        }
        for cell in region_map.cells
    ]
    body = {
        "schema_version": schema_version,
        "m": region_map.m,
        "n": region_map.n,
        "step": region_map.step,
        "cells": cells,
    }
    return json.dumps(body, indent=2) + "\n"


def region_csv_by_cells(region_map) -> str:
    """Sweep CSV rendered one cell at a time."""
    lines = ["p_f,p_d,best,tie_count,pe_min,margin"]
    for cell in region_map.cells:
        lines.append(
            f"{cell.p_f:.6g},{cell.p_d:.6g},{_label(cell.best[0])},{cell.tie_count},"
            f"{cell.pe_min!r},{cell.margin!r}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Closed forms and test-only references
# ---------------------------------------------------------------------------


def closed_form_pe2(placement, model: SensorModel) -> float:
    """Independent closed-form P_e for the two-sensor, two-point cases.

    Term-by-term transcription of the explicit four-observation minima for
    the placements (1,1) and (2); valid on the whole (p_f, p_d) unit square.
    Used as an oracle against ``error_probability``.
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


def flip_model(model: SensorModel) -> SensorModel:
    """Complementary model (1-p_d, 1-p_f).

    Inverting every alarm bit turns a detector for ``model`` into a detector
    for the flipped model, so the error probability is invariant under this
    map. It reduces the p_d < p_f half-plane to the p_d >= p_f half.
    """
    return SensorModel(1.0 - model.p_d, 1.0 - model.p_f)


M4_PLACEMENTS: tuple[Counts, ...] = ((4,), (3, 1), (2, 2), (2, 1, 1))


@dataclass(frozen=True)
class M4RegionVerdict:
    """Outcome of the closed-form region test at one point.

    ``placement`` is set when exactly one region expression fires; otherwise
    the point sits on (or numerically indistinguishable from) a boundary
    curve and ``ambiguous`` is set instead of guessing.
    """

    placement: Counts | None
    fired: tuple[Counts, ...]

    @property
    def ambiguous(self) -> bool:
        return self.placement is None


def m4_fired_grid(pf: np.ndarray, pd: np.ndarray) -> np.ndarray:
    """Boolean (4, G) array: which closed-form region holds at each point.

    The four expressions are polynomial inequalities in (p_f, p_d) that tile
    the p_d > p_f half-plane; shared boundary curves may satisfy zero or two
    of them, which callers must treat as boundary hits.
    """
    f, d = np.asarray(pf, dtype=float), np.asarray(pd, dtype=float)
    poly4 = (d - f) * (
        -(d + f) * (d**2 + f**2) + (d**2 + d * f + f**2) + (1.0 - f**3)
    )
    e4 = poly4 < 0.0

    gap31 = 2.0 * (d**2 - f**2) - (d - f) - (d**3 - f**3) - d * f**2 * (d - f)
    cube_lt = d**3 * (1.0 - d) < f**3 * (1.0 - f)
    cube_ge = d**3 * (1.0 - d) >= f**3 * (1.0 - f)
    sq_lt = d**2 * (1.0 - d) < f**2 * (1.0 - f)
    corner_gt = (d + f - 1.0) ** 2 > d * f * (1.0 - f)
    corner_le = (d + f - 1.0) ** 2 <= d * f * (1.0 - f)
    e31 = ((poly4 >= 0.0) & (gap31 < 0.0) & cube_lt) | (corner_gt & cube_ge & sq_lt)

    sym22 = (d**2 - f**2) * (2.0 - d**2 - 2.0 * f**2) >= 0.0
    gap22 = (
        2.0 * (d - f)
        + 2.0 * f**3 * (1.0 - f)
        - d * f**2 * (1.0 - f)
        - d * f**2 * (1.0 - d)
        - (d**2 - f**2)
        - f * (d - f)
    )
    e22 = (sym22 & (gap31 >= 0.0) & (gap22 <= 0.0) & cube_lt) | (
        (2.0 * (1.0 - f) < d) & corner_le & cube_ge
    )

    e21 = 2.0 * (1.0 - f) >= d
    return np.stack([e4, e31, e22, e21])


def region_predicate_m4(p_f: float, p_d: float) -> M4RegionVerdict:
    """Closed-form optimal placement for m = n = 4 at one (p_f, p_d) point.

    Evaluates the four printed region inequalities verbatim; requires
    p_d >= p_f. Exactly one firing expression names the optimum; zero or
    several mark a boundary point.
    """
    if p_d < p_f:
        raise ValueError(f"regions are defined for p_d >= p_f, got ({p_f}, {p_d})")
    fired_mask = m4_fired_grid(np.array([p_f]), np.array([p_d]))[:, 0]
    fired = tuple(M4_PLACEMENTS[i] for i in np.nonzero(fired_mask)[0])
    placement = fired[0] if len(fired) == 1 else None
    return M4RegionVerdict(placement=placement, fired=fired)


def strict_onset(region_map, counts: Counts) -> tuple[float | None, float | None]:
    """(last p_d row before ``counts`` first wins strictly, first row where it does).

    Scanning rows bottom-up; (None, None) when the placement never wins, and
    a None first element when it already wins on the lowest row.
    """
    rm = region_map
    if counts not in rm.partitions:
        return None, None
    wins = rm.strict & (rm.winner == rm.partitions.index(counts))
    if not wins.any():
        return None, None
    rows, first_node = np.unique(rm.i_d, return_index=True)
    k = int(np.searchsorted(rows, rm.i_d[wins].min()))
    row_pd = rm.pd[first_node]
    return (float(row_pd[k - 1]) if k > 0 else None), float(row_pd[k])
