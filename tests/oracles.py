"""Independent brute-force oracles the tests check the package against.

Everything here is deliberately naive: per-sensor position vectors instead of
count blocks, leave-one-out sums instead of the S - max shortcut, and the
classical pentagonal-number recurrence for partition counts. None of it
shares code with the package paths it validates. The region-map oracles walk
``RegionMap.cells`` one ``RegionCell`` at a time instead of reading the
map's per-node arrays. ``pe_exact`` is the one exact reference: rational
arithmetic, no rounding at all. ``pe_grid_full_table`` is the exception
that proves a rewrite changed no bits: it repeats the grid kernel's
arithmetic in its plainest array form.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

import numpy as np


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


def pmf_from_positions(bits, j: int, positions, pd: float, pf: float) -> float:
    """Joint alarm probability as a plain product over sensors."""
    prob = 1.0
    for y_k, u_k in zip(bits, positions):
        p = pd if u_k == j else pf
        prob *= p if y_k else (1.0 - p)
    return prob


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


def pe_grid_full_table(exponents, mult, weight, n: int, pf, pd) -> np.ndarray:
    """Grid P_e from the full (rows, classes, nodes) likelihood table.

    Takes a ``count_classes`` table and equal-length node arrays. Builds the
    powers over the whole grid, one 1-D ``np.power`` of the stacked bases per
    exponent (an element's bits then do not depend on the array's length),
    forms every row x class likelihood with four gathers and three
    multiplies, and sums in the grid kernel's order: rows one after another,
    the empty row weighted by its multiplicity, then the classes one after
    another in the S - max form. The sums are written out as loops, not
    numpy reductions, which add pairwise along a contiguous axis, so the
    order is the same for one node and for many, and the kernel must match
    this bit for bit.
    """
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


def region_csv_by_cells(region_map) -> str:
    """Sweep CSV rendered one cell at a time."""
    lines = ["p_f,p_d,best,tie_count,pe_min,margin"]
    for cell in region_map.cells:
        lines.append(
            f"{cell.p_f:.6g},{cell.p_d:.6g},{_label(cell.best[0])},{cell.tie_count},"
            f"{cell.pe_min!r},{cell.margin!r}"
        )
    return "\n".join(lines) + "\n"
