"""(p_f, p_d)-plane sweeps, region maps, and structural verifiers.

A region map evaluates the brute-force optimum at every node of a regular
grid over the unit square (by default restricted to the p_d >= p_f half where
sensors are better than chance). The map is a set of per-node arrays (the
minimum, the full tie set, the margin and strictness); the CSV and JSON
writers render them a block of nodes at a time. Tie nodes keep their full
tie set; nothing is ever broken silently. On top of the maps sit
numerical verifiers for the structural claims, all reading the arrays:
uniform placement is never the unique optimum when m = n, scaled P_e
differences are invariant in the point count, adding one extra point
enlarges the strict-optimal set by exactly the uniform placement, the
optimum moves monotonically along a majorization chain for m <= 5, and
that monotonicity fails for (m, n) = (7, 8).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .detection import BudgetError, argmin_with_ties, check_call, optimal_placements, partition_pes
from .majorization import MajorizationVerdict, PlacementScale, chain_sort, compare, is_chain
from .model import SensorModel, placement_label
from .partitions import MAX_M, enumerate_partitions

STEP_MIN = 1e-3
STEP_MAX = 0.1

CSV_BLOCK_NODES = 4096
"""Nodes per block of the CSV and JSON writers: their per-node lists stay this short."""

PE_BLOCK_ENTRIES = 1 << 20
"""P_e entries (8 MiB: partitions x point counts x nodes) a region map folds at a time.

Smaller blocks made verify maps slower: the kernel's 512 KiB slice temporaries stay on
glibc's heap only after a free this large has raised its mmap threshold."""

THM41_TOL = 1e-12
THM42_TOL = 1e-10

Counts = tuple[int, ...]


@dataclass(frozen=True)
class RegionCell:
    """Brute-force optimum at one grid node; ``best`` keeps all ties.

    Built on demand from a :class:`RegionMap`'s arrays by ``cells[g]``.
    """

    i_f: int
    i_d: int
    p_f: float
    p_d: float
    best: tuple[Counts, ...]
    pe_min: float
    margin: float
    strict: bool

    @property
    def tie_count(self) -> int:
        return len(self.best)


@dataclass(frozen=True, eq=False)
class RegionMap:
    """Optimal-placement structure over a (p_f, p_d) grid, as per-node arrays.

    Nodes are stored in row order: p_d ascending outer, p_f ascending inner.
    ``step`` is None for ad-hoc window maps built from explicit axis values.
    Node g sits at axis indices ``i_f[g]``, ``i_d[g]`` and values ``pf[g]``,
    ``pd[g]``. ``tie``, ``pe_min``, ``margin`` and ``strict`` are the
    :func:`~placedet.detection.argmin_with_ties` of the partitions' P_e,
    folded in block by block, so P_e is never held whole; ``winner[g]``
    indexes the first tied partition, the unique one at a strict node.
    ``cells`` shows the same nodes as :class:`RegionCell` objects. Maps
    compare by identity (array fields have no single truth value).
    """

    m: int
    n: int
    step: float | None
    region: str
    pf_values: tuple[float, ...]
    pd_values: tuple[float, ...]
    partitions: tuple[Counts, ...]
    i_f: np.ndarray
    i_d: np.ndarray
    pf: np.ndarray
    pd: np.ndarray
    tie: np.ndarray
    pe_min: np.ndarray
    margin: np.ndarray
    strict: np.ndarray
    winner: np.ndarray

    @property
    def cells(self) -> RegionCells:
        """The nodes as :class:`RegionCell` objects, each built when read."""
        return RegionCells(self)

    def strict_placements(self) -> set[Counts]:
        """Every placement that is the unique optimum somewhere on the map."""
        wins = np.bincount(self.winner[self.strict], minlength=len(self.partitions))
        return {self.partitions[i] for i in np.flatnonzero(wins).tolist()}


class RegionCells(Sequence):
    """Read-only sequence view of a map's nodes; ``len`` costs nothing."""

    def __init__(self, region_map: RegionMap) -> None:
        self._map = region_map

    def __len__(self) -> int:
        return self._map.pe_min.size

    def __getitem__(self, index):
        g = range(len(self))[index]
        if isinstance(g, range):
            return tuple(self[i] for i in g)
        rm = self._map
        return RegionCell(
            i_f=int(rm.i_f[g]),
            i_d=int(rm.i_d[g]),
            p_f=float(rm.pf[g]),
            p_d=float(rm.pd[g]),
            best=tuple(rm.partitions[i] for i in np.nonzero(rm.tie[:, g])[0]),
            pe_min=float(rm.pe_min[g]),
            margin=float(rm.margin[g]),
            strict=bool(rm.strict[g]),
        )


def grid_values(step: float) -> tuple[float, ...]:
    """Grid nodes k*step for k = 1 .. round(1/step) - 1 (covers [step, 1-step]).

    ``STEP_MIN`` bounds the node count, so a positive step below it is
    refused as a budget (:class:`BudgetError`); a step of 0 or below, above
    ``STEP_MAX``, or NaN, is a bad value (``ValueError``).
    """
    if not 0.0 < step <= STEP_MAX:  # NaN and -inf fail this too
        raise ValueError(f"step {step} outside [{STEP_MIN}, {STEP_MAX}]")
    if step < STEP_MIN:
        raise BudgetError(f"step {step} outside [{STEP_MIN}, {STEP_MAX}]")
    top = round(1.0 / step) - 1
    return tuple(k * step for k in range(1, top + 1))


def sweep_plane(m: int, n: int, step: float, region: str = "pd_ge_pf") -> RegionMap:
    """Brute-force optimum at every grid node.

    ``region`` is ``pd_ge_pf`` (default, the half-plane the structural
    results live on) or ``full`` (whole square, e.g. to exercise the
    bit-flip symmetry). Deterministic: node order, partition order and the
    tie rule are all fixed, so repeated runs emit identical CSV bytes.
    A map whose work exceeds ``detection.WORK_BUDGET`` raises
    :class:`BudgetError` before any table is built.
    """
    return sweep_planes(m, (n,), step, region)[0]


def sweep_planes(
    m: int, n_values: Sequence[int], step: float, region: str = "pd_ge_pf"
) -> list[RegionMap]:
    """:func:`sweep_plane` at each point count in ``n_values``, from shared ``partition_pes`` calls.

    The maps of one m share each slice's likelihood table, so it is built
    once for all of them; each map equals its own ``sweep_plane``.
    """
    if region not in ("pd_ge_pf", "full"):
        raise ValueError(f"unknown region {region!r}")
    values = grid_values(step)
    return _region_maps(m, tuple(n_values), step, region, values, values)


def sweep_window(
    m: int, n: int, pf_values: tuple[float, ...], pd_values: tuple[float, ...]
) -> RegionMap:
    """Region map over an explicit rectangle of axis values (no half-plane cut)."""
    return _region_maps(m, (n,), None, "window", tuple(pf_values), tuple(pd_values))[0]


def _nodes(pf_values, pd_values, half_plane: bool):
    """``(i_f, i_d, pf, pd)`` of every node, p_d outer and p_f inner.

    ``half_plane`` keeps only the nodes with p_d >= p_f.
    """
    pf_axis, pd_axis = np.asarray(pf_values, dtype=float), np.asarray(pd_values, dtype=float)
    i_d, i_f = np.indices((pd_axis.size, pf_axis.size)).reshape(2, -1)
    if half_plane:
        keep = pd_axis[i_d] >= pf_axis[i_f]
        i_d, i_f = i_d[keep], i_f[keep]
    return i_f, i_d, pf_axis[i_f], pd_axis[i_d]


def _region_maps(m, n_values, step, region, pf_values, pd_values) -> list[RegionMap]:
    """Region maps of every partition of m at each n of ``n_values``, sharing their node arrays.

    Checked whole by ``check_call``; each block of ``PE_BLOCK_ENTRIES`` P_e entries is then
    folded into the maps' arrays, made after the first block's kernel (as argmin's outputs were).
    """
    i_f, i_d, pf, pd = _nodes(pf_values, pd_values, region == "pd_ge_pf")
    parts = enumerate_partitions(m)
    check_call(parts, n_values, pf, pd)
    folds, width = [], max(1, PE_BLOCK_ENTRIES // (len(parts) * len(n_values)))
    for lo in range(0, max(pf.size, 1), width):  # an empty map folds one empty block
        nodes = slice(lo, lo + width)
        pes = partition_pes(parts, n_values, pf[nodes], pd[nodes])
        folds = folds or [(np.empty((len(parts), pf.size), bool), np.empty(pf.size),
                           np.empty(pf.size), np.empty(pf.size, bool), np.empty(pf.size, np.intp))
                          for _ in n_values]
        for j, (tie, pe_min, margin, strict, winner) in enumerate(folds):
            argmin_with_ties(pes[j], (tie[:, nodes], pe_min[nodes], margin[nodes], strict[nodes]))
            winner[nodes] = tie[:, nodes].argmax(axis=0)
        del pes  # so the next block is not evaluated beside this one
    return [RegionMap(m, n, step, region, pf_values, pd_values, parts, i_f, i_d, pf, pd, *fold)
            for n, fold in zip(n_values, folds)]


def region_csv_text(region_map: RegionMap):
    """CSV dump as text blocks: one row per node, row order = p_d outer / p_f inner ascending.

    Yields the header, then the rows ``CSV_BLOCK_NODES`` nodes at a time, so
    no per-node list or text spans the map; ``"".join`` gives the whole file.
    """
    rm = region_map
    labels = [placement_label(p) for p in rm.partitions]
    pf_labels = [f"{float(p):.6g}" for p in rm.pf_values]  # each axis value formatted once
    pd_labels = [f"{float(p):.6g}" for p in rm.pd_values]
    yield "p_f,p_d,best,tie_count,pe_min,margin\n"
    for lo in range(0, rm.pe_min.size, CSV_BLOCK_NODES):
        nodes = slice(lo, lo + CSV_BLOCK_NODES)
        columns = zip(rm.i_f[nodes].tolist(), rm.i_d[nodes].tolist(), rm.winner[nodes].tolist(),
                      rm.tie[:, nodes].sum(axis=0).tolist(), rm.pe_min[nodes].tolist(),
                      rm.margin[nodes].tolist())
        yield "".join([
            f"{pf_labels[i_f]},{pd_labels[i_d]},{labels[w]},{ties},{pe_min!r},{margin!r}\n"
            for i_f, i_d, w, ties, pe_min, margin in columns
        ])


def region_json_text(region_map: RegionMap, schema_version: str):
    """JSON dump as text blocks like the CSV's, with every tie set; an inf margin reads ``"inf"``.

    Each cell is written from a template, as ``json.dumps(indent=2)`` lays
    it out inside the envelope: floats by ``repr``, and labels quoted as
    they are, since digits and dashes need no escapes. Only the envelope
    goes through ``json.dumps``; ``"".join`` gives the whole file.
    """
    rm = region_map
    quoted = ['"' + placement_label(p) + '"' for p in rm.partitions]
    envelope = {"schema_version": schema_version, "m": rm.m, "n": rm.n, "step": rm.step}
    head, _, tail = json.dumps({**envelope, "cells": []}, indent=2).rpartition("[]")
    yield head + "["
    for lo in range(0, rm.pe_min.size, CSV_BLOCK_NODES):
        nodes = slice(lo, lo + CSV_BLOCK_NODES)
        best = [[] for _ in range(rm.pe_min[nodes].size)]
        for g, i in np.argwhere(rm.tie[:, nodes].T).tolist():  # node-major: partitions ascending
            best[g].append(quoted[i])
        columns = zip(rm.pf[nodes].tolist(), rm.pd[nodes].tolist(), best, rm.pe_min[nodes].tolist(),
                      rm.margin[nodes].tolist(), rm.strict[nodes].tolist())
        cells = []
        for f, d, b, pe, mg, s in columns:
            best_text = "[\n        " + ",\n        ".join(b) + "\n      ]" if b else "[]"
            margin = repr(mg) if math.isfinite(mg) else f'"{mg!r}"'
            cells.append(
                f'\n    {{\n      "p_f": {f!r},\n      "p_d": {d!r},\n      "best": {best_text},'
                f'\n      "pe_min": {pe!r},\n      "margin": {margin},'
                f'\n      "strict": {"true" if s else "false"}\n    }}'
            )
        yield "," * (lo > 0) + ",".join(cells)  # led by the comma after the block before
    yield ("\n  ]" if rm.pe_min.size else "]") + tail + "\n"


def write_atomic(path: str, blocks) -> None:
    """Write the text ``blocks`` (an iterable of ``str``, each written as it comes) to ``path``.

    They go to a temp file in the target directory, renamed over ``path``
    after the last block (mode 0o666 less the umask); on a fault, ``path``
    is left as it was. A bare ``str`` is written a character at a time.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")  # mode 0o600
    umask = os.umask(0o22)  # setting the umask is the only way to read it
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(fd, 0o666 & ~umask)
            handle.writelines(blocks)  # one write per block, none joined
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numerical claim check."""

    claim: str
    checked: int
    max_violation: float
    counterexamples: tuple
    passed: bool
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "checked": self.checked,
            "max_violation": self.max_violation,
            "counterexamples": list(self.counterexamples),
            "pass": self.passed,
        }
        if self.notes:
            out["notes"] = self.notes
        return out


def verify_thm41(m_max: int = 5, step: float = 0.02) -> VerificationReport:
    """Uniform placement never beats moving one sensor onto a neighbour.

    For every m = n <= m_max and every grid node, checks
    P_e(1,...,1) >= P_e(2,1,...,1,0) - tol on the p_d >= p_f half-plane.
    The claim starts at m = 2, so ``m_max`` < 2 would check nothing; an
    ``m_max`` above ``partitions.MAX_M`` is refused before any table is built.
    """
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    if m_max > MAX_M:
        raise ValueError(f"m_max={m_max} exceeds the sensor bound {MAX_M}")
    values = grid_values(step)
    _, _, pf, pd = _nodes(values, values, half_plane=True)
    checked = 0
    worst = -math.inf
    counterexamples = []
    for m in range(2, m_max + 1):
        uniform = (1,) * m
        doubled = (2,) + (1,) * (m - 2)
        pe_uni, pe_two = partition_pes((uniform, doubled), (m,), pf, pd)[0]
        excess = pe_two - pe_uni
        checked += pf.size
        worst = max(worst, float(excess.max()))
        for g in np.nonzero(excess > THM41_TOL)[0]:
            counterexamples.append(
                {"m": m, "p_f": float(pf[g]), "p_d": float(pd[g]), "excess": float(excess[g])}
            )
    return VerificationReport(
        claim="uniform-never-strictly-optimal",
        checked=checked,
        max_violation=max(worst, 0.0),
        counterexamples=tuple(counterexamples),
        passed=worst <= THM41_TOL and not counterexamples,
        notes={"worst_excess": worst, "tolerance": THM41_TOL},
    )


def verify_thm42(m: int, n1: int, n2: int, step: float = 0.05) -> VerificationReport:
    """Scaled P_e differences are invariant in the number of points.

    For m < n1 < n2 and every pair of placements (v, w):
    n2*(P_e(v)|n2 - P_e(w)|n2) == n1*(P_e(v)|n1 - P_e(w)|n1), checked on a
    full-square grid to tolerance 1e-10. Equal differences force equal argmin
    structure, so maps for (m, n1) and (m, n2) share their region geometry.
    """
    if not m < n1 < n2:
        raise ValueError(f"require m < n1 < n2, got {m}, {n1}, {n2}")
    values = grid_values(step)
    _, _, pf, pd = _nodes(values, values, half_plane=False)
    parts = enumerate_partitions(m)
    pe1, pe2 = partition_pes(parts, (n1, n2), pf, pd)
    checked = 0
    worst = 0.0
    counterexamples = []
    for i, v in enumerate(parts):
        for j, w in enumerate(parts[i + 1 :], i + 1):
            dev = np.abs(n2 * (pe2[i] - pe2[j]) - n1 * (pe1[i] - pe1[j]))
            checked += pf.size
            worst = max(worst, float(dev.max()))
            for g in np.nonzero(dev > THM42_TOL)[0]:
                counterexamples.append(
                    {
                        "v": list(v),
                        "w": list(w),
                        "p_f": float(pf[g]),
                        "p_d": float(pd[g]),
                        "deviation": float(dev[g]),
                    }
                )
    return VerificationReport(
        claim="scaled-pe-difference-invariant-in-n",
        checked=checked,
        max_violation=worst,
        counterexamples=tuple(counterexamples),
        passed=worst <= THM42_TOL and not counterexamples,
        notes={"tolerance": THM42_TOL},
    )


def verify_cor41(m: int, step: float = 0.01) -> VerificationReport:
    """Adding one empty point enlarges the strict-optimal set by exactly uniform.

    Sweeps (m, m) and (m, m+1) and compares strict-optimal inventories:
    strict(m, m+1) must equal strict(m, m) plus the uniform placement, and
    uniform must actually win strictly somewhere on the (m, m+1) map.
    """
    if m > 5:
        raise ValueError(f"strict-set growth check supported for m <= 5, got m={m}")
    base, extra = sweep_planes(m, (m, m + 1), step)
    strict_base = base.strict_placements()
    strict_extra = extra.strict_placements()
    uniform = (1,) * m
    expected = strict_base | {uniform}
    missing = sorted(expected - strict_extra)
    surplus = sorted(strict_extra - expected)
    uniform_strict = uniform in strict_extra
    counterexamples = [
        *({"missing_at_n_plus_1": list(p)} for p in missing),
        *({"unexpected_at_n_plus_1": list(p)} for p in surplus),
    ]
    if not uniform_strict:
        counterexamples.append({"uniform_never_strict_at_n_plus_1": list(uniform)})
    passed = not counterexamples
    return VerificationReport(
        claim="strict-set-grows-by-uniform",
        checked=base.pe_min.size + extra.pe_min.size,
        max_violation=float(len(missing) + len(surplus)),
        counterexamples=tuple(counterexamples),
        passed=passed,
        notes={
            "strict_at_n_equal_m": sorted(placement_label(p) for p in strict_base),
            "strict_at_n_plus_1": sorted(placement_label(p) for p in strict_extra),
        },
    )


def check_monotone_on_scale(
    region_map: RegionMap, scale: PlacementScale, axis: str
) -> VerificationReport:
    """Strict optima must climb the scale as p_f (or p_d) increases.

    Walks each grid row (axis ``increasing_pf``) or column (``increasing_pd``)
    and requires the scale level of consecutive strict optima to be
    non-decreasing. Tie cells are skipped and counted; strict cells whose
    optimum is not on the supplied scale are likewise skipped and counted
    (callers that need the scale to be exhaustive assert that count is zero).
    """
    if axis not in ("increasing_pf", "increasing_pd"):
        raise ValueError(f"unknown axis {axis!r}")
    rm = region_map
    labels = [placement_label(p) for p in rm.partitions]
    # -1 marks a partition that is not on the scale
    levels = np.array([scale.level(p) if p in scale else -1 for p in rm.partitions], dtype=int)
    level = levels[rm.winner]
    counted = rm.strict & (level >= 0)
    off_scale = rm.strict & (level < 0)
    # nodes are stored p_d-major with p_f ascending, so a stable sort by lane
    # leaves each lane in ascending order along it
    lane = rm.i_d if axis == "increasing_pf" else rm.i_f
    order = np.argsort(lane, kind="stable")
    walk = order[counted[order]]  # counted nodes, lane by lane, ascending along each
    drop = level[walk][:-1] - level[walk][1:]
    hits = np.nonzero((lane[walk][1:] == lane[walk][:-1]) & (drop > 0))[0]
    violations = [
        {
            "axis": axis,
            "p_f": float(rm.pf[g]),
            "p_d": float(rm.pd[g]),
            "from": labels[rm.winner[prev]],
            "to": labels[rm.winner[g]],
            "level_drop": d,
        }
        for prev, g, d in zip(
            walk[hits].tolist(), walk[hits + 1].tolist(), drop[hits].tolist()
        )
    ]
    worst_drop = max((v["level_drop"] for v in violations), default=0)
    return VerificationReport(
        claim=f"optimum-monotone-on-scale/{axis}",
        checked=int(counted.sum()),
        max_violation=float(worst_drop),
        counterexamples=tuple(violations),
        passed=not violations,
        notes={
            "skipped_ties": int((~rm.strict).sum()),
            "skipped_off_scale": int(off_scale.sum()),
            "off_scale_placements": sorted({labels[i] for i in rm.winner[off_scale].tolist()}),
        },
    )


def full_partition_scale(m: int) -> PlacementScale:
    """Chain of all partitions of m; exists only for m <= 5.

    The first incomparable pairs appear at m = 6 ((4,1,1) vs (3,3)), which is
    exactly why the monotonicity result stops there; ``chain_sort`` refuses
    those with the first incomparable pair.
    """
    return chain_sort(enumerate_partitions(m))


def verify_prop51(m: int, n: int, step: float = 0.01) -> VerificationReport:
    """Monotone-on-scale check on both axes for one (m, n) map, m <= 5."""
    return verify_prop51_pairs(((m, n),), step)[0]


def verify_prop51_pairs(
    pairs: Sequence[tuple[int, int]], step: float = 0.01
) -> list[VerificationReport]:
    """:func:`verify_prop51` of each (m, n) in order; a run of one m is swept in one call."""
    reports = []
    for m, run in itertools.groupby(pairs, key=lambda pair: pair[0]):
        scale = full_partition_scale(m)
        for region_map in sweep_planes(m, [n for _, n in run], step):
            reports.append(_prop51_report(scale, region_map))
    return reports


def _prop51_report(scale: PlacementScale, region_map: RegionMap) -> VerificationReport:
    """Both axes of :func:`check_monotone_on_scale` as one report."""
    by_pf = check_monotone_on_scale(region_map, scale, "increasing_pf")
    by_pd = check_monotone_on_scale(region_map, scale, "increasing_pd")
    return VerificationReport(
        claim=f"optimum-monotone-on-scale/m{region_map.m}n{region_map.n}",
        checked=by_pf.checked + by_pd.checked,
        max_violation=max(by_pf.max_violation, by_pd.max_violation),
        counterexamples=by_pf.counterexamples + by_pd.counterexamples,
        passed=by_pf.passed and by_pd.passed,
        notes={
            "skipped_ties": by_pf.notes["skipped_ties"] + by_pd.notes["skipped_ties"],
            "skipped_off_scale": by_pf.notes["skipped_off_scale"]
            + by_pd.notes["skipped_off_scale"],
            "scale": [placement_label(p) for p in scale.members],
        },
    )


COUNTEREXAMPLE_PROBES: tuple[tuple[float, float, Counts], ...] = (
    (0.46, 0.6, (3, 2, 1, 1)),
    (0.48, 0.6, (2, 2, 2, 1)),
    (0.48, 0.5, (3, 2, 1, 1)),
)


def verify_counterexample() -> VerificationReport:
    """Monotone-on-scale fails for seven sensors on eight points.

    Reproduces the three probe optima at (p_f, p_d) in
    {(0.46, 0.6), (0.48, 0.6), (0.48, 0.5)} and then demands that a local
    window around them violates scale monotonicity on both axes: the optimum
    steps *down* from (3,2,1,1) to the lower (2,2,2,1) as either parameter
    grows. Passing means the violation was found.
    """
    m, n = 7, 8
    mismatches = []
    for p_f, p_d, expected in COUNTEREXAMPLE_PROBES:
        opt = optimal_placements(m, n, SensorModel(p_d=p_d, p_f=p_f))
        got = opt.best[0].counts if opt.strict else None
        if not opt.strict or got != expected:
            mismatches.append(
                {
                    "p_f": p_f,
                    "p_d": p_d,
                    "expected": list(expected),
                    "got": None if got is None else list(got),
                    "strict": opt.strict,
                }
            )
    pf_axis = tuple(0.46 + 0.01 * i for i in range(3))
    pd_axis = tuple(0.50 + 0.01 * i for i in range(11))
    window = sweep_window(m, n, pf_axis, pd_axis)
    scale = chain_sort([(3, 2, 1, 1), (2, 2, 2, 1)])
    by_pf = check_monotone_on_scale(window, scale, "increasing_pf")
    by_pd = check_monotone_on_scale(window, scale, "increasing_pd")
    found_both = bool(by_pf.counterexamples) and bool(by_pd.counterexamples)
    passed = not mismatches and found_both
    return VerificationReport(
        claim="monotone-on-scale-fails-for-7-sensors-8-points",
        checked=len(COUNTEREXAMPLE_PROBES) + window.pe_min.size,
        max_violation=float(len(mismatches)),
        counterexamples=tuple(mismatches),
        passed=passed,
        notes={
            "violations_increasing_pf": list(by_pf.counterexamples),
            "violations_increasing_pd": list(by_pd.counterexamples),
        },
    )


def check_conjecture_chain(region_map: RegionMap) -> VerificationReport:
    """Look for a set of optimal placements that forms a single chain.

    Strict optima are forced members; if they are pairwise comparable, tie
    cells are covered greedily, preferring representatives already chosen and
    otherwise extending the chain with a compatible tie member. Evidence
    gathering only: a found chain supports the chain hypothesis on this map,
    a failure pinpoints the obstruction.
    """
    strict = sorted(region_map.strict_placements(), reverse=True)
    ok, pair = is_chain(strict)
    if not ok:
        return VerificationReport(
            claim="optimal-chain-exists",
            checked=region_map.pe_min.size,
            max_violation=1.0,
            counterexamples=({"incomparable_strict_pair": [placement_label(p) for p in pair]},),
            passed=False,
            notes={"strict_set": [placement_label(p) for p in strict]},
        )
    parts = region_map.partitions
    chosen: set[Counts] = set(strict)
    uncovered = []
    for g in np.nonzero(~region_map.strict)[0].tolist():
        best = [parts[i] for i in np.nonzero(region_map.tie[:, g])[0]]
        if any(b in chosen for b in best):
            continue
        # chosen is a chain, so b extends it exactly when b is comparable
        # with every member
        compatible = [
            b
            for b in best
            if all(compare(b, c) is not MajorizationVerdict.INCOMPARABLE for c in chosen)
        ]
        if compatible:
            chosen.add(compatible[0])
        else:
            uncovered.append(
                {
                    "p_f": float(region_map.pf[g]),
                    "p_d": float(region_map.pd[g]),
                    "tie_set": [placement_label(b) for b in best],
                }
            )
    passed = not uncovered
    chain = chain_sort(sorted(chosen)) if chosen else PlacementScale(members=())
    return VerificationReport(
        claim="optimal-chain-exists",
        checked=region_map.pe_min.size,
        max_violation=float(len(uncovered)),
        counterexamples=tuple(uncovered),
        passed=passed,
        notes={
            "chain": [placement_label(p) for p in chain.members],
            "strict_set": [placement_label(p) for p in strict],
        },
    )
