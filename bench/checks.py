"""Output checks, run after the timed phase.

The reference here shares no code with the package: P_e is computed from
per-sensor position vectors with a leave-one-out minimum over hypotheses
(not the package's count blocks and ``S - max`` form), and partitions come
from an iterative generator instead of the package's recursive one.
Each checker returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import math

import numpy as np

PE_TOL = 1e-12
TIE_EPS = 1e-9  # placements within this P_e gap are tied (the CLI contract)
Z_MAX = 5.0
CSV_HEADER = "p_f,p_d,best,tie_count,pe_min,margin"


def partitions_desc(m: int) -> list[tuple[int, ...]]:
    """Partitions of m in reverse-lexicographic order, (m) first."""
    out = []
    part = [m]
    while True:
        out.append(tuple(part))
        # drop trailing ones, then decrement the last part above one
        ones = 0
        while part and part[-1] == 1:
            part.pop()
            ones += 1
        if not part:
            return out
        top = part.pop() - 1
        rest = ones + 1
        part.append(top)
        while rest > top:
            part.append(top)
            rest -= top
        if rest:
            part.append(rest)


def naive_pe(counts: tuple[int, ...], n: int, pd: float, pf: float) -> float:
    """P_e of the MAP detector: (1/n) sum_y min_i sum_{j != i} p_j(y)."""
    positions = np.array([j for j, v in enumerate(counts) for _ in range(v)])
    m = positions.size
    ys = np.arange(1 << m)[:, None]
    bits = ((ys >> np.arange(m - 1, -1, -1)[None, :]) & 1).astype(bool)
    like = np.empty((n, 1 << m))
    for j in range(n):
        p = np.where(positions == j, pd, pf)
        like[j] = np.where(bits, p, 1.0 - p).prod(axis=1)
    leave_one_out = like.sum(axis=0)[None, :] - like
    return float(leave_one_out.min(axis=0).sum() / n)


def naive_optimum(m: int, n: int, pd: float, pf: float):
    """(pe_min, tied labels in enumeration order, margin) over all partitions."""
    parts = partitions_desc(m)
    values = [naive_pe(p, n, pd, pf) for p in parts]
    pe_min = min(values)
    best = [label(p) for p, v in zip(parts, values) if v - pe_min <= TIE_EPS]
    rest = [v for v in values if v - pe_min > TIE_EPS]
    margin = min(rest) - pe_min if rest else math.inf
    return pe_min, best, margin


def label(counts) -> str:
    return "-".join(map(str, counts))


def _num(value) -> float:
    return float(value)  # the CLI writes non-finite floats as strings like "inf"


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= PE_TOL


def check_csv_pair(first: str, second: str, meta: dict, sample: list[int]) -> list[str]:
    """Two renderings of one map: identical bytes, right size, sampled nodes exact."""
    errors = []
    if first != second:
        errors.append("the two renderings of one sweep differ")
    lines = first.splitlines()
    step = meta["step"]
    side = round(1.0 / step) - 1
    if not lines or lines[0] != CSV_HEADER:
        return errors + [f"bad CSV header {lines[:1]}"]
    rows = lines[1:]
    if len(rows) != side * (side + 1) // 2:
        return errors + [f"{len(rows)} CSV rows, expected {side * (side + 1) // 2}"]
    for index in sample:
        f_txt, d_txt, best, ties, pe_txt, margin_txt = rows[index % len(rows)].split(",")
        # nodes are k*step; recover k so the reference sees the exact node
        pf = round(float(f_txt) / step) * step
        pd = round(float(d_txt) / step) * step
        pe_min, naive_best, margin = naive_optimum(meta["m"], meta["n"], pd, pf)
        where = f"node (p_f={f_txt}, p_d={d_txt})"
        if not _close(float(pe_txt), pe_min):
            errors.append(f"{where}: pe_min {pe_txt} != naive {pe_min!r}")
        if best != naive_best[0] or int(ties) != len(naive_best):
            errors.append(f"{where}: best {best} x{ties} != naive {naive_best}")
        if not _close(float(margin_txt), margin):
            errors.append(f"{where}: margin {margin_txt} != naive {margin!r}")
    return errors


def check_simulate_pair(one: dict, two: dict, meta: dict) -> list[str]:
    """Same input at --threads 1 and 2: equal counts, |z| <= 5, exact analytic P_e."""
    errors = []
    if one["errors"] != two["errors"]:
        errors.append(f"error counts differ across threads: {one['errors']} vs {two['errors']}")
    want = naive_pe(meta["counts"], meta["n"], meta["pd"], meta["pf"])
    for out in (one, two):
        if out["trials"] != meta["trials"] or out["seed"] != meta["seed"]:
            errors.append(f"echoed trials/seed {out['trials']}/{out['seed']}")
        if not _close(_num(out["analytic_pe"]), want):
            errors.append(f"analytic_pe {out['analytic_pe']!r} != naive {want!r}")
        pe_hat = out["errors"] / out["trials"]
        std_err = math.sqrt(pe_hat * (1.0 - pe_hat) / out["trials"])
        z = (pe_hat - want) / std_err if std_err > 0 else 0.0
        if abs(z) > Z_MAX:
            errors.append(f"|z| = {abs(z):.2f} > {Z_MAX} (errors {out['errors']})")
    return errors


def check_verify(out: dict) -> list[str]:
    reports = out.get("reports", [out])
    return [f"verify {r.get('claim')} did not pass" for r in reports if r.get("pass") is not True]


def self_test(samples: dict) -> dict[str, bool]:
    """Feed each checker a corrupted copy of a real result; True = flagged.

    ``samples`` maps a checker name to the arguments of one real, passing
    call. Corruptions are small: a 1e-9 shift, a swapped label, a changed
    count, one changed byte.
    """
    flagged = {}

    def bump(text: str) -> str:
        return repr(_num(text) + 1e-9)

    if "csv" in samples:
        first, second, meta, sample = samples["csv"]
        lines = first.splitlines()
        row = 1 + sample[0] % (len(lines) - 1)
        f, d, best, ties, pe, margin = lines[row].split(",")
        other = next(p for p in map(label, partitions_desc(meta["m"])) if p != best)
        for what, new in (("pe_min + 1e-9", f"{f},{d},{best},{ties},{bump(pe)},{margin}"),
                          ("swapped best label", f"{f},{d},{other},{ties},{pe},{margin}")):
            bad = "\n".join(lines[:row] + [new] + lines[row + 1:]) + "\n"
            flagged[f"region-map: {what}"] = bool(check_csv_pair(bad, bad, meta, sample[:1]))
        flagged["region-map: renderings differ by one byte"] = bool(
            check_csv_pair(first, second[:-1] + " ", meta, []))
    if "simulate" in samples:
        one, two, meta = samples["simulate"]
        flagged["monte-carlo: error count + 1 at 2 threads"] = bool(
            check_simulate_pair(one, {**two, "errors": two["errors"] + 1}, meta))
        # 12 standard errors: well past Z_MAX wherever within it the real z sits
        shift = 12 * max(one["std_err"], 1.0 / one["trials"]) * one["trials"]
        far = {**one, "errors": one["errors"] + math.ceil(shift)}
        flagged["monte-carlo: errors moved 12 standard errors"] = bool(
            check_simulate_pair(far, {**two, "errors": far["errors"]}, meta))
    if "verify" in samples:
        (out,) = samples["verify"]
        reports = out.get("reports", [out])
        broken = [{**reports[0], "pass": False}, *reports[1:]]
        flagged["verify: one report fails"] = bool(check_verify({"reports": broken}))
    return flagged
