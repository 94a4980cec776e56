"""Command-line entry point.

Subcommands expose the exact evaluator (``pe``), the brute-force search
(``optimal``), the partition and majorization utilities, the plane sweep CSV
writer, the Monte Carlo cross-check, and the structural verifiers. Outputs
are JSON (CSV for sweeps and the majorization matrix) and are pure functions
of the arguments, so repeated runs are byte-identical. Exit status: 0 on
success / verification pass, 1 on verification failure, 2 on usage errors,
refused inputs or compute budgets and any other fault. Every status-2 exit
writes exactly one line to stderr, ``error: ...`` or ``refused: ...``, and
no traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import analysis, montecarlo
from .detection import BudgetError, error_probability, optimal_placements
from .majorization import MajorizationVerdict, compare
from .model import Placement, SensorModel, canonicalize_placement, placement_label
from .partitions import enumerate_partitions

SCHEMA_VERSION = "1"

_VERIFY_FLAGS = {  # the value flags each verify target reads; --threads is accepted, not read
    "thm41": ("max_m", "step"),
    "thm42": ("m", "n1", "n2", "step"),
    "cor41": ("m", "step"),
    "prop51": ("m", "n", "step"),
    "counterexample": (),
    "conjecture": ("m", "n", "step"),
}
_PROP51_PAIRS = ((3, 3), (3, 4), (4, 4), (4, 5), (5, 6))


def _parse_placement(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"placement must be dash-joined integers like 2-1-1-0, got {text!r}"
        ) from None


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on one stderr line; subparsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"error: {_one_line(message)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="placedet",
        description="Exact sensor-placement toolkit for intruder detection.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_model(p: argparse.ArgumentParser) -> None:
        p.add_argument("--pd", type=float, required=True, help="per-sensor detection probability")
        p.add_argument("--pf", type=float, required=True, help="per-sensor false-alarm probability")

    p_pe = sub.add_parser("pe", help="exact error probability of one placement")
    p_pe.add_argument("--m", type=int, help="total sensors (validated against --placement)")
    p_pe.add_argument("--n", type=int, required=True)
    add_model(p_pe)
    p_pe.add_argument("--placement", type=_parse_placement, required=True)
    p_pe.add_argument("--out")

    p_opt = sub.add_parser("optimal", help="brute-force optimal placements")
    p_opt.add_argument("--m", type=int, required=True)
    p_opt.add_argument("--n", type=int, required=True)
    add_model(p_opt)
    p_opt.add_argument("--out")

    p_parts = sub.add_parser("partitions", help="list all placements of m sensors")
    p_parts.add_argument("--m", type=int, required=True)
    p_parts.add_argument("--out")

    p_maj = sub.add_parser("majorize", help="majorization comparability matrix (CSV)")
    p_maj.add_argument("--m", type=int, required=True)
    p_maj.add_argument("--out")

    p_sweep = sub.add_parser("sweep", help="optimal-placement region map over the plane")
    p_sweep.add_argument("--m", type=int, required=True)
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--step", type=float, default=0.005)
    p_sweep.add_argument("--region", choices=("pd_ge_pf", "full"), default="pd_ge_pf")
    p_sweep.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="accepted and not read: only simulate reads --threads")
    p_sweep.add_argument("--out")

    p_sim = sub.add_parser("simulate", help="Monte Carlo cross-check of the evaluator")
    p_sim.add_argument("--m", type=int)
    p_sim.add_argument("--n", type=int, required=True)
    add_model(p_sim)
    p_sim.add_argument("--placement", type=_parse_placement, required=True)
    p_sim.add_argument("--trials", type=int, default=1_000_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--ties", dest="tie_rule", choices=("uniform", "lowest"), default="uniform")
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.add_argument("--out")

    p_ver = sub.add_parser("verify", help="numerical verification of the structural claims")
    p_ver.add_argument("target", choices=tuple(_VERIFY_FLAGS))
    p_ver.add_argument("--m", type=int)
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--n1", type=int)
    p_ver.add_argument("--n2", type=int)
    p_ver.add_argument("--max-m", dest="max_m", type=int)
    p_ver.add_argument("--step", type=float)
    p_ver.add_argument("--threads", type=int, default=1,
                       help="accepted and not read: only simulate reads --threads")
    p_ver.add_argument("--out")
    return parser


def validate(args: argparse.Namespace) -> None:
    """Apply the rules only the command line knows, in place; raise ``ValueError``.

    These are: ``--m`` equals the ``--placement`` total (m is set from it),
    ``--threads >= 1`` (capped at the CPU count; ``sweep`` and ``verify``
    accept it, only ``simulate`` uses it, and no output depends on it), a
    ``--placement`` of no more entries than ``--n`` (zeros included: a
    placement itself keeps only its occupied counts), the ``--ties`` names,
    the flags ``verify thm42``, ``conjecture`` and ``prop51`` need, and that
    no ``verify`` target is given a value flag it does not read. Each rule on values (ranges, m <= n, the sensor bound,
    trials, m < n1 < n2) belongs to the library call that refuses it.
    """
    ns = vars(args)  # the namespace's own dict: writes land on args
    placement = ns.get("placement")
    if placement is not None:
        total = sum(placement)
        if ns["m"] not in (None, total):
            raise ValueError(f"--m {ns['m']} does not match placement total {total}")
        ns["m"] = total
    if "threads" in ns:
        if ns["threads"] < 1:
            raise ValueError(f"--threads must be >= 1, got {ns['threads']}")
        ns["threads"] = min(ns["threads"], os.cpu_count() or 1)
    if placement is not None and len(placement) > ns["n"]:
        raise ValueError(f"count vector of length {len(placement)} exceeds n={ns['n']}")
    if "tie_rule" in ns:
        ns["tie_rule"] = {"uniform": "uniform_random", "lowest": "lowest_index"}[ns["tie_rule"]]
    target = ns.get("target")
    if target is not None:
        unread = [
            "--" + flag.replace("_", "-")
            for flag in ("m", "n", "n1", "n2", "max_m", "step")
            if ns[flag] is not None and flag not in _VERIFY_FLAGS[target]
        ]
        if unread:
            raise ValueError(f"verify {target} does not read {', '.join(unread)}")
    if target == "thm42" and None in (ns["m"], ns["n1"], ns["n2"]):
        raise ValueError("verify thm42 requires --m, --n1 and --n2")
    if target == "conjecture" and None in (ns["m"], ns["n"]):
        raise ValueError("verify conjecture requires --m and --n")
    if target == "prop51" and (ns["m"] is None) != (ns["n"] is None):
        raise ValueError("verify prop51 takes --m and --n together (or neither)")


def _jsonable(value):
    """Make floats JSON-safe: non-finite values become strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(blocks, out: str | None) -> None:
    """Write each text block as it comes; a fault mid-stdout leaves the blocks before it."""
    if out is None:
        sys.stdout.writelines(blocks)  # one write per block, none joined
        return
    try:
        analysis.write_atomic(out, blocks)
    except OSError as exc:  # name the user's path, not write_atomic's temp file
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None


def _emit_json(payload: dict, out: str | None) -> None:
    body = {"schema_version": SCHEMA_VERSION, **payload}
    _emit((json.dumps(_jsonable(body), indent=2) + "\n",), out)


def dispatch(args: argparse.Namespace) -> int:
    if args.subcommand == "pe":
        placement = canonicalize_placement(args.placement)
        model = SensorModel(p_d=args.pd, p_f=args.pf)
        result = error_probability(placement, model, args.n)
        _emit_json(
            {"pe": result.value, "placement": placement.label(), "n": args.n},
            args.out,
        )
        return 0

    if args.subcommand == "optimal":
        model = SensorModel(p_d=args.pd, p_f=args.pf)
        opt = optimal_placements(args.m, args.n, model)
        _emit_json(
            {
                "best": [p.label() for p in opt.best],
                "pe_min": opt.pe_min,
                "margin": opt.margin,
                "strict": opt.strict,
            },
            args.out,
        )
        return 0

    if args.subcommand == "partitions":
        lines = [placement_label(p) for p in enumerate_partitions(args.m)]
        _emit(("\n".join(lines) + "\n",), args.out)
        return 0

    if args.subcommand == "majorize":
        _emit((_majorize_csv(args.m),), args.out)
        return 0

    if args.subcommand == "sweep":
        region_map = analysis.sweep_plane(args.m, args.n, args.step, region=args.region)
        blocks = (analysis.region_csv_text(region_map) if args.fmt == "csv"
                  else analysis.region_json_text(region_map, SCHEMA_VERSION))
        _emit(blocks, args.out)
        return 0

    if args.subcommand == "simulate":
        placement = canonicalize_placement(args.placement)
        model = SensorModel(p_d=args.pd, p_f=args.pf)
        sim = montecarlo.simulate(
            placement,
            model,
            n=args.n,
            trials=args.trials,
            seed=args.seed,
            tie_rule=args.tie_rule,
            threads=args.threads,
        )
        exact = error_probability(placement, model, args.n).value
        z = (sim.pe_hat - exact) / sim.std_err if sim.std_err > 0 else 0.0
        _emit_json(
            {
                "trials": sim.trials,
                "errors": sim.errors,
                "pe_hat": sim.pe_hat,
                "std_err": sim.std_err,
                "seed": sim.seed,
                "tie_rule": args.tie_rule,
                "analytic_pe": exact,
                "z_score": z,
            },
            args.out,
        )
        return 0

    if args.subcommand == "verify":
        reports = _run_verify(args)
        if len(reports) == 1:
            _emit_json(reports[0].to_json_dict(), args.out)
        else:
            _emit_json(
                {"reports": [r.to_json_dict() for r in reports]}, args.out
            )
        return 0 if all(r.passed for r in reports) else 1

    raise AssertionError(f"unhandled subcommand {args.subcommand}")


def _run_verify(args: argparse.Namespace) -> list[analysis.VerificationReport]:
    target = args.target
    step = {} if args.step is None else {"step": args.step}  # else the verifier's default
    if target == "thm41":
        m_max = {} if args.max_m is None else {"m_max": args.max_m}
        return [analysis.verify_thm41(**m_max, **step)]
    if target == "thm42":
        return [analysis.verify_thm42(args.m, args.n1, args.n2, **step)]
    if target == "cor41":
        m = 3 if args.m is None else args.m
        return [analysis.verify_cor41(m, **step)]
    if target == "prop51":
        pairs = _PROP51_PAIRS if args.m is None else ((args.m, args.n),)
        return analysis.verify_prop51_pairs(pairs, **step)
    if target == "counterexample":
        return [analysis.verify_counterexample()]
    if target == "conjecture":
        region_map = analysis.sweep_plane(args.m, args.n, 0.01 if args.step is None else args.step)
        return [analysis.check_conjecture_chain(region_map)]
    raise AssertionError(f"unhandled verify target {target}")


_VERDICT_CODES = {
    MajorizationVerdict.STRICTLY_ABOVE: "A",
    MajorizationVerdict.STRICTLY_BELOW: "B",
    MajorizationVerdict.EQUAL: "E",
    MajorizationVerdict.INCOMPARABLE: "I",
}


def _majorize_csv(m: int) -> str:
    parts = [Placement(p) for p in enumerate_partitions(m)]  # canonical: compare reads them as is
    labels = [p.label() for p in parts]
    # each unordered pair is decided once: compare(q, p) is compare(p, q) flipped
    codes = [["E"] * len(parts) for _ in parts]
    for i, p in enumerate(parts):
        for j in range(i + 1, len(parts)):
            verdict = compare(p, parts[j])
            codes[i][j] = _VERDICT_CODES[verdict]
            codes[j][i] = _VERDICT_CODES[verdict.flipped()]
    lines = ["placement," + ",".join(labels)]
    for label, row in zip(labels, codes):
        lines.append(label + "," + ",".join(row))
    return "\n".join(lines) + "\n"


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads ``argv`` with, built on first use, once per process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        validate(args)
        return dispatch(args)
    except BudgetError as exc:
        print(f"refused: {_one_line(exc)}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other fault: status 1 means only a failed verify
        kind = "out of memory" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error: {kind}: {_one_line(exc)}", file=sys.stderr)
        return 2


def _one_line(exc: Exception | str) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
