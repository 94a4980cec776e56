"""placedet benchmark: one seeded workload per process, driven through the CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload region-map --seed 1 --seconds 35 --trace 0

The program is exercised only through ``placedet.cli.main(argv)``, called
in-process with ``--out`` into a temporary directory inside the checkout.
Phases, in order:

1. set-up, repeated ``SETUP_REPS`` times: import the package in a fresh
   interpreter, generate the inputs from ``--seed``, run one small warm-up op;
2. the timed phase: whole rounds of ops in a closed loop (one client, each
   op starts when the previous one has returned) for about ``--seconds``.
   With ``--trace 1`` each round runs once untraced and once with the span
   wrappers of ``spans.py`` installed;
3. output checks against a naive reference (``checks.py``), then a self-test
   that feeds each checker a corrupted copy of a real result.

The next-to-last stdout line is a JSON report: every metric under its
workload-specific name, the checks, the environment and (traced) the spans.
The last line is the result: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``) of
``BENCHMARK.json``. A failed op (non-zero status, exception, argparse exit
or a failed check) is counted, never fatal.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import checks
from spans import Tracer, per_layer
from workloads import WORKLOADS, Op

SETUP_REPS = 15
ROUND_POOL = 64  # rounds generated up front; the loop cycles through them
CHECK_NODES_PER_MAP = 6
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import placedet.cli; "
    "print(time.perf_counter() - t)"
)


class OpRecord:
    __slots__ = ("op", "path", "error")

    def __init__(self, op: Op, path: str, error: str | None):
        self.op, self.path, self.error = op, path, error

    def output(self) -> str:
        with open(self.path) as handle:
            return handle.read()


class Runner:
    """Calls the CLI in-process."""

    def __init__(self, cli, out_dir: str):
        self.cli = cli
        self.out_dir = out_dir
        self.calls = 0

    def call(self, op: Op) -> OpRecord:
        """One CLI call; a failure is recorded, never raised."""
        self.calls += 1
        path = os.path.join(self.out_dir, f"{self.calls:06d}.out")
        argv = [*op.argv, "--out", path]
        error = None
        try:
            status = self.cli.main(argv)
            if status != 0:
                error = f"exit status {status}"
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception:  # a crashing op is a failed op; the run goes on
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        if error:
            error = f"{' '.join(op.argv)}: {error}"
        return OpRecord(op, path, error)

    def run_round(self, ops: list[Op], records: list[OpRecord]) -> float:
        start = time.perf_counter()
        for op in ops:
            records.append(self.call(op))
        return time.perf_counter() - start


def make_rounds(workload, seed: int) -> list[list[Op]]:
    rng = random.Random(seed)
    return [workload.make_round(rng) for _ in range(ROUND_POOL)]


def setup(workload, seed: int, root: str, runner: Runner):
    """Median of SETUP_REPS set-ups: import, input generation, one warm-up op."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    times = []
    for rep in range(SETUP_REPS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        import_s = float(probe.stdout.strip().splitlines()[-1])
        start = time.perf_counter()
        rounds = make_rounds(workload, seed)
        warm = runner.call(workload.warmup(random.Random(f"warmup-{seed}-{rep}")))
        if warm.error:
            raise RuntimeError(f"warm-up op failed: {warm.error}")
        times.append(import_s + time.perf_counter() - start)
    return statistics.median(times), rounds


def timed_phase(workload, rounds, runner: Runner, seconds: float, tracer=None):
    """Closed loop of whole rounds, ending before a round would overrun ``seconds``.

    Traced runs repeat each round under the tracer, so the traced and the
    untraced passes see the same inputs.
    """
    plain, traced = [], []
    plain_times, traced_times = [], []
    start = time.perf_counter()
    r = 0
    while True:
        elapsed = time.perf_counter() - start
        if r >= workload.min_rounds and elapsed * (r + 1) / r > seconds:
            break
        ops = rounds[r % len(rounds)]
        plain_times.append(runner.run_round(ops, plain))
        if tracer is not None:
            with tracer.installed():
                traced_times.append(runner.run_round(ops, traced))
        r += 1
    return plain, traced, plain_times, traced_times


def run_checks(records: list[OpRecord], seed: int):
    """Check outputs outside the timed phase; returns failed-op count, messages, self-test."""
    rng = random.Random(f"checks-{seed}")
    bad = {i: rec.error for i, rec in enumerate(records) if rec.error}
    samples: dict = {}

    def check(indices, run_checker) -> bool:
        """Run one checker; unreadable output counts as a failure too."""
        try:
            errors = run_checker()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors = [f"unreadable output: {exc!r}"]
        for i in indices:
            if errors:
                bad.setdefault(i, f"{' '.join(records[i].op.argv)}: {errors[0]}")
        return not errors

    def output(i):
        text = records[i].output()
        return text if records[i].op.kind == "sweep" else json.loads(text)

    kind = records[0].op.kind
    # sweep and simulate rounds are made of (op, same op again) pairs
    pairs = [(a, a + 1) for a in range(0, len(records) - 1, 2)
             if records[a].error is None and records[a + 1].error is None]
    if kind == "sweep":
        for a, b in pairs:
            meta = records[a].op.meta
            side = round(1.0 / meta["step"]) - 1
            row = rng.randrange(side) + 1
            diagonal = row * (row + 1) // 2 - 1  # last node of a p_d row
            sample = [rng.randrange(side * (side + 1) // 2) for _ in range(CHECK_NODES_PER_MAP - 1)]
            sample.append(diagonal)
            if check((a, b), lambda: checks.check_csv_pair(output(a), output(b), meta, sample)):
                samples.setdefault("csv", (output(a), output(b), meta, sample))
    elif kind == "simulate":
        for a, b in pairs:
            if check((a, b), lambda: checks.check_simulate_pair(
                    output(a), output(b), records[a].op.meta)):
                samples.setdefault("simulate", (output(a), output(b), records[a].op.meta))
    elif kind == "verify":
        for i, rec in enumerate(records):
            if rec.error is None and check((i,), lambda: checks.check_verify(output(i))) \
                    and "reports" in output(i):
                samples.setdefault("verify", (output(i),))
    return len(bad), sorted(set(bad.values()))[:10], checks.self_test(samples)


def cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            def read(name, entry=entry):
                with open(os.path.join(base, entry, name)) as handle:
                    return handle.read().strip()
            if read("type") in ("Unified", "Data"):
                sizes[f"L{read('level')}"] = f"{read('size')} shared by cpus {read('shared_cpu_list')}"
    except OSError:
        pass
    return sizes


def commit(root: str) -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def environment(root: str, seed: int) -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            model = next(line.split(":", 1)[1].strip() for line in handle
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit(root),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "note": "shared virtual CPU: no bandwidth or roofline figures are derived",
    }


def end_to_end(workload, setup_s, rounds, round_times, records) -> tuple[dict, dict]:
    """(gated metrics, report metrics that add the workload's own names).

    Round times are summarised by their median, so a slow spell of the host
    that covers less than half of a run does not move the result.
    """
    round_work = [sum(op.work for op in rounds[r % len(rounds)]) for r in range(len(round_times))]
    work_per_s = statistics.median(w / t for w, t in zip(round_work, round_times))
    gated = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(round_times), "s"),
        "work_per_s": (work_per_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    gated = {name: {"value": v, "unit": u} for name, (v, u) in gated.items()}
    report = dict(gated)
    report[f"{workload.work_unit}_per_s"] = {"value": work_per_s, "unit": "1/s"}
    report["rounds"] = {"value": len(round_times), "unit": "count"}
    report["ops"] = {"value": len(records), "unit": "count"}
    return gated, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "placedet", "cli.py")):
        print(f"error: no placedet sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from placedet import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: imported {cli.__file__}, not the checkout's sources", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=root, prefix=".bench-out-") as out_dir:
        runner = Runner(cli, out_dir)
        setup_s, rounds = setup(workload, args.seed, root, runner)
        tracer = Tracer() if args.trace else None
        plain, traced, plain_times, traced_times = timed_phase(
            workload, rounds, runner, args.seconds, tracer
        )
        records = plain + traced
        failed, failures, self_test = run_checks(records, args.seed)

    gated, report_metrics = end_to_end(workload, setup_s, rounds, plain_times, plain)
    report_metrics["failed_ratio"] = {"value": failed / len(records), "unit": "ratio"}
    env = environment(root, args.seed)
    report = {
        "workload": workload.name,
        "why": workload.why,
        "environment": env,
        "metrics": report_metrics,
        "failures": failures,
        "self_test": self_test,
    }
    problems = [name for name, flagged in self_test.items() if not flagged]
    if not self_test:
        problems.append("self-test had no passing sample to corrupt")
    metrics = gated
    if tracer is not None:
        metrics, report["trace"] = per_layer(
            tracer, workload, plain_times, traced_times, env["caches"].get("L3", "unknown")
        )
        problems += report["trace"]["coverage_errors"]
        if tracer.calls["cli.main"] != len(traced):
            problems.append(f"cli.main.calls {tracer.calls['cli.main']} != {len(traced)} traced ops")
    report["problems"] = problems
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
