"""Per-layer spans recorded from outside the package.

``Tracer.installed()`` wraps each public function named in ``SPANS`` at every
placedet module that binds it (``analysis`` imports ``error_probability_grid``
by name, ``montecarlo`` imports ``map_decide``, ``cli`` imports
``optimal_placements``, ...), so calls made through any of those names are
timed. Spans are aggregated per name in memory (calls, total and self time;
self time is total minus the time of directly nested spans) and read out when
the run ends. Count hooks record the work each call does, computed from the
argument and result shapes.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import statistics
import threading
import time
from collections import Counter

from workloads import SHARE_TOLERANCE

MODULES = ("cli", "analysis", "detection", "model", "partitions", "majorization", "montecarlo")

SPANS = (
    "cli.main",
    "analysis.sweep_plane",
    "analysis.sweep_window",
    "analysis.region_csv_text",
    "analysis.write_atomic",
    "analysis.check_monotone_on_scale",
    "analysis.check_conjecture_chain",
    "analysis.verify_thm41",
    "analysis.verify_thm42",
    "analysis.verify_cor41",
    "analysis.verify_prop51",
    "analysis.verify_counterexample",
    "detection.error_probability",
    "detection.error_probability_grid",
    "detection.optimal_placements",
    "detection.map_decide",
    "model.PmfTable.build",
    "model.canonicalize_placement",
    "partitions.enumerate_partitions",
    "majorization.compare",
    "majorization.is_chain",
    "majorization.chain_sort",
    "majorization.PlacementScale.level",
    "montecarlo.simulate",
)

COUNTS = (
    "detection.observations",
    "detection.grid_nodes",
    "detection.grid_bytes_computed",
    "model.pmf_entries",
    "montecarlo.trials",
    "montecarlo.chunks",
    "analysis.cells",
)

FLOAT_BYTES = 8
SWEEPS = ("analysis.sweep_plane", "analysis.sweep_window")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.largest_array_bytes = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._chunk_trials = importlib.import_module("placedet.montecarlo").CHUNK_TRIALS

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_count_" + name.rsplit(".", 1)[-1], None)
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]  # name, time of nested spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    self.calls[name] += 1
                    self.total[name] += elapsed
                    self.self_time[name] += elapsed - frame[1]
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with self._lock:
                    hook(bound.arguments, result, parent)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _note_array(self, nbytes: int) -> None:
        self.largest_array_bytes = max(self.largest_array_bytes, nbytes)

    # count hooks, named after the function they observe

    def _count_error_probability(self, args, result, parent) -> None:
        self.counts["detection.observations"] += 1 << result.placement.m

    def _count_error_probability_grid(self, args, result, parent) -> None:
        counts, n = tuple(args["counts"]), args["n"]
        rows = len(counts) + (1 if n > len(counts) else 0)
        nodes = len(result)
        nbytes = rows * (1 << sum(counts)) * nodes * FLOAT_BYTES
        self.counts["detection.grid_nodes"] += nodes
        if parent in SWEEPS:
            self.counts["coverage.grid_nodes_in_sweeps"] += nodes
        self.counts["detection.grid_bytes_computed"] += nbytes
        self._note_array(nbytes)

    def _count_build(self, args, result, parent) -> None:
        self.counts["model.pmf_entries"] += result.rows.size
        self._note_array(result.rows.nbytes)

    def _count_simulate(self, args, result, parent) -> None:
        placement, trials = args["placement"], result.trials
        n = placement.n if args["n"] is None else args["n"]
        self.counts["montecarlo.trials"] += trials
        self.counts["montecarlo.chunks"] += math.ceil(trials / self._chunk_trials)
        self.counts["coverage.expected_map_decide_calls"] += 1 << placement.m
        chunk = min(trials, self._chunk_trials) * placement.m * FLOAT_BYTES
        self._note_array(max(chunk, (1 << placement.m) * n * FLOAT_BYTES))

    def _count_sweep_plane(self, args, result, parent) -> None:
        self.counts["analysis.cells"] += len(result.cells)
        self.counts["coverage.expected_grid_nodes"] += len(result.cells) * len(result.partitions)

    _count_sweep_window = _count_sweep_plane

    @contextlib.contextmanager
    def installed(self):
        """Wrap every span target for the duration of the block."""
        modules = [importlib.import_module("placedet")]
        modules += [importlib.import_module(f"placedet.{m}") for m in MODULES]
        restore = []
        try:
            for name in SPANS:
                module_name, qualname = name.split(".", 1)
                home = importlib.import_module(f"placedet.{module_name}")
                if "." in qualname:  # a method: patch the class once
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    setattr(cls, attr, new)
                    restore.append((cls, attr, raw))
                    continue
                fn = getattr(home, qualname)
                new = self._wrap(name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, new)
                            restore.append((module, attr, fn))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def coverage_errors(self) -> list[str]:
        """Counts whose value is known independently of the spans."""
        errors = []
        expected = self.counts["coverage.expected_map_decide_calls"]
        got = self.calls["detection.map_decide"]
        if got != expected:
            errors.append(f"map_decide.calls {got} != 2^M per simulate = {expected}")
        expected = self.counts["coverage.expected_grid_nodes"]
        got = self.counts["coverage.grid_nodes_in_sweeps"]
        if got != expected:
            errors.append(f"grid nodes inside sweeps {got} != cells x partitions {expected}")
        return errors


def _span_time(tracer: Tracer, spec: str) -> float:
    """Seconds of ``<span>.self_s`` or ``<span>.total_s``; ``<prefix>*`` sums spans."""
    pattern, measure = spec.rsplit(".", 1)
    times = tracer.self_time if measure == "self_s" else tracer.total
    if pattern.endswith("*"):
        return sum(t for name, t in times.items() if name.startswith(pattern[:-1]))
    return times[pattern]


def check_prediction(prediction, share: float) -> dict:
    """Compare a measured share with its prediction; the miss is signed."""
    miss = share - prediction.share
    if prediction.at_least:
        confirmed = miss >= 0
        claim = f"at least {prediction.share:.0%}"
    else:
        confirmed = abs(miss) <= SHARE_TOLERANCE
        claim = f"about {prediction.share:.0%} (within {SHARE_TOLERANCE:.0%})"
    note = f"{prediction.layer} holds {share:.0%} of traced time, predicted {claim}"
    if not confirmed:
        note += f": missed by {miss:+.0%}"
    return {"layer": prediction.layer, "spans": list(prediction.spans),
            "predicted_share": prediction.share, "measured_share": share,
            "miss": miss, "confirmed": confirmed, "note": note}


def per_layer(tracer: Tracer, workload, plain_times, traced_times, l3: str) -> tuple[dict, dict]:
    """(per-layer metrics per traced round, report section with raw totals)."""
    rounds = len(traced_times)
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (tracer.calls[name] / rounds, "count")
        metrics[f"{name}.total_s"] = (tracer.total[name] / rounds, "s")
        metrics[f"{name}.self_s"] = (tracer.self_time[name] / rounds, "s")
    for name in COUNTS:
        metrics[name] = (tracer.counts[name] / rounds, "B" if name.endswith("bytes_computed") else "count")
    predictions = [
        check_prediction(p, sum(_span_time(tracer, spec) for spec in p.spans) / sum(traced_times))
        for p in workload.predictions
    ]
    overhead = statistics.median(traced_times) - statistics.median(plain_times)
    metrics["trace_overhead_s"] = (overhead, "s")
    metrics["predicted_layer_share"] = (predictions[0]["measured_share"], "ratio")
    metrics["largest_array_mb"] = (tracer.largest_array_bytes / 2**20, "MiB")
    report = {
        "traced_rounds": rounds,
        "spans": {name: {"calls": tracer.calls[name], "total_s": tracer.total[name],
                         "self_s": tracer.self_time[name]} for name in SPANS},
        "counts": {name: tracer.counts[name] for name in (*COUNTS, *sorted(
            k for k in tracer.counts if k.startswith("coverage.")))},
        "coverage_errors": tracer.coverage_errors(),
        "tracing_overhead_s": {"traced_wall_s": statistics.median(traced_times),
                               "untraced_wall_s": statistics.median(plain_times),
                               "difference": overhead},
        "largest_array": {"mib": tracer.largest_array_bytes / 2**20, "l3": l3},
        "top_self_time_share": {
            name: t / sum(traced_times)
            for name, t in sorted(tracer.self_time.items(), key=lambda kv: -kv[1])[:4]
        },
        "predictions": predictions,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, report
