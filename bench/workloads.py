"""Seeded workload definitions.

Every input the program sees (n, p_f, p_d, placements, simulation seeds) is
drawn here from the workload seed; the program receives only CLI argument
lists. A workload is a stream of rounds. Each round has a fixed shape (the
same commands, sensor counts and occupied-point counts in every round), and
the seed picks only the values inside that shape. The cost of the pure-Python
paths grows with the number of occupied points, so this keeps every round
about equally expensive and a run's medians independent of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

STEP_REGION_MAP = 0.01
STEP_VERIFY = 0.005
MC_TRIALS = 1_000_000
SHARE_TOLERANCE = 0.10


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` without ``--out``, plus what the checks need."""

    kind: str
    argv: tuple[str, ...]
    work: float
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Prediction:
    """A layer's predicted share of the traced round time.

    ``spans`` are span times written ``<span>.self_s`` or ``<span>.total_s``;
    a span ending in ``*`` stands for every span with that prefix. With
    ``at_least`` the share is a floor (the layer dominates); otherwise the
    measured share must lie within ``SHARE_TOLERANCE`` of it.
    """

    layer: str
    spans: tuple[str, ...]
    share: float
    at_least: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    make_round: Callable[[random.Random], list[Op]]
    warmup: Callable[[random.Random], Op]
    min_rounds: int
    predictions: tuple[Prediction, ...]


def grid_nodes(step: float, half_plane: bool) -> int:
    """Nodes of a (p_f, p_d) grid with axis values k*step, k = 1..1/step - 1."""
    side = round(1.0 / step) - 1
    return side * (side + 1) // 2 if half_plane else side * side


def random_partition(rng: random.Random, m: int, k: int) -> tuple[int, ...]:
    """A partition of m into exactly k parts, non-increasing."""
    cuts = sorted(rng.sample(range(1, m), k - 1))
    bounds = [0, *cuts, m]
    return tuple(sorted((b - a for a, b in zip(bounds, bounds[1:])), reverse=True))


def placement_text(rng: random.Random, counts: tuple[int, ...], n: int) -> str:
    """Counts in shuffled order with some zero points, as a user might type them."""
    padded = list(counts) + [0] * rng.randint(0, n - len(counts))
    rng.shuffle(padded)
    return "-".join(map(str, padded))


def _fmt(p: float) -> str:
    return repr(float(p))


def _pf_lt_pd(rng: random.Random) -> tuple[float, float]:
    while True:
        a, b = sorted(rng.uniform(0.02, 0.98) for _ in range(2))
        if b - a > 1e-3:
            return a, b


# ---------------------------------------------------------------------------
# region-map
# ---------------------------------------------------------------------------


def _sweep_op(n: int, step: float) -> Op:
    argv = ("sweep", "--m", "8", "--n", str(n), "--step", repr(step), "--threads", "1")
    return Op("sweep", argv, grid_nodes(step, True), {"m": 8, "n": n, "step": step})


def region_map_round(rng: random.Random) -> list[Op]:
    # The same map twice: the two renderings must be byte-identical.
    op = _sweep_op(rng.randint(8, 11), STEP_REGION_MAP)
    return [op, op]


def region_map_warmup(rng: random.Random) -> Op:
    return _sweep_op(rng.randint(8, 11), 0.05)


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------

# (sensors, occupied points) of the inputs in every round.
MC_SHAPES = ((8, 4), (9, 2), (9, 5))

# Predicted costs: the decision table takes about 1.4 s at M=9 and grows as
# 4^M; the draw loop takes about 1.4 s per 10^6 trials.
TABLE_S_AT_M9 = 1.4
DRAWS_S_PER_MILLION = 1.4


def monte_carlo_split() -> tuple[float, float]:
    """Predicted shares of (decision table, draws) in a monte-carlo round."""
    table = 2 * sum(TABLE_S_AT_M9 * 4.0 ** (m - 9) for m, _ in MC_SHAPES)
    draws = 2 * len(MC_SHAPES) * DRAWS_S_PER_MILLION * MC_TRIALS / 1e6
    return table / (table + draws), draws / (table + draws)


def _simulate_ops(rng: random.Random, m: int, k: int, ties: str, trials: int) -> list[Op]:
    counts = random_partition(rng, m, k)
    n = rng.randint(m, m + 2)
    pf, pd = _pf_lt_pd(rng)
    seed = rng.getrandbits(32)
    text = placement_text(rng, counts, n)
    meta = {"m": m, "n": n, "pf": pf, "pd": pd, "counts": counts, "seed": seed,
            "trials": trials}
    ops = []
    for threads in (1, 2):
        argv = ("simulate", "--n", str(n), "--pd", _fmt(pd), "--pf", _fmt(pf),
                "--placement", text, "--trials", str(trials), "--seed", str(seed),
                "--ties", ties, "--threads", str(threads))
        ops.append(Op("simulate", argv, trials, {**meta, "threads": threads}))
    return ops


def monte_carlo_round(rng: random.Random) -> list[Op]:
    first = rng.randrange(2)
    ops = []
    for i, (m, k) in enumerate(MC_SHAPES):
        tie = ("uniform", "lowest")[(first + i) % 2]
        ops += _simulate_ops(rng, m, k, tie, MC_TRIALS)
    return ops


def monte_carlo_warmup(rng: random.Random) -> Op:
    return _simulate_ops(rng, 6, 3, "uniform", 100_000)[0]


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------


def _verify_op(argv: tuple[str, ...], nodes: int) -> Op:
    return Op("verify", ("verify",) + argv, nodes, {"target": argv[0]})


def verify_round(rng: random.Random) -> list[Op]:
    s = STEP_VERIFY
    half = grid_nodes(s, True)
    n_conj = rng.randint(6, 8)
    n2 = rng.randint(6, 9)
    return [
        # five (m, n) maps
        _verify_op(("prop51", "--step", repr(s)), 5 * half),
        # maps at (4, 4) and (4, 5)
        _verify_op(("cor41", "--m", "4", "--step", repr(s)), 2 * half),
        _verify_op(("conjecture", "--m", "6", "--n", str(n_conj), "--step", repr(s)), half),
        # m = 2..6, each on the half plane
        _verify_op(("thm41", "--max-m", "6", "--step", repr(s)), 5 * half),
        # full square at n1 and at n2
        _verify_op(("thm42", "--m", "4", "--n1", "5", "--n2", str(n2), "--step", "0.02"),
                   2 * grid_nodes(0.02, False)),
        # three probes and a 3 x 11 window
        _verify_op(("counterexample",), 3 + 33),
    ]


def verify_warmup(rng: random.Random) -> Op:
    return _verify_op(("counterexample",), 3 + 33)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="region-map",
            why="M=8 half-plane sweep: the grid kernel and its (rows x 2^M x G) "
            "temporaries do the work; the scalar PmfTable/map_decide paths do not run",
            work_unit="nodes",
            make_round=region_map_round,
            warmup=region_map_warmup,
            min_rounds=2,
            predictions=(
                Prediction("grid kernel", ("detection.error_probability_grid.total_s",),
                           0.8, at_least=True),
            ),
        ),
        Workload(
            name="monte-carlo",
            why="simulate at 1 and 2 threads: the 4^M decision table (map_decide) "
            "plus the chunked draw loop; the only workload on montecarlo and threads",
            work_unit="trials",
            make_round=monte_carlo_round,
            warmup=monte_carlo_warmup,
            min_rounds=2,
            predictions=(
                Prediction("decision table", ("detection.map_decide.total_s",),
                           monte_carlo_split()[0]),
                Prediction("draw loop", ("montecarlo.simulate.self_s",),
                           monte_carlo_split()[1]),
            ),
        ),
        Workload(
            name="verify-suite",
            why="many small-M maps and verifier walks: majorization, cell "
            "construction and analysis dominate, the grid arithmetic is minor",
            work_unit="nodes",
            make_round=verify_round,
            warmup=verify_warmup,
            min_rounds=2,
            predictions=(
                Prediction("majorization + analysis",
                           ("majorization.*.self_s", "analysis.*.self_s"), 0.65),
            ),
        ),
    )
}
