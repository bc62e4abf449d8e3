"""Request pools of the four workloads and the seeded request generator.

Each closed-loop workload has a fixed pool of ``(workload, budget)``
requests.  A run sends whole passes over its pool; the seed only decides
the order within each pass, so every seed sends the same mix and a run's
numbers do not depend on which requests a seed happened to draw.

The ``serve`` workload is an open loop: cycles of pebble and compile
sessions (see ``serve_sessions``) at a fixed request rate.  Every cycle
holds the same sessions and the seed only decides their order.  Each
distinct request misses the fresh store once and hits it afterwards.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Python engine (the default backend): SAT search dominates.  Feasible
#: and infeasible budgets on the SLP DAGs and the small paper examples.
#: Sorted by latency, ranks 7-12 (around p50) and 13-15 (around p75) are
#: each a group of requests of similar cost, so a percentile never rests
#: on one request or across a large gap.
CERTIFY = (
    ("edwards-add", 10), ("edwards-add", 11), ("edwards-add", 12),
    ("kummer-double", 16), ("kummer-double", 17), ("kummer-double", 18),
    ("kummer-add", 20), ("kummer-add", 21), ("kummer-add", 22), ("kummer-add", 24),
    ("hadamard", 5), ("hadamard", 6),
    ("and9", 4), ("and9", 5),
    ("fig2", 3), ("fig2", 4),
    ("c17", 3), ("c17", 4),
)

#: Native engine, every answer under a second: encoding and clause
#: loading take the larger share of a request.  Measured on the reference
#: host, the answers fall in three groups: 8 requests under 0.11 s, 8
#: between 0.15 and 0.23 s, and 3 between 0.34 and 0.53 s.  p50 and p75 of
#: the samples both fall inside the middle group, not between two groups.
CERTIFY_NATIVE = (
    ("edwards-add", 9), ("edwards-add", 10), ("edwards-add", 11), ("edwards-add", 12),
    ("kummer-double", 14), ("kummer-double", 15), ("kummer-double", 16),
    ("kummer-double", 18), ("kummer-double", 20),
    ("kummer-add", 18), ("kummer-add", 19), ("kummer-add", 20), ("kummer-add", 21),
    ("kummer-add", 22), ("kummer-add", 24),
    ("hadamard", 5), ("and9", 4), ("fig2", 3), ("c17", 3),
)

#: Native engine with two cube lanes in two processes: the requests of
#: the native pool that take 0.2 s or more with two lanes, plus
#: edwards-add at budget 8.  Their times with two lanes run from 0.23 s
#: to 0.8 s without a large gap, and edwards-add p8 takes about 1.8 s.
CUBES = (
    ("edwards-add", 8), ("edwards-add", 9), ("edwards-add", 10),
    ("kummer-double", 14), ("kummer-double", 15), ("kummer-double", 16),
    ("kummer-double", 17), ("kummer-double", 18),
    ("kummer-add", 18), ("kummer-add", 19), ("kummer-add", 20), ("kummer-add", 21),
    ("kummer-add", 22), ("kummer-add", 24),
    ("hadamard", 5), ("and9", 4),
)

#: Serve traffic is built from what the repository records about use.
#: Its DAGs are those of ``BATCH_SUITES["default"]`` (the registered suite
#: of the Table-I style batch runs), and its requests are that suite's
#: entries and the budget sweeps of the sweep CLI over the same DAGs.
SERVE_SUITE = "default"
#: Budgets left out of serve: the infeasible points of the suite and of
#: the sweep ranges.  A miss on one costs 0.26-1.83 s on the Python
#: engine (fig2 p3 0.26 s, c17 p3 0.36 s, and9 p3 0.95 s, and9 p4 0.84 s
#: and 1.83 s single-move, hadamard p5 1.58 s, hadamard p4 unfinished
#: after 5 s), and the service's dispatcher runs one batch at a time, so
#: each such miss would hold every request behind it.  Serve keeps its SAT
#: work small; these requests are measured by ``certify``.
SERVE_SKIPPED = {
    "fig2": (3,), "c17": (3,), "and9": (3, 4), "hadamard": (4, 5),
}
#: Offered load in requests per second (an assumption, see METHOD.md).
SERVE_RATE = 40.0

BACKENDS = {
    "certify": "cdcl",
    "certify-native": "cdcl:native=1",
    "cubes": "cdcl:native=1",
    "serve": "cdcl",
}
POOLS = {"certify": CERTIFY, "certify-native": CERTIFY_NATIVE, "cubes": CUBES}
WORKLOADS = ("certify", "certify-native", "serve", "cubes")


def dag_names(workload: str) -> list[str]:
    """The DAGs a workload's requests touch (built during set-up)."""
    if workload == "serve":
        return sorted({entry.workload for entry in _suite()})
    return sorted({name for name, _ in POOLS[workload]})


def closed_loop_pass(workload: str, seed: int, index: int) -> list[tuple[str, int]]:
    """Pass ``index`` of a closed-loop run: the pool in a seeded order."""
    pool = list(POOLS[workload])
    random.Random(f"{workload}:{seed}:{index}").shuffle(pool)
    return pool


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due (seconds from start) and what."""

    due: float
    kind: str
    workload: str
    budget: int
    single_move: bool = False

    @property
    def key(self) -> str:
        return f"{self.kind}:{expected_key(self.workload, self.budget, self.single_move)}"


def _suite():
    from repro.workloads.registry import BATCH_SUITES

    return BATCH_SUITES[SERVE_SUITE]


def _feasible(name: str, budget: int) -> bool:
    return budget not in SERVE_SKIPPED.get(name, ())


def sweep_budgets(name: str) -> list[int]:
    """The sweep CLI's default budgets for ``name`` (structural lower bound
    to the eager-Bennett peak), without the skipped infeasible ones."""
    from repro import ReversiblePebblingSolver, load_workload
    from repro.pebbling.bennett import eager_bennett_strategy

    dag = load_workload(name)
    lower = ReversiblePebblingSolver(dag).minimum_pebbles_lower_bound()
    upper = eager_bennett_strategy(dag).max_pebbles
    return [b for b in range(lower, max(lower, upper) + 1) if _feasible(name, b)]


def serve_sessions() -> tuple[list[tuple], list[int]]:
    """Every kind of serve session, and how often one cycle sends it.

    A session is what one user sends at once:
    - ``batch``: the suite's entries as pebble requests (``pebble-batch``);
    - a pebble sweep of one DAG (``sweep``, or a service ``sweep`` job);
    - a compile sweep of one DAG (the sweep's circuit per budget).
    The three kinds are equally frequent.  A sweep's DAG is sent as often
    as the suite lists it (fig2 3, and9 3, c17 2, hadamard 1), so a cycle
    holds 9 batches, 9 pebble sweeps and 9 compile sweeps.
    """
    suite = _suite()
    batch = tuple(
        ("pebble", entry.workload, entry.pebbles, entry.single_move)
        for entry in suite if _feasible(entry.workload, entry.pebbles)
    )
    listed = Counter(entry.workload for entry in suite)
    sessions, counts = [batch], [sum(listed.values())]
    for kind in ("pebble", "compile"):
        for name in sorted(listed):
            budgets = sweep_budgets(name)
            sessions.append(tuple((kind, name, budget, False) for budget in budgets))
            counts.append(listed[name])
    return sessions, counts


def serve_schedule(seed: int, count: int, rate: float = SERVE_RATE) -> list[Arrival]:
    """Whole cycles, each in a seeded order, until there are at least
    ``count`` requests.

    Every run sends the same sessions, so the seed moves no percentile
    from one mix of session sizes to another.  The requests of one session
    share its due time, so they reach the service's dispatcher together,
    as ``pebble-batch`` and ``sweep`` send them.  Session ``i`` is due
    when the requests before it, at ``rate`` per second, are due.
    """
    sessions, counts = serve_sessions()
    cycle = [session for session, n in zip(sessions, counts) for _ in range(n)]
    arrivals: list[Arrival] = []
    index = 0
    while len(arrivals) < count:
        order = list(cycle)
        random.Random(f"serve:{seed}:{index}").shuffle(order)
        for session in order:
            due = len(arrivals) / rate
            arrivals.extend(Arrival(due, *request) for request in session)
        index += 1
    return arrivals


def load_expected() -> dict[str, dict]:
    """The checked-in answer table: ``"<dag>:<budget>"`` -> expected answer."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def expected_key(workload: str, budget: int, single_move: bool = False) -> str:
    return f"{workload}:{budget}" + (":single-move" if single_move else "")


def all_requests() -> list[tuple[str, int, bool]]:
    """Every (DAG, budget, single-move) any workload sends, for building
    the answer table."""
    keys = {(name, budget, False) for pool in POOLS.values() for name, budget in pool}
    sessions, _ = serve_sessions()
    keys |= {request[1:] for session in sessions for request in session}
    return sorted(keys)
