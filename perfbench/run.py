#!/usr/bin/env python3
"""The repository benchmark: four workloads, checked answers, per-layer trace.

Run from the repository root.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report --seconds 20 --seed 1

The first form runs one workload and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it (``perfbench-info {...}``) records the engine and host,
sample counts, every failure with its cause, and the layers the trace
cannot reach.  ``--report`` runs every workload both ways and prints one
row per workload; it exits non-zero when any answer is wrong or invalid.

See METHOD.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"

SETUP_SAMPLES = 3  # fresh set-up processes timed before and again after the run
MIN_PASSES = 3  # closed-loop passes, so per-pass figures have a median
#: A closed loop that still lacks the answers for p75 stops at this many
#: times ``--seconds`` and reports without the missing percentiles.
CLOSED_LOOP_CAP = 3.0
REQUEST_TIME_LIMIT = 60.0  # seconds; a request that needs more has failed
CUBE_ARGS = {"cubes": 2, "cube_jobs": 2}
SERVE_WORKERS = 2
#: Serve times a host-speed round trip only when no request is in flight
#: and the next is due at least this far away (seconds)...
SERVE_PROBE_GAP = 0.008
#: ...and scales each request by the round trips within this many seconds.
SERVE_PROBE_WINDOW = 0.5

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p75_s", "s"),
    ("cpu_s_per_req", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("workloads.load_s", "s/req"),
    ("encoding.busy_s", "s/req"),
    ("encoding.clauses", "1/req"),
    ("sat.create_s", "s/req"),
    ("sat.load_s", "s/req"),
    ("sat.load_calls", "1/req"),
    ("sat.search_s", "s/req"),
    ("sat.calls", "1/req"),
    ("sat.conflicts", "1/req"),
    ("sat.core_s", "s/req"),
    ("sat.unknown_calls", "1/req"),
    ("search.calls_per_answer", "1/req"),
    ("strategy.validate_s", "s/req"),
    ("solver.self_s", "s/req"),
    ("store.get_s", "s/req"),
    ("store.put_s", "s/req"),
    ("store.hits", "1/req"),
    ("store.misses", "1/req"),
    ("store.hit_ratio", "ratio"),
    ("service.dedup", "1/req"),
    ("service.cache_hits", "1/req"),
    ("service.solver_jobs", "1/req"),
    ("service.batches", "1/req"),
    ("service.sheds", "1/req"),
    ("service.errors", "1/req"),
    ("portfolio.busy_s", "s/req"),
    ("portfolio.tasks", "1/req"),
    ("portfolio.retries", "1/req"),
    ("portfolio.pool_rebuilds", "1/req"),
    ("circuits.compile_s", "s/req"),
    ("circuits.verify_s", "s/req"),
    ("circuits.cost_s", "s/req"),
    ("cubes.busy_s", "s/req"),
    ("cubes.shared_bound_hits", "1/req"),
    ("loadgen.late_p90_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)
_SERVICE_STATS = {
    "service.dedup": "deduplicated",
    "service.cache_hits": "cache_hits",
    "service.solver_jobs": "solver_jobs",
    "service.batches": "batches",
    "service.sheds": "sheds",
    "service.errors": "errors",
    "portfolio.retries": "retries",
    "portfolio.pool_rebuilds": "pool_rebuilds",
}
#: Layers whose work (part of it) runs in worker processes the trace
#: cannot reach; their per-layer values cover the benchmark process only.
UNMEASURED = {
    "cubes": {
        "encoding": "cube lanes run in pool worker processes",
        "sat": "cube lanes run in pool worker processes",
        "strategy": "cube lanes run in pool worker processes",
    },
    "serve": {
        "encoding": "misses sent together in one session run in portfolio worker processes",
        "sat": "misses sent together in one session run in portfolio worker processes",
        "strategy": "misses sent together in one session run in portfolio worker processes",
        "store": "store reads and writes inside portfolio worker processes",
    },
}
#: Answer checks that mean the program is wrong, not merely slow or down.
WRONG = ("wrong answer", "invalid witness")


@dataclass
class Record:
    """One request as the client saw it.

    ``factor`` and ``cpu_factor`` turn the request's wall and CPU times
    into seconds at the reference host's speed, from the host-speed probes
    timed next to it (``hostspeed.py``).  ``fixed`` is the part of the
    latency that no host speed moves (serve: the dispatcher's batching
    wait, a timer), left unscaled.
    """

    request: str
    latency: float
    failure: str | None = None
    engine: str | None = None
    sat_calls: int = 0
    late: float = 0.0
    cached: bool = False
    cpu: float = 0.0
    factor: float = 1.0
    cpu_factor: float = 1.0
    fixed: float = 0.0

    @property
    def scaled_latency(self) -> float:
        return self.fixed + (self.latency - self.fixed) * self.factor


@dataclass
class Phase:
    """The requests of one measured stretch and what they cost."""

    records: list[Record]
    wall: float
    cpu: float
    passes: int = 0
    service_stats: dict = field(default_factory=dict)
    #: Serve: wall and CPU seconds the service spent answering batches.
    busy: float = 0.0
    busy_cpu: float = 0.0
    #: Serve: the host-speed round trips timed in idle gaps, each as
    #: ``(seconds from start, wall, CPU of its walk)``.
    probes: list[tuple[float, float, float]] = field(default_factory=list)
    #: Closed loops: the single passes this phase merges.
    parts: list[Phase] = field(default_factory=list)

    @property
    def answers(self) -> list[Record]:
        return [record for record in self.records if record.failure is None]

    @property
    def wrong(self) -> bool:
        return any(r.failure and r.failure.startswith(WRONG) for r in self.records)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
@dataclass
class Context:
    workload: str
    workdir: Path
    backend: str
    unavailable: str | None
    dags: dict
    boards: dict
    networks: dict
    expected: dict


def prepare_process(workdir: Path) -> None:
    """Keep every file the program writes (temp dirs too) in ``workdir``."""
    scratch = workdir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def set_up(workload: str, workdir: Path) -> Context:
    """Imports, engine probe, DAG build and (for serve) store and service."""
    import repro  # noqa: F401  (the import cost is part of set-up)
    from repro.sat.backend import backend_unavailable_reason
    from repro.workloads import load_workload, load_workload_network

    from pools import BACKENDS, dag_names, load_expected
    from witness import Board

    backend = BACKENDS[workload]
    unavailable = backend_unavailable_reason(backend)
    dags = {name: load_workload(name) for name in dag_names(workload)}
    networks = {}
    if workload == "serve":
        networks = {name: load_workload_network(name) is not None for name in dags}
        from repro import PebblingService

        store = workdir / f"setup-{time.monotonic_ns()}.db"
        service = PebblingService(store=str(store), workers=SERVE_WORKERS)
        import asyncio

        asyncio.run(service.close())
    return Context(
        workload=workload,
        workdir=workdir,
        backend=backend,
        unavailable=unavailable,
        dags=dags,
        boards={name: Board.from_dag(dag) for name, dag in dags.items()},
        networks=networks,
        expected=load_expected(),
    )


def timed_setups(workload: str, workdir: Path) -> list[float]:
    """Wall seconds of ``SETUP_SAMPLES`` fresh processes that only set up."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--setup-only", workload, "--workdir", str(workdir),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    return samples


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------
def check_pebbling(ctx: Context, name: str, budget: int, result) -> str | None:
    """Why a solver answer is not the expected certified answer, or None."""
    from pools import expected_key
    from witness import witness_error

    if not result.complete:
        return f"incomplete search ({result.outcome.value})"
    got = {
        "outcome": result.outcome.value,
        "steps": result.num_steps,
        "minimal": result.minimal,
    }
    want = ctx.expected[expected_key(name, budget)]
    if got != want:
        return f"wrong answer: expected {want}, got {got}"
    if result.strategy is not None:
        error = witness_error(ctx.boards[name], result.strategy.configurations, budget)
        if error is not None:
            return f"invalid witness: {error}"
    return None


def check_served(ctx: Context, arrival, answer) -> str | None:
    """Why a service answer is wrong, or None.

    Service payloads carry no witness, so they are checked against the
    answer table only (and compile answers must report a passed
    simulation wherever the workload has a logic network).
    """
    from pools import expected_key

    if not answer.ok:
        return f"error ({answer.source}): {answer.error}"
    payload = answer.payload
    want = ctx.expected[expected_key(arrival.workload, arrival.budget, arrival.single_move)]
    complete = payload["complete" if arrival.kind == "pebble" else "search_complete"]
    if not complete:
        return f"incomplete search ({payload['outcome']})"
    got = {"outcome": payload["outcome"], "steps": payload["steps"]}
    if got != {"outcome": want["outcome"], "steps": want["steps"]}:
        return f"wrong answer: expected {want}, got {got}"
    if (arrival.kind == "compile" and ctx.networks[arrival.workload]
            and payload["verified"] is not True):
        return f"wrong answer: compiled circuit not verified ({payload['verified']})"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def _cpu_seconds() -> float:
    """CPU of this process plus its waited-for children (worker pools)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(ctx: Context, order: list[tuple[str, int]], tracer=None) -> Phase:
    """One client sends ``order`` one request at a time, and times one
    host-speed probe after each."""
    from repro import ReversiblePebblingSolver

    from hostspeed import REFERENCE_CPU_S, REFERENCE_S, probe

    extra = CUBE_ARGS if ctx.workload == "cubes" else {}
    records: list[Record] = []
    started = time.perf_counter()
    cpu = _cpu_seconds()
    for name, budget in order:
        label = f"{name}:{budget}"
        if ctx.unavailable is not None:
            records.append(Record(label, 0.0, f"error: {ctx.unavailable}"))
            continue
        if tracer is not None:
            tracer.begin_request(label)
        sent_cpu = _cpu_seconds()
        sent = time.perf_counter()
        try:
            solver = ReversiblePebblingSolver(ctx.dags[name], backend=ctx.backend)
            result = solver.solve(budget, time_limit=REQUEST_TIME_LIMIT, **extra)
        except Exception as error:  # noqa: BLE001 — a failed request, recorded
            record = Record(label, time.perf_counter() - sent,
                            f"error: {type(error).__name__}: {error}")
            result = None
        else:
            record = Record(label, time.perf_counter() - sent, engine=result.backend,
                            sat_calls=len(result.attempts))
        record.cpu = _cpu_seconds() - sent_cpu
        probe_s, probe_cpu = probe()
        record.factor, record.cpu_factor = REFERENCE_S / probe_s, REFERENCE_CPU_S / probe_cpu
        if result is not None:
            record.failure = check_pebbling(ctx, name, budget, result)
        records.append(record)
    return Phase(records, time.perf_counter() - started, _cpu_seconds() - cpu, 1)


def merge(phases: list[Phase]) -> Phase:
    return Phase(
        [record for phase in phases for record in phase.records],
        sum(phase.wall for phase in phases),
        sum(phase.cpu for phase in phases),
        len(phases),
        parts=list(phases),
    )


def run_closed_loop(ctx: Context, seed: int, seconds: float) -> Phase:
    """Whole seeded passes over the pool until ``seconds`` have passed,
    with at least ``MIN_PASSES`` passes and the answers p75 needs.

    A wrong answer or an unavailable engine ends the run after its pass.
    A run that still lacks answers ends at ``CLOSED_LOOP_CAP`` times
    ``seconds``; its report then leaves out the percentiles it cannot give.
    """
    from pools import closed_loop_pass
    from stats import samples_needed

    phases: list[Phase] = []
    started = time.perf_counter()
    while True:
        order = closed_loop_pass(ctx.workload, seed, len(phases))
        phases.append(run_pass(ctx, order))
        run = merge(phases)
        if ctx.unavailable is not None or run.wrong:
            return run
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and len(phases) >= MIN_PASSES and (
            len(run.answers) >= samples_needed(0.75)
            or elapsed >= CLOSED_LOOP_CAP * seconds
        ):
            return run


def run_closed_loop_traced(ctx: Context, seed: int, seconds: float, tracer):
    """Pairs of passes in the same order, untraced then traced, so that
    drift over the run falls on both sides of the overhead ratio."""
    from pools import closed_loop_pass

    reference: list[Phase] = []
    traced: list[Phase] = []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        order = closed_loop_pass(ctx.workload, seed, len(traced))
        reference.append(run_pass(ctx, order))
        tracer.install()
        try:
            traced.append(run_pass(ctx, order, tracer))
        finally:
            tracer.uninstall()
    return merge(reference), merge(traced)


def run_serve(ctx: Context, seed: int, seconds: float) -> Phase:
    """Open loop at a fixed rate into a service over a fresh SQLite store."""
    import asyncio

    from repro import JobRequest, PebblingService
    from repro.service.scheduler import ServiceOverloadError

    from hostspeed import round_trip, walk_table
    from pools import SERVE_RATE, serve_schedule
    from stats import samples_needed

    # At least enough requests to report p90 (and loadgen lateness).
    walk_table()  # built before the schedule starts, not in its first round trip
    count = max(samples_needed(0.9), round(SERVE_RATE * seconds))
    schedule = serve_schedule(seed, count)
    store = ctx.workdir / f"store-{time.monotonic_ns()}.db"
    probe_file = ctx.workdir / f"round-trip-{time.monotonic_ns()}.bin"
    records: list[Record | None] = [None] * len(schedule)
    busy: list[float] = []
    busy_cpu: list[float] = []
    probes: list[tuple[float, float, float]] = []
    probe_cpu = 0.0
    in_flight = 0

    async def drive() -> tuple[dict, float]:
        service = PebblingService(store=str(store), workers=SERVE_WORKERS)
        # The service's busy time: the wall and CPU time of every batch it
        # answers (its dispatcher runs one batch at a time, between batching
        # waits).  CPU counts the dispatching thread and the portfolio
        # workers reaped during the batch.
        process_batch = service._process_batch

        def timed_batch(items):
            started = time.perf_counter()
            started_cpu = time.thread_time() + _children_cpu()
            try:
                return process_batch(items)
            finally:
                busy.append(time.perf_counter() - started)
                busy_cpu.append(time.thread_time() + _children_cpu() - started_cpu)

        service._process_batch = timed_batch
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.05

        async def prober() -> None:
            # Host-speed round trips halfway between two due times, when
            # the service is idle, so they delay no request.
            nonlocal probe_cpu
            dues = sorted({arrival.due for arrival in schedule})
            for here, after in zip(dues, dues[1:]):
                await asyncio.sleep(max(0.0, start + (here + after) / 2 - loop.time()))
                if in_flight or start + after - loop.time() < SERVE_PROBE_GAP:
                    continue
                at = loop.time() - start
                seconds, cpu = await round_trip(str(probe_file))
                probes.append((at, seconds, cpu))
                probe_cpu += cpu

        async def send(index: int, arrival) -> None:
            nonlocal in_flight
            due = start + arrival.due
            await asyncio.sleep(max(0.0, due - loop.time()))
            late = loop.time() - due
            label = arrival.key
            request = JobRequest(kind=arrival.kind, workload=arrival.workload,
                                 budget=arrival.budget, single_move=arrival.single_move)
            in_flight += 1
            try:
                answer = await service.submit(request)
            except ServiceOverloadError as error:
                records[index] = Record(label, loop.time() - due, f"shed: {error}", late=late)
                return
            finally:
                in_flight -= 1
            failure = check_served(ctx, arrival, answer)
            engine = (answer.payload or {}).get("backend")
            calls = (answer.payload or {}).get("sat_calls", 0)
            records[index] = Record(label, loop.time() - due, failure, engine, calls,
                                    late, cached=answer.source == "cache")

        try:
            tasks = [asyncio.create_task(send(i, a)) for i, a in enumerate(schedule)]
            await asyncio.gather(prober(), *tasks)
            return service.health()["stats"], service.batch_window
        finally:
            await service.close()

    started = time.perf_counter()
    cpu = _cpu_seconds()
    stats, window = asyncio.run(drive())
    phase = Phase(records, time.perf_counter() - started, _cpu_seconds() - cpu - probe_cpu,
                  service_stats=stats, busy=sum(busy), busy_cpu=sum(busy_cpu),
                  probes=probes)
    for record, arrival in zip(records, schedule):
        record.factor = _serve_factor(probes, arrival.due, SERVE_PROBE_WINDOW)
        record.fixed = min(record.latency, window)
    for path in [*ctx.workdir.glob(store.name + "*"), probe_file]:
        path.unlink(missing_ok=True)
    return phase


def _serve_factor(probes: list[tuple[float, float, float]], at: float, window: float) -> float:
    """Serve's host-speed factor at ``at`` seconds from the start: from the
    median round trip within ``window`` seconds of it (of all, if none)."""
    from hostspeed import ROUND_TRIP_REFERENCE_S
    from stats import median

    if not probes:
        return 1.0
    near = [s for t, s, _ in probes if abs(t - at) <= window]
    return ROUND_TRIP_REFERENCE_S / median(near or [s for _, s, _ in probes])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def _latencies(phase: Phase, scaled: bool = True) -> list[float]:
    # A failed request never got its answer: it counts as the full wait.
    return [
        REQUEST_TIME_LIMIT if r.failure is not None
        else r.scaled_latency if scaled else r.latency
        for r in phase.records
    ]


def _run_cpu_factor(phase: Phase, scaled: bool = True) -> float:
    """Serve's CPU factor for the whole run, from the median CPU time of
    its round trips' walks."""
    from hostspeed import ROUND_TRIP_REFERENCE_CPU_S
    from stats import median

    if not scaled or not phase.probes:
        return 1.0
    return ROUND_TRIP_REFERENCE_CPU_S / median([cpu for _, _, cpu in phase.probes])


def _setup_factor(phase: Phase) -> float:
    """The set-ups' factor: the median of the run's request factors.  A
    factor timed next to each set-up process, from one loop or walk, moved
    more with its own noise than with the set-up."""
    from stats import median

    return median([r.factor for r in phase.records])


def _cpu_per_request(phase: Phase, scaled: bool = True) -> float:
    """A closed loop's median over passes of their mean request CPU (the
    probes and answer checks left out); serve's CPU over its requests."""
    from stats import median

    if phase.parts:
        return median([
            sum(r.cpu * (r.cpu_factor if scaled else 1.0) for r in p.records) / len(p.records)
            for p in phase.parts
        ])
    return phase.cpu * _run_cpu_factor(phase, scaled) / len(phase.records)


def end_to_end(phase: Phase, setups: list[float],
               scaled: bool = True) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics of an untraced run, and the percentiles it
    had to leave out for want of samples.

    Times are scaled to the reference host's speed (``hostspeed.py``):
    set-up by the median factor of the run's requests (the set-ups run
    just before and after them), a closed-loop request's by the
    loop timed after it, a serve request's latency (less its batching
    wait) by the round trips timed within ``SERVE_PROBE_WINDOW`` of its
    due time, and serve's CPU times by the median over the run's round
    trips.  ``scaled=False`` gives them as measured.

    Latency percentiles count every request as it ran.  For a closed loop,
    throughput is correct answers over the pass's summed request latency
    and CPU per request is the pass's mean, each the median over the run's
    passes (each pass sends the whole pool once).  For serve, throughput
    is correct answers per CPU second the service spent answering batches:
    the offered rate is fixed, so answers per second of wall time would not
    move until the service saturates.
    """
    from stats import TooFewSamples, median, percentile

    if phase.parts:
        throughput = median([
            len(p.answers) / sum(r.scaled_latency if scaled else r.latency for r in p.records)
            for p in phase.parts
        ])
    else:
        throughput = len(phase.answers) / (phase.busy_cpu * _run_cpu_factor(phase, scaled))
    metrics = {
        "setup_s": median(setups) * (_setup_factor(phase) if scaled else 1.0),
        "throughput_rps": throughput,
        "cpu_s_per_req": _cpu_per_request(phase, scaled),
        # The benchmark process only: forked workers share its pages, and
        # their ru_maxrss depends on when each was forked.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    refused = []
    for name, q in (("latency_p50_s", 0.5), ("latency_p75_s", 0.75)):
        try:
            metrics[name] = percentile(_latencies(phase, scaled), q)
        except TooFewSamples as refusal:
            refused.append(f"{name}: {refusal}")
    return {name: metrics[name] for name, _ in END_TO_END if name in metrics}, refused


def per_layer(reference: Phase, traced: Phase, spans: list) -> dict[str, float]:
    from stats import percentile
    from tracer import layer_totals

    answers = max(1, len(traced.answers))
    totals = layer_totals(spans)
    values = {name: totals.get(name, 0.0) / answers for name, _ in PER_LAYER}
    lookups = totals.get("store.hits", 0.0) + totals.get("store.misses", 0.0)
    values["store.hit_ratio"] = totals.get("store.hits", 0.0) / lookups if lookups else 0.0
    # Cache hits report the SAT calls of the search that filled the cache.
    searched = [record for record in traced.answers if not record.cached]
    values["search.calls_per_answer"] = (
        sum(record.sat_calls for record in searched) / max(1, len(searched))
    )
    for name, key in _SERVICE_STATS.items():
        values[name] = traced.service_stats.get(key, 0) / answers
    lateness = [record.late for record in traced.records]
    values["loadgen.late_p90_s"] = (
        percentile(lateness, 0.9) if traced.service_stats else 0.0
    )
    values["trace.overhead_ratio"] = _cpu_per_request(traced) / _cpu_per_request(reference)
    return values


def describe(ctx: Context, phase: Phase, env: dict, extra: dict) -> dict:
    """The ``perfbench-info`` record: engine, samples and failures."""
    from stats import TooFewSamples, median, percentile

    failures = Counter(
        (record.request, record.failure) for record in phase.records if record.failure
    )
    info = {
        "workload": ctx.workload,
        "backend_requested": ctx.backend,
        "engines_resolved": sorted({r.engine for r in phase.records if r.engine}),
        "environment": env,
        "samples": len(phase.records),
        "distinct_requests": len({record.request for record in phase.records}),
        "passes": phase.passes,
        "failed_frac": (len(phase.records) - len(phase.answers)) / len(phase.records),
        "failures": [
            {"request": request, "cause": cause, "count": count}
            for (request, cause), count in sorted(failures.items())
        ],
        "unmeasured": UNMEASURED.get(ctx.workload, {}),
        "latency_by_request_s": {
            request: median([r.latency for r in phase.answers if r.request == request])
            for request in sorted({r.request for r in phase.answers})
        },
    }
    try:
        info["latency_p90_s"] = percentile(_latencies(phase), 0.9)
    except TooFewSamples as refusal:
        info["latency_p90_s"] = f"not reported: {refusal}"
    info.update(extra)
    return info


def environment(ctx: Context) -> dict:
    from repro.sat.native import native_unavailable_reason

    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "native_probe": native_unavailable_reason() or "ok",
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    workdir = RUN_DIR / f"{workload}-{os.getpid()}"
    prepare_process(workdir)
    try:
        # Probe (and on a fresh checkout, build) the native core before the
        # timed set-ups, so a one-off compile is not a set-up sample.
        from repro.sat.native import native_unavailable_reason

        native_unavailable_reason()
        started = time.perf_counter()
        ctx = set_up(workload, workdir)
        extra = {"inprocess_setup_s": time.perf_counter() - started}
        env = environment(ctx)
        if not trace:
            # Set-up samples on both sides of the run, so a burst of host
            # load cannot cover all of them.
            setups = timed_setups(workload, workdir)
            if workload == "serve":
                phase = run_serve(ctx, seed, seconds)
            else:
                phase = run_closed_loop(ctx, seed, seconds)
            setups += timed_setups(workload, workdir)
            extra["setup_samples_s"] = setups
            if phase.busy:
                extra["service_busy_s"] = phase.busy
                extra["service_busy_cpu_s"] = phase.busy_cpu
            metrics = {}
            if phase.answers:
                metrics, extra["not_reported"] = end_to_end(phase, setups)
                extra["unscaled"], _ = end_to_end(phase, setups, scaled=False)
            extra["host_factor_median"] = _setup_factor(phase)
            if not phase.parts:
                extra["host_cpu_factor"] = _run_cpu_factor(phase)
            units = dict(END_TO_END)
        else:
            from tracer import Tracer

            tracer = Tracer()
            if workload == "serve":
                # An open loop cannot interleave: two schedules of half the
                # length, each into a fresh service and store.
                reference = run_serve(ctx, seed, seconds / 2)
                tracer.install()
                try:
                    phase = run_serve(ctx, seed, seconds / 2)
                finally:
                    tracer.uninstall()
            else:
                reference, phase = run_closed_loop_traced(ctx, seed, seconds, tracer)
            traces = RUN_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace_file = traces / f"{workload}-seed{seed}.jsonl"
            tracer.dump(trace_file)
            extra["trace_file"] = str(trace_file.relative_to(ROOT))
            extra["spans"] = len(tracer.spans)
            extra["reference_samples"] = len(reference.records)
            metrics = per_layer(reference, phase, tracer.spans) if phase.answers else {}
            units = dict(PER_LAYER)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(phase.records) - len(phase.answers)
    # A run is correct when no answer is wrong and it reports every metric.
    correct = not phase.wrong and len(metrics) == len(units)
    print("perfbench-info " + json.dumps(describe(ctx, phase, env, extra)))
    print(json.dumps({
        "correct": correct,
        "attempted": len(phase.records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def report(seed: int, seconds: float, workloads: list[str]) -> int:
    """Every workload, untraced then traced, one row each."""
    status = 0
    rows = []
    for workload in workloads:
        outputs = {}
        for trace in ("0", "1"):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", trace]
            proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                status = 1
                sys.stderr.write(proc.stderr[-2000:])
            if len(lines) >= 2:
                info = json.loads(lines[-2].split(" ", 1)[1])
                outputs[trace] = (info, json.loads(lines[-1]))
        rows.append((workload, outputs))
    for workload, outputs in rows:
        if "0" not in outputs:
            print(f"{workload}: no result")
            continue
        info, result = outputs["0"]
        cells = [f"{name}={item['value']:.4g} {item['unit']}"
                 for name, item in result["metrics"].items()]
        p90 = info["latency_p90_s"]
        cells.append(f"latency_p90_s={p90:.4g} s" if isinstance(p90, float) else p90)
        print(f"{workload:15s} n={info['samples']} distinct={info['distinct_requests']} "
              f"failed_frac={info['failed_frac']:.3g} "
              f"correct={result['correct']} engine={','.join(info['engines_resolved'])} | "
              + "  ".join(cells))
        for failure in info["failures"]:
            print(f"    failed {failure['count']}x {failure['request']}: {failure['cause']}")
        if "1" in outputs:
            layer_info, layer = outputs["1"]
            moved = {k: v["value"] for k, v in layer["metrics"].items() if v["value"]}
            print(f"    layers (traced, n={layer_info['samples']}): "
                  + "  ".join(f"{k}={v:.4g}" for k, v in moved.items()))
            for layer_name, why in layer_info["unmeasured"].items():
                print(f"    unmeasured {layer_name}: {why}")
        if not result["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    from pools import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload (untraced and traced), one row each")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads for --report")
    parser.add_argument("--setup-only", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        prepare_process(args.workdir)
        set_up(args.setup_only, args.workdir)
        return 0
    if args.report:
        return report(args.seed, args.seconds, args.workloads.split(","))
    if args.workload is None:
        parser.error("--workload or --report is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
