"""Host-speed probes: fixed work, timed beside the program's requests.

The reference host is a shared VM. Its co-tenants slow every process on
it by tens of percent, for seconds to minutes at a time, and the program
is deterministic, so that slowdown is most of the spread between runs.
The benchmark times a probe next to every request and reports the
request's times multiplied by ``reference / probe``: seconds as they
would read at the reference host's speed. Wall times are scaled by the
probe's wall time and CPU times by its CPU time, because the host's two
kinds of slowdown move them apart: a co-tenant that takes the vCPU away
(steal) stretches wall time only, one that shares its core's caches
stretches both. The probes run no repository code, so a change to the
program never moves them. METHOD.md gives the spreads with and without
the scaling.

- ``probe`` is a pure-Python loop, timed after each closed-loop request.
- ``round_trip`` runs a short walk over a 50,000-entry dict and one synced
  64-byte append on the event loop's executor thread, and awaits them: two
  thread hand-offs, scattered memory reads and a disk sync, the path on
  which the service answers (every store hit commits a write). Serve times
  it in the gaps between its requests; its latency moves with wake-up
  delays and disk syncs far more than with the loop's speed, and its CPU
  time with the walk's, whose reads find the caches cold after a wake-up
  as the service's do, not with the loop's.
"""

from __future__ import annotations

import asyncio
import functools
import os
import random
import time

#: Loop iterations of one full probe.
LOOPS = 150_000
#: Median wall and CPU seconds of one full probe on the reference host.
REFERENCE_S = 0.0175
REFERENCE_CPU_S = 0.0175
#: Dict lookups of one round trip's walk: about 4 ms of the round trip's 6
#: with the caches cold, as they are after a wake-up; under 1 ms warm.
ROUND_TRIP_LOOKUPS = 6_000
#: Median wall seconds of one round trip, and CPU seconds of its walk, on
#: the reference host.
ROUND_TRIP_REFERENCE_S = 0.0060
ROUND_TRIP_REFERENCE_CPU_S = 0.0043



def probe(loops: int = LOOPS) -> tuple[float, float]:
    """Wall and CPU seconds of ``loops`` iterations of a fixed loop."""
    started, started_cpu = time.perf_counter(), time.thread_time()
    total = 0
    for i in range(loops):
        total += i * i % 7
    return time.perf_counter() - started, time.thread_time() - started_cpu


@functools.cache
def walk_table() -> tuple[dict[int, int], list[int]]:
    """About 5 MB of dict, keys and int objects, more than a core's own
    caches, and its keys in a fixed shuffled order.  Built once, on first
    use."""
    draw = random.Random(20240601)
    table = {key: key for key in draw.sample(range(1 << 30), 50_000)}
    keys = list(table)
    draw.shuffle(keys)
    return table, keys


def walk(lookups: int = ROUND_TRIP_LOOKUPS) -> tuple[float, float]:
    """Wall and CPU seconds of ``lookups`` dict lookups in a fixed
    shuffled order."""
    table, keys = walk_table()
    started, started_cpu = time.perf_counter(), time.thread_time()
    total = 0
    for key in keys[:lookups]:
        total += table[key]
    return time.perf_counter() - started, time.thread_time() - started_cpu


async def round_trip(path: str) -> tuple[float, float]:
    """Wall seconds of a walk and a synced append to ``path``, sent to the
    default executor and awaited, and the CPU seconds of the walk."""
    loop = asyncio.get_running_loop()
    started = time.perf_counter()
    cpu = await loop.run_in_executor(None, _walk_and_sync, path)
    return time.perf_counter() - started, cpu


def _walk_and_sync(path: str) -> float:
    _, cpu = walk()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, b"x" * 64)
        os.fsync(fd)
    finally:
        os.close(fd)
    return cpu
