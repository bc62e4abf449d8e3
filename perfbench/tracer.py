"""Outside-in tracing: spans recorded around the public calls into each layer.

Nothing inside ``repro`` is edited.  :meth:`Tracer.install` replaces the
public entry points of each layer — module functions in every ``repro``
module that imported them, and methods on the layer's classes — with
wrappers that record a span (name, start, end, parent span, request id)
in memory.  SAT backends are instrumented per instance, on the objects
``create_backend`` returns.  :meth:`Tracer.dump` writes the spans out at
the end and :func:`layer_totals` turns them into per-layer totals,
including the solver's self time (its span minus its direct children).

Consecutive ``add_clause`` calls are folded into one ``sat.load`` span per
burst: the burst opens at the first call and closes when the next traced
call starts or the enclosing span ends, so a clause costs one counter
increment instead of two clock reads.

Forked worker processes (portfolio pools, cube lanes) inherit the
wrappers but record nothing: their spans could never reach the parent,
so the layers they run are reported as unmeasured instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from time import perf_counter

# (module, function) entry points and the span name each records.
_FUNCTIONS = (
    ("repro.workloads.registry", "load_workload", "workloads.load"),
    ("repro.workloads.registry", "load_workload_or_path", "workloads.load"),
    ("repro.workloads.registry", "load_workload_network", "workloads.load"),
    ("repro.sat.backend", "create_backend", "sat.create"),
    ("repro.pebbling.portfolio", "run_portfolio", "portfolio.run"),
    ("repro.pebbling.cubes", "run_cube_search", "cubes.run"),
    ("repro.circuits.compile", "compile_strategy", "circuits.compile"),
    ("repro.circuits.pipeline", "verify_compiled_against_network", "circuits.verify"),
    ("repro.circuits.costs", "circuit_cost", "circuits.cost"),
)

# (module, class, methods, span name prefix or full name).
_METHODS = (
    ("repro.pebbling.solver", "ReversiblePebblingSolver", ("solve",), "solver.solve"),
    ("repro.pebbling.strategy", "PebblingStrategy", ("__init__",), "strategy.validate"),
    (
        "repro.pebbling.encoding",
        "PebblingEncoder",
        (
            "__init__", "extend_to", "final_guard", "assert_final",
            "drain_new_clauses", "drain_new_named_variables", "variable",
            "configurations_from_model", "to_encoding", "encode",
        ),
        "encoding.",
    ),
    (
        "repro.store.store",
        "ResultStore",
        ("get_pebble", "get_compile", "warm_start"),
        "store.get",
    ),
    ("repro.store.store", "ResultStore", ("put_pebble", "put_compile"), "store.put"),
)


def _result_attrs(name: str, result) -> dict | None:
    """Counts read off a call's result, recorded on its span."""
    if name == "store.get":
        return {"hit": result is not None}
    if name == "encoding.drain_new_clauses":
        return {"clauses": len(result)}
    if name == "encoding.encode":
        return {"clauses": len(result.cnf.clauses)}
    if name == "portfolio.run":
        return {"tasks": len(result)}
    if name == "cubes.run":
        return {"shared_bound_hits": result.shared_bound_hits}
    return None


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._requests = itertools.count(1)
        self._fork_hook = False

    # -- recording ---------------------------------------------------------
    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.burst = None
            local.request = None
        return local

    def begin_request(self, label: str) -> None:
        """Tag the spans this thread records from now on with a new request id.

        Threads that never call this (the service's batch thread) record
        spans with no request id.
        """
        self._thread().request = f"{label}#{next(self._requests)}"

    def _flush(self, local) -> None:
        burst = local.burst
        if burst is not None:
            local.burst = None
            burst[5] = perf_counter()
            self.spans.append(burst)

    def _open(self, name: str):
        local = self._thread()
        self._flush(local)
        parent = local.stack[-1][0] if local.stack else None
        span = [next(self._ids), parent, local.request, name, perf_counter(), 0.0, None]
        local.stack.append(span)
        return local, span

    def _close(self, local, span) -> None:
        self._flush(local)
        local.stack.pop()
        span[5] = perf_counter()
        self.spans.append(span)

    def wrap(self, name: str, function, on_result=None):
        """``function`` wrapped in a span named ``name``.

        ``on_result(result)`` runs after the span closes and returns the
        span's attributes (default: the counts ``_result_attrs`` reads).
        """
        tracer = self
        if on_result is None:
            on_result = functools.partial(_result_attrs, name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            local, span = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(local, span)
            span[6] = on_result(result)
            return result

        return traced

    # -- SAT backends ------------------------------------------------------
    def instrument_backend(self, backend) -> None:
        """Trace one backend instance's load, search and core calls."""
        tracer = self
        add_clause = backend.add_clause

        def counted_add_clause(literals):
            if tracer.enabled:
                local = tracer._thread()
                burst = local.burst
                if burst is None:
                    parent = local.stack[-1][0] if local.stack else None
                    burst = local.burst = [
                        next(tracer._ids), parent, local.request, "sat.load",
                        perf_counter(), 0.0, {"clauses": 0},
                    ]
                burst[6]["clauses"] += 1
            return add_clause(literals)

        backend.add_clause = counted_add_clause
        add_cnf = backend.add_cnf

        def loaded_add_cnf(cnf):
            if not tracer.enabled:
                return add_cnf(cnf)
            local, span = tracer._open("sat.load")
            try:
                add_cnf(cnf)
            finally:
                # Clauses pushed through add_clause inside add_cnf are
                # this span's own work, not a separate burst.
                local.burst = None
                tracer._close(local, span)
            span[6] = {"clauses": len(cnf.clauses)}

        backend.add_cnf = loaded_add_cnf
        # The Python engine counts conflicts per solve call; the native
        # core reports its running total, so its per-call count is the
        # difference from the previous call.
        running = type(backend).__module__ == "repro.sat.native"
        seen = [0]

        def search_attrs(result) -> dict:
            conflicts = result.stats.conflicts
            if running:
                conflicts, seen[0] = conflicts - seen[0], conflicts
            return {"conflicts": conflicts, "status": result.status.value}

        backend.solve = self.wrap("sat.search", backend.solve, search_attrs)
        if hasattr(backend, "failed_assumptions"):
            backend.failed_assumptions = self.wrap(
                "sat.core", backend.failed_assumptions
            )

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point and start recording."""
        modules = {name for name, _, _ in _FUNCTIONS} | {m for m, *_ in _METHODS}
        modules.add("repro.service.scheduler")
        for module in sorted(modules):
            importlib.import_module(module)
        for module_name, attribute, span_name in _FUNCTIONS:
            original = getattr(sys.modules[module_name], attribute)
            on_result = self.instrument_backend if span_name == "sat.create" else None
            traced = self.wrap(span_name, original, on_result)
            # Rebind every ``from ... import name`` copy, not just the
            # defining module, so callers anywhere in repro hit the wrapper.
            for name, module in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and getattr(
                    module, attribute, None
                ) is original:
                    self._patched.append((module, attribute, original))
                    setattr(module, attribute, traced)
        for module_name, class_name, methods, span_name in _METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            for method in methods:
                original = cls.__dict__[method]
                name = span_name + method if span_name.endswith(".") else span_name
                self._patched.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original))
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._disable)
            self._fork_hook = True
        self.enabled = True

    def _disable(self) -> None:
        self.enabled = False

    def uninstall(self) -> None:
        """Restore every wrapped entry point and stop recording."""
        self.enabled = False
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write the spans, one JSON object per line."""
        keys = ("id", "parent", "request", "name", "start", "end", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda span: span[0]):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer busy seconds and counts from a span list.

    A span counts toward its layer only when its parent belongs to another
    layer, so nested calls inside one layer (``encode`` building a fresh
    encoder, ``load_workload_or_path`` calling ``load_workload``) are not
    counted twice.  ``solver.self_s`` is each ``solver.solve`` span minus
    the time its direct children cover.
    """
    by_id = {span[0]: span for span in spans}
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    children: dict[int, float] = {}
    for span_id, parent, _, name, start, end, attrs in spans:
        duration = end - start
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + duration
        outer = by_id.get(parent)
        if outer is not None and _layer(outer[3]) == _layer(name):
            continue
        attrs = attrs or {}
        if name.startswith("encoding."):
            add("encoding.busy_s", duration)
        elif name == "sat.search":
            add("sat.search_s", duration)
            add("sat.calls", 1)
            add("sat.conflicts", attrs.get("conflicts", 0))
            add("sat.unknown_calls", attrs.get("status") == "unknown")
        elif name == "sat.load":
            add("sat.load_s", duration)
            add("sat.load_calls", attrs.get("clauses", 0))
        elif name == "store.get":
            add("store.get_s", duration)
            if "hit" in attrs:
                add("store.hits" if attrs["hit"] else "store.misses", 1)
        elif name == "cubes.run":
            add("cubes.busy_s", duration)
            add("cubes.shared_bound_hits", attrs.get("shared_bound_hits", 0))
        elif name == "portfolio.run":
            add("portfolio.busy_s", duration)
            add("portfolio.tasks", attrs.get("tasks", 0))
        elif name != "solver.solve":
            add(name + "_s", duration)
    # Clause counts nest (encode() drains inside a fresh encoder), so they
    # are summed over every encoding span that reports one.
    for span in spans:
        if span[3] in ("encoding.drain_new_clauses", "encoding.encode") and span[6]:
            parent = by_id.get(span[1])
            if parent is None or parent[3] != "encoding.encode":
                add("encoding.clauses", span[6]["clauses"])
    for span_id, _, _, name, start, end, _ in spans:
        if name == "solver.solve":
            add("solver.self_s", end - start - children.get(span_id, 0.0))
    return totals
