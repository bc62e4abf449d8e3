"""Parity tests for the ctypes-loaded native CDCL core.

The native core is an escape hatch, not a second source of truth: when a
C compiler is present these tests pin it to the Python engine and the
DPLL oracle on verdicts, model validity and core soundness, end to end
through the pebbling search.  Without a compiler the whole module skips
— cleanly, with the probe's reason — and the one test that must run
everywhere asserts the probe itself: ``cdcl:native=1`` either works or
reports a human-readable reason, never a silent fallback.
"""

from __future__ import annotations

import ctypes
import random

import pytest

from repro.errors import SolverError
from repro.sat.backend import backend_unavailable_reason, create_backend
from repro.sat.cnf import Cnf
from repro.sat.dpll import DpllSolver
from repro.sat.instances import pigeonhole
from repro.sat.native import native_unavailable_reason
from repro.sat.solver import CdclSolver

NATIVE_REASON = native_unavailable_reason()

needs_native = pytest.mark.skipif(
    NATIVE_REASON is not None,
    reason=f"native core unavailable: {NATIVE_REASON}",
)


def test_probe_reports_availability_honestly():
    """Runs with or without a compiler: the registry probe must mirror the
    loader exactly — usable, or unavailable with the loader's reason."""
    probe = backend_unavailable_reason("cdcl:native=1")
    if NATIVE_REASON is None:
        assert probe is None
    else:
        assert probe is not None
        assert NATIVE_REASON in probe


def test_unavailable_construction_raises_not_falls_back():
    if NATIVE_REASON is None:
        pytest.skip("native core is available here")
    from repro.sat.native import NativeCdclSolver

    with pytest.raises(SolverError, match="native core unavailable"):
        NativeCdclSolver()


@needs_native
def test_native_spec_builds_the_native_class():
    from repro.sat.native import NativeCdclSolver

    backend = create_backend("cdcl:native=1")
    assert isinstance(backend, NativeCdclSolver)
    assert isinstance(create_backend("cdcl"), CdclSolver)


@needs_native
def test_pigeonhole_verdicts_and_counters():
    backend = create_backend("cdcl:native=1")
    for clause in pigeonhole(7, 6).clauses:
        assert backend.add_clause(clause)
    result = backend.solve()
    assert result.is_unsat
    counters = backend.counters()
    assert counters["conflicts"] > 0
    assert counters["propagations"] > 0
    assert counters["solve_time"] >= 0


@needs_native
def test_random_cnfs_agree_with_dpll_and_models_are_valid():
    rng = random.Random(1234)
    for _ in range(150):
        num_vars = rng.randint(1, 12)
        clauses = [
            [
                rng.randint(1, num_vars) * rng.choice([1, -1])
                for _ in range(rng.randint(1, 4))
            ]
            for _ in range(rng.randint(0, 40))
        ]
        native = create_backend("cdcl:native=1")
        dpll = DpllSolver()
        for clause in clauses:
            native.add_clause(clause)
            dpll.add_clause(clause)
        result = native.solve()
        assert result.is_sat == dpll.solve().is_sat
        if result.is_sat:
            model = result.model
            for clause in clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause)


@needs_native
def test_assumption_cores_are_sound_subsets():
    rng = random.Random(99)
    for _ in range(100):
        num_vars = rng.randint(2, 10)
        clauses = [
            [
                rng.randint(1, num_vars) * rng.choice([1, -1])
                for _ in range(rng.randint(1, 3))
            ]
            for _ in range(rng.randint(1, 25))
        ]
        assumptions = [
            rng.randint(1, num_vars) * rng.choice([1, -1])
            for _ in range(rng.randint(1, 4))
        ]
        native = create_backend("cdcl:native=1")
        for clause in clauses:
            native.add_clause(clause)
        result = native.solve(assumptions)
        oracle = DpllSolver()
        for clause in clauses:
            oracle.add_clause(clause)
        for literal in assumptions:
            oracle.add_clause([literal])
        assert result.is_sat == oracle.solve().is_sat
        if not result.is_sat:
            core = native.failed_assumptions()
            assert set(core) <= set(assumptions)
            check = DpllSolver()
            for clause in clauses:
                check.add_clause(clause)
            for literal in core:
                check.add_clause([literal])
            assert not check.solve().is_sat


@needs_native
def test_incremental_solving_accumulates_clauses():
    backend = create_backend("cdcl:native=1")
    backend.add_clause([1, 2])
    assert backend.solve().is_sat
    backend.add_clause([-1])
    result = backend.solve()
    assert result.is_sat
    assert result.model[2] is True
    backend.add_clause([-2])
    assert backend.solve().is_unsat


@needs_native
def test_conflict_limit_yields_unknown_not_a_wrong_answer():
    backend = create_backend("cdcl:native=1", conflict_limit=1)
    for clause in pigeonhole(8, 7).clauses:
        backend.add_clause(clause)
    result = backend.solve()
    assert result.is_unknown or result.is_unsat


@needs_native
def test_pebbling_search_parity_with_the_python_engine():
    from repro.pebbling.solver import ReversiblePebblingSolver
    from repro.workloads import load_workload

    # edwards-add p12 loads multi-frame batches; fig2 p3 is a step-limit
    # sweep that loads stale-guard units after every UNSAT answer.
    cases = (("fig2", 4), ("c17", 4), ("edwards-add", 12), ("fig2", 3))
    for workload, budget in cases:
        dag = load_workload(workload)
        python_result = ReversiblePebblingSolver(dag, backend="cdcl").solve(budget)
        native_result = ReversiblePebblingSolver(
            dag, backend="cdcl:native=1"
        ).solve(budget)
        assert native_result.outcome == python_result.outcome
        assert native_result.num_steps == python_result.num_steps
        assert native_result.minimal == python_result.minimal


# -- literal range contract ---------------------------------------------------


def _cnf(*clauses):
    cnf = Cnf()
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


OUT_OF_RANGE = (2**40, 2**32 + 5, 2**31, -(2**31), -(2**40))


@needs_native
@pytest.mark.parametrize("literal", OUT_OF_RANGE)
def test_add_clause_rejects_literals_outside_int32(literal):
    backend = create_backend("cdcl:native=1")
    with pytest.raises(SolverError, match="invalid literal"):
        backend.add_clause([1, literal])
    # Nothing was loaded: before the check, 2**40 reached the core as 0
    # and 2**32 + 5 as variable 5.
    assert backend.num_variables == 0
    assert backend.solve().is_sat


@needs_native
@pytest.mark.parametrize("literal", OUT_OF_RANGE)
def test_add_cnf_rejects_literals_outside_int32(literal):
    backend = create_backend("cdcl:native=1")
    with pytest.raises(SolverError, match="invalid literal in clause batch"):
        backend.add_cnf(_cnf([1, 2], [literal], [-1]))
    assert backend.num_variables == 0
    assert backend.solve().is_sat


@needs_native
@pytest.mark.parametrize("literal", OUT_OF_RANGE + (True, False, 0))
def test_solve_rejects_invalid_assumptions(literal):
    backend = create_backend("cdcl:native=1")
    backend.add_clause([1, 2])
    with pytest.raises(SolverError, match="invalid assumption literal"):
        backend.solve([1, literal])


@needs_native
@pytest.mark.parametrize(
    "flat",
    [
        [3, 1, 2],  # size runs past the end of the buffer
        [-1, 1],  # negative size
        [2, 1, 2, 2, 3],  # second clause truncated
        [1, 1, 2, 0, 2],  # literal 0
        [2, 1, -(2**31)],  # INT32_MIN has no negation
    ],
)
def test_malformed_batch_buffer_loads_nothing(flat):
    backend = create_backend("cdcl:native=1")
    backend.add_clause([-1, -2])
    before = backend.num_variables
    buffer = (ctypes.c_int32 * len(flat))(*flat)
    assert backend._lib.cdcl_add_clauses(backend._handle, buffer, len(flat)) == -1
    assert backend.num_variables == before
    result = backend.solve()
    assert result.is_sat
    assert set(result.model) == {1, 2}


# -- batched (add_cnf) vs per-clause (add_clause) loading -----------------------


def _random_clause(rng, num_vars):
    # Duplicates, tautologies and units all occur: the batch path must run
    # every clause through the same root simplification as add_clause.
    return [
        rng.randint(1, num_vars) * rng.choice([1, -1])
        for _ in range(rng.randint(1, 4))
    ]


def _random_script(rng):
    """An incremental session: clause batches interleaved with solves."""
    num_vars = rng.randint(2, 14)
    script = []
    for _ in range(rng.randint(2, 8)):
        if rng.random() < 0.6:
            size = 0 if rng.random() < 0.15 else rng.randint(1, 14)
            script.append(
                ("batch", [_random_clause(rng, num_vars) for _ in range(size)])
            )
        else:
            assumptions = [
                rng.randint(1, num_vars) * rng.choice([1, -1])
                for _ in range(rng.randint(0, 4))
            ]
            script.append(("solve", assumptions))
    script.append(("solve", []))
    return script


def _counters(backend):
    counters = backend.counters()
    counters.pop("solve_time", None)
    return counters


def _run_script(script, *, batched):
    """Replay ``script``; return the per-solve observations."""
    backend = create_backend("cdcl:native=1")
    loaded: list = []
    observed = []
    for kind, payload in script:
        if kind == "batch":
            cnf = _cnf(*payload)
            if batched:
                backend.add_cnf(cnf)
            else:
                for clause in cnf.clauses:
                    backend.add_clause(clause.literals)
            loaded.extend(cnf.clauses)
            continue
        result = backend.solve(payload)
        core = None
        if result.is_sat:
            model = result.model
            for clause in loaded:
                assert any(model[abs(l)] == (l > 0) for l in clause), clause
            for literal in payload:
                assert model[abs(literal)] == (literal > 0)
        elif result.is_unsat:
            core = backend.failed_assumptions()
            assert set(core) <= set(payload)
        observed.append((result.status, core, _counters(backend)))
    return observed


@needs_native
def test_batched_and_per_clause_loading_agree():
    rng = random.Random(2024)
    for _ in range(200):
        script = _random_script(rng)
        batched = _run_script(script, batched=True)
        per_clause = _run_script(script, batched=False)
        assert batched == per_clause, script


@needs_native
def test_batch_and_per_clause_agree_on_edge_cases():
    scripts = [
        # empty batches, before and between solves
        [("batch", []), ("solve", []), ("batch", []), ("batch", [[1, 2]]),
         ("solve", [-1]), ("batch", []), ("solve", [-1, -2])],
        # the batch derives the empty clause partway; later clauses and
        # batches must be no-ops on both paths
        [("batch", [[1, 2], [-1], [-2], [3, 4], [-3]]), ("solve", []),
         ("batch", [[5]]), ("solve", [5])],
        # unit clauses added after an UNSAT-under-assumptions call (the
        # stale-guard pattern of the pebbling loop)
        [("batch", [[-1, 2], [-1, -2], [3, 4]]), ("solve", [1]),
         ("batch", [[-1]]), ("solve", []), ("batch", [[-3], [4]]),
         ("solve", [4]), ("solve", [-4])],
        # duplicate literals and tautologies inside one batch
        [("batch", [[1, 1, 2], [3, -3], [-2, -2]]), ("solve", []),
         ("solve", [-1])],
    ]
    for script in scripts:
        assert _run_script(script, batched=True) == _run_script(
            script, batched=False
        ), script


@needs_native
def test_invalid_batch_leaves_the_solver_unchanged():
    rng = random.Random(7)
    for _ in range(40):
        script = _random_script(rng)
        clean = create_backend("cdcl:native=1")
        dirty = create_backend("cdcl:native=1")
        for index, (kind, payload) in enumerate(script):
            if kind == "batch":
                clean.add_cnf(_cnf(*payload))
                dirty.add_cnf(_cnf(*payload))
                continue
            # A rejected batch between any two steps changes nothing: the
            # bad literal sits after valid clauses that must not load.
            bad = -(2**31) if index % 2 else 2**31
            with pytest.raises(SolverError):
                dirty.add_cnf(_cnf([1], [-2, 3], [bad]))
            assert dirty.num_variables == clean.num_variables
            expected = clean.solve(payload)
            got = dirty.solve(payload)
            assert got.status == expected.status
            assert got.model == expected.model
            assert _counters(dirty) == _counters(clean)
