"""Property tests for the clause-database layer of the CDCL solver.

The learned-clause machinery rewritten for the flat-arena layout —
LBD-ranked reduction, root-level inprocessing (subsumption and
self-subsumption) and the flat watcher lists — is invisible from the
public API when it works, and silently unsound when it does not.  These
tests audit the invariants directly:

* ``_reduce_learned`` never deletes a clause that is locked as a reason
  on the trail or whose LBD is at most ``glue_max``;
* after every reduction and every ``_detach`` the watcher lists are
  exactly consistent (every live clause watched twice, on the negations
  of its first two literals, with no stale slot references);
* inprocessing between restarts never changes a verdict on random
  incremental add/solve/assume sequences, cross-checked against the
  DPLL oracle.
"""

from __future__ import annotations

from hypothesis import event, given, settings, strategies as st

from repro.sat.dpll import DpllSolver
from repro.sat.instances import pigeonhole
from repro.sat.solver import CdclSolver

MAX_VARIABLES = 12


@st.composite
def random_cnf(draw, max_clauses: int = 40) -> list[list[int]]:
    num_variables = draw(st.integers(min_value=1, max_value=MAX_VARIABLES))
    num_clauses = draw(st.integers(min_value=0, max_value=max_clauses))
    clauses: list[list[int]] = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=4))
        clauses.append(
            [
                draw(st.integers(min_value=1, max_value=num_variables))
                * draw(st.sampled_from([1, -1]))
                for _ in range(width)
            ]
        )
    return clauses


class AuditingSolver(CdclSolver):
    """CdclSolver that checks reduction invariants on every call."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.reduce_calls = 0

    def _reduce_learned(self):
        locked_before = self._locked_slots() & set(self._learned_slots)
        glue_before = {
            slot
            for slot in self._learned_slots
            if self._lbd[slot] <= self._glue_max
        }
        super()._reduce_learned()
        survivors = set(self._learned_slots)
        assert glue_before <= survivors, "reduction deleted a glue clause"
        assert locked_before <= survivors, "reduction deleted a locked reason"
        for slot in glue_before | locked_before:
            assert self._arena[slot] is not None
        self._debug_check_watches()
        self.reduce_calls += 1

    def _inprocess(self, deadline):
        result = super()._inprocess(deadline)
        self._debug_check_watches()
        return result


def _aggressive(**overrides) -> AuditingSolver:
    """A solver tuned so reduction/inprocessing fire on tiny instances."""
    options = dict(
        reduce_min_learned=8,
        learned_limit_base=8,
        restart_base=4,
        inprocess_interval=16,
    )
    options.update(overrides)
    return AuditingSolver(**options)


def test_reduction_fires_and_preserves_verdict_on_pigeonhole():
    solver = _aggressive()
    for clause in pigeonhole(7, 6).clauses:
        solver.add_clause(clause)
    result = solver.solve()
    assert not result.is_sat
    assert solver.reduce_calls > 0
    assert solver.stats.deleted_clauses > 0
    solver._debug_check_watches()


def test_inprocessing_fires_and_preserves_verdict_on_pigeonhole():
    solver = _aggressive()
    for clause in pigeonhole(7, 6).clauses:
        solver.add_clause(clause)
    assert not solver.solve().is_sat
    assert solver.stats.inprocessings > 0


@given(random_cnf())
@settings(max_examples=80, deadline=None)
def test_aggressive_reduction_agrees_with_dpll(clauses):
    solver = _aggressive()
    dpll = DpllSolver()
    for clause in clauses:
        solver.add_clause(clause)
        dpll.add_clause(clause)
    assert solver.solve().is_sat == dpll.solve().is_sat
    solver._debug_check_watches()


@given(
    st.lists(random_cnf(max_clauses=15), min_size=1, max_size=4),
    st.lists(
        st.lists(
            st.integers(min_value=1, max_value=MAX_VARIABLES), max_size=3
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_incremental_inprocessing_agrees_with_dpll(batches, assumption_sets):
    """Random add/solve/assume sequences: inprocessing must be incremental-
    sound — clauses strengthened or subsumed in one solve must leave every
    later solve (with or without assumptions) agreeing with DPLL."""
    solver = _aggressive()
    reference: list[list[int]] = []
    for index, batch in enumerate(batches):
        for clause in batch:
            solver.add_clause(clause)
            reference.append(clause)
        assumptions = [
            variable if variable % 2 else -variable
            for variable in assumption_sets[index % len(assumption_sets)]
        ]
        dpll = DpllSolver()
        for clause in reference:
            dpll.add_clause(clause)
        for literal in assumptions:
            dpll.add_clause([literal])
        expected = dpll.solve().is_sat
        got = solver.solve(assumptions=assumptions)
        assert got.is_sat == expected
        # And without assumptions the base formula's verdict must hold too.
        dpll_base = DpllSolver()
        for clause in reference:
            dpll_base.add_clause(clause)
        assert solver.solve().is_sat == dpll_base.solve().is_sat
    solver._debug_check_watches()


def test_detach_is_consistent_and_repeatable():
    solver = CdclSolver()
    slots = []
    for clause in ([1, 2, 3], [-1, 2, 4], [2, 3, 4, 5], [-2, -3]):
        solver.add_clause(clause)
    # Internal slots 0..3 in insertion order; detach the middle ones.
    solver._debug_check_watches()
    solver._detach(1)
    solver._free_slot(1)
    solver._debug_check_watches()
    solver._detach(3)
    solver._free_slot(3)
    solver._debug_check_watches()
    assert solver.solve().is_sat
    del slots


def test_glue_clauses_survive_many_solves():
    solver = _aggressive(glue_max=2)
    for clause in pigeonhole(6, 5).clauses:
        solver.add_clause(clause)
    assert not solver.solve().is_sat
    glue = {
        slot
        for slot in solver._learned_slots
        if solver._lbd[slot] <= solver._glue_max
    }
    assert glue == {
        slot for slot in glue if solver._arena[slot] is not None
    }
    assert solver._glue_count == sum(
        1
        for slot in solver._learned_slots
        if solver._lbd[slot] <= solver._glue_max
    )


def test_profile_mode_records_phase_times():
    solver = CdclSolver(profile=True)
    for clause in pigeonhole(6, 5).clauses:
        solver.add_clause(clause)
    assert not solver.solve().is_sat
    phase_times = solver.stats.phase_times
    assert phase_times is not None
    assert set(phase_times) == {"propagate", "analyze", "reduce", "inprocess"}
    assert all(value >= 0.0 for value in phase_times.values())
    counters = solver.stats.as_dict()
    for key in ("time_propagate", "time_analyze", "time_reduce",
                "time_inprocess"):
        assert key in counters
    assert counters["time_propagate"] > 0.0


def test_lbd_histogram_counts_learned_clauses():
    solver = CdclSolver()
    for clause in pigeonhole(6, 5).clauses:
        solver.add_clause(clause)
    assert not solver.solve().is_sat
    stats = solver.stats
    total = stats.lbd_glue + stats.lbd_mid + stats.lbd_high
    # The histogram counts every learned lemma, including unit lemmas
    # that are enqueued at the root instead of attached as clauses.
    assert total >= stats.learned_clauses > 0
    assert total <= stats.conflicts
    assert stats.lbd_sum >= total  # every learned clause has LBD >= 1
    assert "lbd_glue" in stats.as_dict()
    assert "phase_times" not in stats.as_dict()


def _satisfies(model: dict[int, bool], clauses: list[list[int]]) -> bool:
    return all(
        any(model.get(abs(lit), False) == (lit > 0) for lit in clause)
        for clause in clauses
    )


def _live_clauses(solver: CdclSolver) -> list[list[int]]:
    return sorted(sorted(clause) for clause in solver._arena if clause is not None)


def _encoded(clause: list[int]) -> list[int]:
    """The internal literal encoding of ``clause`` in a fresh solver."""
    probe = CdclSolver()
    probe.add_clause(clause)
    return sorted(probe._arena[0])


def _inprocess_before_search(solver: CdclSolver) -> None:
    """Run one inprocessing pass now, as the conflict trigger would between
    restarts, so every example exercises it however few conflicts follow."""
    if not solver._ok:
        return
    if not solver._inprocess(None):
        assert not solver._ok
    assert solver.stats.inprocessings == 1 or not solver._ok
    stats = solver.stats
    event(f"clauses rewritten: {stats.subsumed_clauses + stats.strengthened_clauses > 0}")


def test_inprocessing_deletes_a_subsumed_clause():
    solver = CdclSolver()
    for clause in ([1, 2], [1, 2, 3], [3, 4]):
        solver.add_clause(clause)
    assert solver._inprocess(None)
    assert solver.stats.subsumed_clauses == 1
    assert _live_clauses(solver) == sorted([_encoded([1, 2]), _encoded([3, 4])])
    solver._debug_check_watches()
    result = solver.solve()
    assert result.is_sat
    assert _satisfies(result.model, [[1, 2], [1, 2, 3], [3, 4]])


def test_inprocessing_strengthens_by_self_subsumption():
    # Resolving (x1 v x2) with (~x1 v x2 v x3) on x1 gives (x2 v x3), which
    # subsumes the second clause, so it loses ~x1.
    solver = CdclSolver()
    for clause in ([1, 2], [-1, 2, 3]):
        solver.add_clause(clause)
    assert solver._inprocess(None)
    assert solver.stats.strengthened_clauses == 1
    assert solver.stats.subsumed_clauses == 0
    assert _live_clauses(solver) == sorted([_encoded([1, 2]), _encoded([2, 3])])
    solver._debug_check_watches()
    result = solver.solve(assumptions=[-2])
    assert result.is_sat
    assert result.model[1] and result.model[3]


@given(random_cnf())
@settings(max_examples=80, deadline=None)
def test_aggressive_inprocessing_models_satisfy_the_original_clauses(clauses):
    """Subsumption and strengthening rewrite the clause database; the model
    handed back must still satisfy every clause as originally added."""
    solver = _aggressive()
    dpll = DpllSolver()
    for clause in clauses:
        solver.add_clause(clause)
        dpll.add_clause(clause)
    _inprocess_before_search(solver)
    result = solver.solve()
    assert result.is_sat == dpll.solve().is_sat
    if result.is_sat:
        assert _satisfies(result.model, clauses)


@given(
    random_cnf(max_clauses=25),
    st.lists(
        st.integers(min_value=1, max_value=MAX_VARIABLES).map(
            lambda v: v if v % 2 else -v
        ),
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_assumption_cores_stay_sound_under_inprocessing(clauses, assumptions):
    """With inprocessing firing, the reported core is a subset of the
    assumptions and the formula plus the core as units is still UNSAT."""
    solver = _aggressive()
    for clause in clauses:
        solver.add_clause(clause)
    dpll = DpllSolver()
    for clause in clauses:
        dpll.add_clause(clause)
    for literal in assumptions:
        dpll.add_clause([literal])
    _inprocess_before_search(solver)
    result = solver.solve(assumptions=assumptions)
    assert result.is_sat == dpll.solve().is_sat
    if not result.is_sat:
        core = solver.failed_assumptions()
        assert set(core) <= set(assumptions)
        check = DpllSolver()
        for clause in clauses:
            check.add_clause(clause)
        for literal in core:
            check.add_clause([literal])
        assert not check.solve().is_sat
