"""Tests of the benchmark's own code: witness checker, generator, statistics,
host-speed scaling and the closed loop's stopping rule."""

from collections import Counter
from types import SimpleNamespace

import pytest

import run
from hostspeed import ROUND_TRIP_REFERENCE_S
from pools import (
    CERTIFY,
    all_requests,
    closed_loop_pass,
    expected_key,
    load_expected,
    serve_schedule,
    serve_sessions,
)
from stats import TooFewSamples, percentile, samples_needed
from witness import Board, witness_error

# The Fig. 2 board: C reads A, D reads B, E reads C and D, F reads A.
FIG2 = Board(
    {"A": [], "B": [], "C": ["A"], "D": ["B"], "E": ["C", "D"], "F": ["A"]},
    ["E", "F"],
)


def legal_witness():
    """A legal single-move strategy that needs five pebbles."""
    return [
        set(),
        {"A"},
        {"A", "B"},
        {"A", "B", "C"},
        {"A", "B", "C", "D"},
        {"A", "B", "C", "D", "E"},
        {"A", "B", "C", "E"},
        {"A", "C", "E"},
        {"A", "E"},
        {"A", "E", "F"},
        {"E", "F"},
    ]


def test_legal_witness_passes():
    assert witness_error(FIG2, legal_witness(), 5) is None


def test_rejects_move_without_dependency():
    witness = legal_witness()
    witness.insert(1, {"C"})  # C pebbled before A
    assert "dependency A" in witness_error(FIG2, witness, 5)


def test_rejects_move_whose_dependency_leaves_at_the_same_step():
    witness = legal_witness()
    # D removed in the same step as B, which D reads.
    witness[6] = {"A", "C", "E"}
    assert "dependency B" in witness_error(FIG2, witness, 5)


def test_rejects_going_over_budget():
    assert "budget 4" in witness_error(FIG2, legal_witness(), 4)


def test_weighted_budget_counts_weights():
    heavy = Board(FIG2.dependencies, FIG2.outputs, {node: 2 for node in "ABCDEF"})
    assert witness_error(heavy, legal_witness(), 10) is None
    assert "budget 9" in witness_error(heavy, legal_witness(), 9)


def test_rejects_wrong_final_configuration():
    witness = legal_witness()[:-1]  # A is still pebbled at the end
    assert "not the outputs" in witness_error(FIG2, witness, 5)


def test_rejects_non_empty_start_and_unknown_nodes():
    assert "not empty" in witness_error(FIG2, [{"A"}, {"A", "F"}], 5)
    assert "unknown" in witness_error(FIG2, [set(), {"Z"}], 5)


def test_board_from_dag_matches_the_registry():
    from repro.workloads import load_workload

    board = Board.from_dag(load_workload("fig2"))
    assert board.dependencies == FIG2.dependencies
    assert board.outputs == FIG2.outputs


def test_closed_loop_passes_are_seeded_permutations_of_the_pool():
    first = closed_loop_pass("certify", 7, 0)
    assert first == closed_loop_pass("certify", 7, 0)
    assert sorted(first) == sorted(CERTIFY)
    assert first != closed_loop_pass("certify", 8, 0)
    assert first != closed_loop_pass("certify", 7, 1)


def test_serve_schedule_is_seeded():
    one = serve_schedule(3, 200)
    assert one == serve_schedule(3, 200)
    other = serve_schedule(4, 200)
    assert one != other
    assert len(one) >= 200 and len(other) >= 200
    dues = [arrival.due for arrival in one]
    assert dues == sorted(dues)
    # Whole cycles: every seed sends the same requests, in its own order.
    assert len(one) == len(other)
    assert Counter(a.key for a in one) == Counter(a.key for a in other)


def test_serve_sessions_are_suite_entries_and_sweeps():
    sessions, counts = serve_sessions()
    batch, *sweeps = sessions
    assert ("pebble", "fig2", 4, True) in batch
    # One pebble and one compile sweep per suite DAG, sent as often as the
    # suite lists it; each kind of session is equally frequent.
    assert len(sweeps) == 8
    assert counts[0] == sum(counts[1:5]) == sum(counts[5:]) == 9
    assert ("compile", "and9", (5, 6, 7, 8)) in {
        (s[0][0], s[0][1], tuple(r[2] for r in s)) for s in sweeps
    }


def test_serve_sends_only_feasible_budgets():
    table = load_expected()
    sessions, _ = serve_sessions()
    for session in sessions:
        for _, name, budget, single_move in session:
            assert table[expected_key(name, budget, single_move)]["outcome"] == "solution"


def test_every_request_has_an_expected_answer():
    table = load_expected()
    for name, budget, single_move in all_requests():
        entry = table[expected_key(name, budget, single_move)]
        assert set(entry) == {"outcome", "steps", "minimal"}


def _failing_pass(cause, calls):
    def fake(ctx, order, tracer=None):
        calls.append(order)
        records = [run.Record(f"{name}:{budget}", 0.01, cause) for name, budget in order]
        return run.Phase(records, 0.01, 0.01, 1)
    return fake


def test_closed_loop_stops_after_a_pass_with_wrong_answers(monkeypatch):
    calls = []
    monkeypatch.setattr(run, "run_pass", _failing_pass("wrong answer: steps off by one", calls))
    ctx = SimpleNamespace(workload="certify", unavailable=None)
    phase = run.run_closed_loop(ctx, seed=1, seconds=3600.0)
    assert len(calls) == 1
    assert phase.wrong and not phase.answers


def test_closed_loop_without_answers_stops_at_its_cap(monkeypatch):
    calls = []
    monkeypatch.setattr(run, "run_pass", _failing_pass("incomplete search (timeout)", calls))
    ctx = SimpleNamespace(workload="certify", unavailable=None)
    phase = run.run_closed_loop(ctx, seed=1, seconds=0.0)
    assert len(calls) == run.MIN_PASSES
    assert not phase.wrong and not phase.answers


def test_end_to_end_leaves_out_percentiles_without_samples():
    records = [run.Record("fig2:4", 0.01) for _ in range(30)]
    phase = run.merge([run.Phase(records, 0.3, 0.3, 1)])
    metrics, refused = run.end_to_end(phase, [0.5, 0.6, 0.7])
    assert "latency_p50_s" in metrics and "latency_p75_s" not in metrics
    assert refused and refused[0].startswith("latency_p75_s")


def test_percentile_refuses_too_few_samples_beyond():
    values = [float(i) for i in range(39)]
    with pytest.raises(TooFewSamples):
        percentile(values, 0.75)
    assert percentile(values + [39.0], 0.75) == pytest.approx(29.25)
    with pytest.raises(TooFewSamples):
        percentile(values[:19], 0.5)
    assert percentile(values[:20], 0.5) == pytest.approx(9.5)


def test_samples_needed():
    assert samples_needed(0.5) == 20
    assert samples_needed(0.75) == 40
    assert samples_needed(0.9) == 100


def test_end_to_end_scales_times_by_the_host_speed_factors():
    records = [run.Record("fig2:4", 0.01, cpu=0.02, factor=2.0, cpu_factor=0.5)
               for _ in range(40)]
    phase = run.merge([run.Phase(records, 0.4, 0.8, 1)])
    scaled, _ = run.end_to_end(phase, [0.5])
    measured, _ = run.end_to_end(phase, [0.5], scaled=False)
    assert scaled["latency_p50_s"] == pytest.approx(2 * measured["latency_p50_s"])
    assert scaled["throughput_rps"] == pytest.approx(measured["throughput_rps"] / 2)
    assert scaled["cpu_s_per_req"] == pytest.approx(measured["cpu_s_per_req"] / 2)
    assert scaled["setup_s"] == pytest.approx(2 * measured["setup_s"]) == 1.0


def test_serve_factor_uses_the_round_trips_near_each_request():
    reference = ROUND_TRIP_REFERENCE_S
    probes = [(0.0, reference, 0.0), (0.2, reference, 0.0), (5.0, 2 * reference, 0.0)]
    assert run._serve_factor(probes, 0.1, 0.5) == pytest.approx(1.0)
    assert run._serve_factor(probes, 5.2, 0.5) == pytest.approx(0.5)
    # No round trip within the window: the run's median.
    assert run._serve_factor(probes, 3.0, 0.5) == pytest.approx(1.0)
