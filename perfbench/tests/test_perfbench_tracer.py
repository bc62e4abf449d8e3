"""Tests of the outside-in tracer."""

import pytest

from tracer import Tracer, layer_totals


def span(span_id, parent, name, start, end, attrs=None):
    return [span_id, parent, "r#1", name, start, end, attrs]


def test_layer_totals_self_time_and_nesting():
    spans = [
        span(1, None, "solver.solve", 0.0, 10.0),
        span(2, 1, "encoding.__init__", 0.0, 1.0),
        span(3, 1, "encoding.encode", 1.0, 3.0, {"clauses": 50}),
        span(4, 3, "encoding.__init__", 1.0, 1.5),  # nested: not counted again
        span(5, 1, "sat.load", 3.0, 4.0, {"clauses": 40}),
        span(6, 1, "sat.search", 4.0, 8.0, {"conflicts": 7, "status": "unknown"}),
        span(7, 1, "strategy.validate", 8.0, 8.5),
    ]
    totals = layer_totals(spans)
    assert totals["encoding.busy_s"] == pytest.approx(3.0)
    assert totals["encoding.clauses"] == 50
    assert totals["sat.load_s"] == pytest.approx(1.0)
    assert totals["sat.load_calls"] == 40
    assert totals["sat.search_s"] == pytest.approx(4.0)
    assert totals["sat.calls"] == 1
    assert totals["sat.conflicts"] == 7
    assert totals["sat.unknown_calls"] == 1
    assert totals["strategy.validate_s"] == pytest.approx(0.5)
    # 10 s of solve minus 1 + 2 + 1 + 4 + 0.5 s of direct children.
    assert totals["solver.self_s"] == pytest.approx(1.5)


def test_traced_solve_records_every_layer_and_uninstalls():
    from repro import ReversiblePebblingSolver, load_workload
    from repro.pebbling.solver import ReversiblePebblingSolver as Solver

    original = Solver.solve
    dag = load_workload("fig2")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_request("fig2:4")
        result = ReversiblePebblingSolver(dag).solve(4)
    finally:
        tracer.uninstall()
    assert Solver.solve is original
    assert result.num_steps == 6
    names = {record[3] for record in tracer.spans}
    assert {"solver.solve", "sat.create", "sat.load", "sat.search",
            "strategy.validate", "encoding.extend_to"} <= names
    assert all(record[2] == "fig2:4#1" for record in tracer.spans)
    totals = layer_totals(tracer.spans)
    assert totals["sat.calls"] == len(result.attempts)
    assert totals["sat.load_calls"] >= totals["encoding.clauses"] > 0
    assert totals["solver.self_s"] >= 0
    # Nothing is recorded once uninstalled.
    before = len(tracer.spans)
    ReversiblePebblingSolver(dag).solve(4)
    assert len(tracer.spans) == before
