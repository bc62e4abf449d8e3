"""Tests for the SAT encoding of the bounded pebbling game."""

from collections import Counter

import pytest

from repro.errors import PebblingError
from repro.pebbling import EncodingOptions, PebblingEncoder, PebblingStrategy
from repro.pebbling.bennett import bennett_strategy
from repro.sat.cards import CardinalityEncoding, at_most_k
from repro.sat.cnf import Cnf
from repro.sat.solver import CdclSolver


class TestEncodingStructure:
    def test_variable_count(self, fig2_dag):
        encoder = PebblingEncoder(fig2_dag)
        encoding = encoder.encode(max_pebbles=4, num_steps=5)
        # One pebble variable per node and time point, plus cardinality
        # auxiliaries; the named pebble variables must all be distinct.
        assert len(encoding.pebble_variables) == 6 * 6
        assert len(set(encoding.pebble_variables.values())) == 6 * 6
        assert encoding.cnf.num_variables >= 6 * 6

    def test_variable_lookup(self, fig2_dag):
        encoding = PebblingEncoder(fig2_dag).encode(max_pebbles=4, num_steps=3)
        assert encoding.variable("A", 0) == encoding.pebble_variables[("A", 0)]
        with pytest.raises(PebblingError):
            encoding.variable("A", 99)

    def test_no_cardinality_clauses_when_budget_covers_all_nodes(self, fig2_dag):
        loose = PebblingEncoder(fig2_dag).encode(max_pebbles=6, num_steps=3)
        tight = PebblingEncoder(fig2_dag).encode(max_pebbles=3, num_steps=3)
        assert tight.cnf.num_clauses > loose.cnf.num_clauses

    def test_invalid_parameters_rejected(self, fig2_dag):
        encoder = PebblingEncoder(fig2_dag)
        with pytest.raises(PebblingError):
            encoder.encode(max_pebbles=0, num_steps=3)
        with pytest.raises(PebblingError):
            encoder.encode(max_pebbles=3, num_steps=0)

    def test_options_validation(self):
        with pytest.raises(PebblingError):
            EncodingOptions(max_moves_per_step=0)


class TestEncodingSemantics:
    def _solve(self, dag, max_pebbles, num_steps, options=None):
        encoder = PebblingEncoder(dag, options=options)
        encoding = encoder.encode(max_pebbles=max_pebbles, num_steps=num_steps)
        result = CdclSolver(encoding.cnf).solve()
        return encoding, result

    def test_bennett_number_of_steps_is_satisfiable(self, fig2_dag):
        options = EncodingOptions(max_moves_per_step=1)
        encoding, result = self._solve(fig2_dag, 6, 10, options)
        assert result.is_sat
        strategy = PebblingStrategy(
            fig2_dag, encoding.configurations_from_model(result.model), max_moves_per_step=1
        )
        assert strategy.max_pebbles <= 6

    def test_too_few_steps_is_unsatisfiable(self, fig2_dag):
        # With one move per step, fewer than 2|V| - |O| = 10 steps cannot work.
        options = EncodingOptions(max_moves_per_step=1)
        _, result = self._solve(fig2_dag, 6, 9, options)
        assert result.is_unsat

    def test_too_few_pebbles_is_unsatisfiable(self, fig2_dag):
        _, result = self._solve(fig2_dag, 2, 20)
        assert result.is_unsat

    def test_extracted_model_is_a_valid_strategy(self, fig2_dag):
        encoding, result = self._solve(fig2_dag, 4, 8)
        assert result.is_sat
        strategy = PebblingStrategy(fig2_dag, encoding.configurations_from_model(result.model))
        assert strategy.max_pebbles <= 4

    def test_multi_move_needs_fewer_transitions(self, fig2_dag):
        # Multi-move: depth 3 + cleanup fits in far fewer than 10 transitions.
        _, result = self._solve(fig2_dag, 6, 5)
        assert result.is_sat

    @pytest.mark.parametrize("encoding_kind", list(CardinalityEncoding))
    def test_all_cardinality_encodings_agree(self, fig2_dag, encoding_kind):
        options = EncodingOptions(cardinality=encoding_kind)
        _, sat_result = self._solve(fig2_dag, 4, 8, options)
        assert sat_result.is_sat
        _, unsat_result = self._solve(fig2_dag, 3, 30, options)
        assert unsat_result.is_unsat

    def test_forbid_idle_steps(self, fig2_dag):
        options = EncodingOptions(forbid_idle_steps=True, max_moves_per_step=1)
        # Exactly 10 steps with no idling: satisfiable.
        _, result = self._solve(fig2_dag, 6, 10, options)
        assert result.is_sat
        # 11 steps with exactly one move each and no idling cannot end in the
        # required final configuration (parity argument).
        _, result_odd = self._solve(fig2_dag, 6, 11, options)
        assert result_odd.is_unsat

    def test_frame_comment_records_steps(self, fig2_dag):
        encoding = PebblingEncoder(fig2_dag).encode(max_pebbles=4, num_steps=5)
        assert "steps=5" in encoding.cnf.comments[0]

    def test_strategy_from_bennett_satisfies_encoding(self, fig2_dag):
        """Injecting the Bennett strategy as assumptions must be satisfiable."""
        strategy = bennett_strategy(fig2_dag)
        encoder = PebblingEncoder(fig2_dag)
        encoding = encoder.encode(max_pebbles=6, num_steps=strategy.num_steps)
        assumptions = []
        for step, config in enumerate(strategy.configurations):
            for node in fig2_dag.nodes():
                variable = encoding.variable(node, step)
                assumptions.append(variable if node in config else -variable)
        solver = CdclSolver(encoding.cnf)
        assert solver.solve(assumptions).is_sat


# ---------------------------------------------------------------------------
# frame-based encoder: parity with the historical monolithic emission
# ---------------------------------------------------------------------------
def _frozen_monolithic_cnf(dag, max_pebbles, num_steps, options):
    """The pre-frame-engine ``PebblingEncoder.encode`` clause emission.

    A verbatim re-implementation of the historical monolithic encoder
    (variables allocated whole-timeline first, clause groups emitted
    globally), kept here as the reference for the parity test.  The only
    change is that cardinality auxiliaries are *named* with the same
    per-step prefixes the frame engine uses, so the two CNFs can be
    compared up to variable renaming.
    """
    nodes = dag.topological_order()
    outputs = set(dag.outputs())
    cnf = Cnf()
    variables = {}
    for step in range(num_steps + 1):
        for node in nodes:
            variables[(node, step)] = cnf.new_variable(f"p[{node},{step}]")

    for node in nodes:
        cnf.add_unit(-variables[(node, 0)])
    for node in nodes:
        literal = variables[(node, num_steps)]
        cnf.add_unit(literal if node in outputs else -literal)

    for step in range(num_steps):
        for node in nodes:
            now = variables[(node, step)]
            then = variables[(node, step + 1)]
            for dependency in dag.dependencies(node):
                dep_now = variables[(dependency, step)]
                dep_then = variables[(dependency, step + 1)]
                cnf.add_clause([-now, then, dep_now])
                cnf.add_clause([now, -then, dep_now])
                cnf.add_clause([-now, then, dep_then])
                cnf.add_clause([now, -then, dep_then])

    if max_pebbles < len(nodes):
        for step in range(num_steps + 1):
            step_literals = [variables[(node, step)] for node in nodes]
            at_most_k(cnf, step_literals, max_pebbles,
                      encoding=options.cardinality,
                      name_prefix=f"card[p,{step}]")

    if options.max_moves_per_step is not None or options.forbid_idle_steps:
        for step in range(num_steps):
            move_literals = []
            for node in nodes:
                move = cnf.new_variable(f"m[{node},{step}]")
                now = variables[(node, step)]
                then = variables[(node, step + 1)]
                cnf.add_clause([-move, now, then])
                cnf.add_clause([-move, -now, -then])
                cnf.add_clause([move, -now, then])
                cnf.add_clause([move, now, -then])
                move_literals.append(move)
            if options.max_moves_per_step is not None:
                at_most_k(cnf, move_literals, options.max_moves_per_step,
                          encoding=options.cardinality,
                          name_prefix=f"card[m,{step}]")
            if options.forbid_idle_steps:
                cnf.add_clause(move_literals)
    return cnf


def _named_clauses(cnf):
    """Canonicalise a CNF as a multiset of clauses over variable *names*.

    Every variable must be named; the result is independent of variable
    numbering and of clause/literal order, so two structurally identical
    encodings compare equal even when emitted in a different order.
    """
    names = {}
    for variable in range(1, cnf.num_variables + 1):
        name = cnf.pool.name_of(variable)
        assert name is not None, f"variable {variable} is unnamed"
        names[variable] = name
    return Counter(
        frozenset(
            ("-" if literal < 0 else "+") + names[abs(literal)]
            for literal in clause
        )
        for clause in cnf.clauses
    )


PARITY_CASES = [
    (4, 6, EncodingOptions()),
    (3, 5, EncodingOptions(cardinality=CardinalityEncoding.TOTALIZER)),
    (4, 6, EncodingOptions(cardinality=CardinalityEncoding.PAIRWISE)),
    (6, 10, EncodingOptions(max_moves_per_step=1)),
    (4, 8, EncodingOptions(max_moves_per_step=2, forbid_idle_steps=True)),
    (6, 10, EncodingOptions(max_moves_per_step=1, forbid_idle_steps=True,
                            cardinality=CardinalityEncoding.TOTALIZER)),
]


class TestFrameParity:
    """extend_to(K) + assert_final(K) must equal the monolithic encoding."""

    @pytest.mark.parametrize("max_pebbles,num_steps,options", PARITY_CASES)
    def test_one_shot_matches_frozen_monolithic(
        self, fig2_dag, max_pebbles, num_steps, options
    ):
        frozen = _frozen_monolithic_cnf(fig2_dag, max_pebbles, num_steps, options)
        framed = PebblingEncoder(fig2_dag, options=options).encode(
            max_pebbles=max_pebbles, num_steps=num_steps
        )
        assert _named_clauses(framed.cnf) == _named_clauses(frozen)

    @pytest.mark.parametrize("max_pebbles,num_steps,options", PARITY_CASES)
    def test_incremental_growth_matches_frozen_monolithic(
        self, fig2_dag, max_pebbles, num_steps, options
    ):
        # Growing one frame at a time (the incremental solver's usage) must
        # emit exactly the monolithic clause set as well.
        frozen = _frozen_monolithic_cnf(fig2_dag, max_pebbles, num_steps, options)
        encoder = PebblingEncoder(fig2_dag, max_pebbles=max_pebbles, options=options)
        for bound in range(1, num_steps + 1):
            encoder.extend_to(bound)
        encoder.assert_final(num_steps)
        assert _named_clauses(encoder.cnf) == _named_clauses(frozen)

    def test_growth_is_identical_to_one_shot_frames(self, and9_dag):
        # Stronger than parity-up-to-naming: step-by-step growth and a single
        # extend_to produce literally the same clause list and numbering.
        stepwise = PebblingEncoder(and9_dag, max_pebbles=5)
        for bound in range(1, 9):
            stepwise.extend_to(bound)
        oneshot = PebblingEncoder(and9_dag, max_pebbles=5)
        oneshot.extend_to(8)
        assert stepwise.cnf.as_lists() == oneshot.cnf.as_lists()


class TestFrameEngine:
    def test_requires_budget_for_frame_methods(self, fig2_dag):
        encoder = PebblingEncoder(fig2_dag)
        with pytest.raises(PebblingError):
            encoder.extend_to(3)
        with pytest.raises(PebblingError):
            _ = encoder.cnf

    def test_extend_to_is_monotonic_and_idempotent(self, fig2_dag):
        encoder = PebblingEncoder(fig2_dag, max_pebbles=4)
        encoder.extend_to(5)
        size = encoder.cnf.num_clauses
        encoder.extend_to(3)  # below the frontier: no-op
        encoder.extend_to(5)
        assert encoder.cnf.num_clauses == size
        assert encoder.num_steps == 5

    def test_final_guard_is_cached_and_guarded(self, fig2_dag):
        encoder = PebblingEncoder(fig2_dag, max_pebbles=4)
        encoder.extend_to(4)
        guard = encoder.final_guard(4)
        assert encoder.final_guard(4) == guard
        # One guard clause per node, selecting the final configuration.
        guarded = [clause for clause in encoder.cnf.clauses if -guard in clause]
        assert len(guarded) == fig2_dag.num_nodes

    def test_final_guard_beyond_frontier_rejected(self, fig2_dag):
        encoder = PebblingEncoder(fig2_dag, max_pebbles=4)
        encoder.extend_to(2)
        with pytest.raises(PebblingError):
            encoder.final_guard(3)
        with pytest.raises(PebblingError):
            encoder.assert_final(3)

    def test_drain_new_clauses_partitions_the_cnf(self, fig2_dag):
        encoder = PebblingEncoder(fig2_dag, max_pebbles=4)
        first = encoder.drain_new_clauses()
        assert first  # frame 0 + initial units
        encoder.extend_to(2)
        second = encoder.drain_new_clauses()
        assert encoder.drain_new_clauses() == []
        assert first + second == encoder.cnf.clauses

    def test_guarded_query_equivalent_to_units(self, fig2_dag):
        # Assuming the guard must behave exactly like asserting the final
        # configuration: same verdict on a SAT and an UNSAT instance.
        for pebbles, steps, expected in ((4, 6, True), (3, 6, False)):
            encoder = PebblingEncoder(fig2_dag, max_pebbles=pebbles)
            encoder.extend_to(steps)
            guard = encoder.final_guard(steps)
            solver = CdclSolver(encoder.cnf)
            assert solver.solve([guard]).is_sat is expected
            one_shot = PebblingEncoder(fig2_dag).encode(
                max_pebbles=pebbles, num_steps=steps
            )
            assert CdclSolver(one_shot.cnf).solve().is_sat is expected


def _check_frame_clause(literals):
    assert literals, "empty clause in a frame"
    for literal in literals:
        assert type(literal) is int and literal != 0, literals
    assert len(set(literals)) == len(literals), f"duplicate literal: {literals}"
    assert not any(-literal in literals for literal in literals), (
        f"complementary pair: {literals}"
    )


@pytest.mark.parametrize(
    "workload, budget",
    [("fig2", 4), ("c17", 4), ("and9", 4), ("hadamard", 5), ("edwards-add", 9)],
)
@pytest.mark.parametrize(
    "cardinality", [CardinalityEncoding.SEQUENTIAL, CardinalityEncoding.TOTALIZER]
)
@pytest.mark.parametrize("single_move", [False, True])
def test_drained_frames_hold_only_clean_clauses(
    monkeypatch, workload, budget, cardinality, single_move
):
    """Every clause the frame engine hands the SAT backend is a set of
    non-zero int literals with no complementary pair — before ``Clause``
    deduplicates (the literals the encoder passes in) and after (what
    ``drain_new_clauses`` returns)."""
    from repro.workloads import load_workload

    add_clause = Cnf.add_clause

    def checked_add_clause(cnf, literals):
        literals = list(literals)
        _check_frame_clause(literals)
        return add_clause(cnf, literals)

    monkeypatch.setattr(Cnf, "add_clause", checked_add_clause)
    options = EncodingOptions(
        cardinality=cardinality, max_moves_per_step=1 if single_move else None
    )
    encoder = PebblingEncoder(
        load_workload(workload), max_pebbles=budget, options=options
    )
    drained = 0
    for bound in range(1, 7):
        encoder.extend_to(bound)
        encoder.final_guard(bound)
        frame = encoder.drain_new_clauses()
        assert frame
        for clause in frame:
            _check_frame_clause(list(clause.literals))
        drained += len(frame)
    assert drained == encoder.cnf.num_clauses


class TestWeightedEncoding:
    def test_unit_weights_emit_identical_cnf(self, fig2_dag):
        plain = PebblingEncoder(fig2_dag).encode(max_pebbles=4, num_steps=5)
        weighted = PebblingEncoder(
            fig2_dag, options=EncodingOptions(weighted=True)
        ).encode(max_pebbles=4, num_steps=5)
        assert [c.literals for c in weighted.cnf.clauses] == [
            c.literals for c in plain.cnf.clauses
        ]

    def test_weighted_budget_bounds_configuration_weight(self, fig2_dag):
        from repro.sat.cards import weighted_sum_true

        fig2_dag.node("E").weight = 3.0
        encoder = PebblingEncoder(fig2_dag, options=EncodingOptions(weighted=True))
        encoding = encoder.encode(max_pebbles=6, num_steps=8)
        result = CdclSolver(encoding.cnf).solve()
        assert result.is_sat
        weights = [int(fig2_dag.node(node).weight) for node in fig2_dag.nodes()]
        for step in range(encoding.num_steps + 1):
            literals = [
                encoding.variable(node, step) for node in fig2_dag.nodes()
            ]
            assert weighted_sum_true(result.model, literals, weights) <= 6

    def test_weighted_rejects_fractional_node_weights(self, fig2_dag):
        fig2_dag.node("B").weight = 0.5
        with pytest.raises(PebblingError):
            PebblingEncoder(fig2_dag, options=EncodingOptions(weighted=True))

    def test_weighted_comment_tags_the_budget(self, fig2_dag):
        fig2_dag.node("E").weight = 2.0
        encoding = PebblingEncoder(
            fig2_dag, options=EncodingOptions(weighted=True)
        ).encode(max_pebbles=5, num_steps=4)
        assert "weight=5" in encoding.cnf.comments[0]
