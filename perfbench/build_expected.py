"""Rebuild ``expected.json``, the answer table the benchmark checks against.

Every (DAG, budget, single-move) any workload sends is solved with the default search
(linear schedule, sequential cardinality) on both the Python and the
native engine.  An entry is written only where the two engines agree on
``(outcome, steps, minimal)`` and the witness passes the benchmark's own
checker; any disagreement aborts without writing the table.

Run from the repository root:  python3 perfbench/build_expected.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from pools import EXPECTED_PATH, all_requests, expected_key  # noqa: E402
from witness import Board, witness_error  # noqa: E402

ENGINES = ("cdcl", "cdcl:native=1")


def main() -> int:
    from repro import EncodingOptions, ReversiblePebblingSolver, load_workload

    table: dict[str, dict] = {}
    for name, budget, single_move in all_requests():
        key = expected_key(name, budget, single_move)
        dag = load_workload(name)
        board = Board.from_dag(dag)
        options = EncodingOptions(max_moves_per_step=1 if single_move else None)
        answers = []
        for engine in ENGINES:
            started = time.perf_counter()
            solver = ReversiblePebblingSolver(dag, options=options, backend=engine)
            result = solver.solve(budget)
            answer = {
                "outcome": result.outcome.value,
                "steps": result.num_steps,
                "minimal": result.minimal,
            }
            if result.strategy is not None:
                error = witness_error(
                    board, result.strategy.configurations, budget
                )
                if error is not None:
                    print(f"{key} {engine}: invalid witness: {error}")
                    return 1
            answers.append(answer)
            print(
                f"{key} {engine} {answer} "
                f"{time.perf_counter() - started:.2f}s",
                flush=True,
            )
        if answers[0] != answers[1]:
            print(f"{key}: engines disagree: {answers}")
            return 1
        table[key] = answers[0]
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
