"""Independent checker for reversible pebbling witnesses.

The benchmark does not trust the solver's own validation: every witness
it receives is re-checked here against the rules of the game, with code
that shares nothing with ``repro.pebbling.strategy``.  The board is plain
data (a dependency map and the set of outputs), so the checker can be
tested on hand-built boards and corrupted witnesses.

Rules checked, for a witness given as a list of configurations (sets of
pebbled nodes, one per time step):

* the first configuration is empty and every pebbled node exists;
* a move (a node whose pebble state differs between two consecutive
  configurations) needs every dependency pebbled before *and* after it;
* no configuration holds more pebbles than the budget (or, for a weighted
  game, more total node weight than the weight budget);
* the last configuration equals the outputs.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence


class Board:
    """The pebbling board: node -> dependencies, plus the output set."""

    def __init__(
        self,
        dependencies: Mapping[str, Iterable[str]],
        outputs: Iterable[str],
        weights: Mapping[str, float] | None = None,
    ) -> None:
        self.dependencies = {
            node: frozenset(deps) for node, deps in dependencies.items()
        }
        self.outputs = frozenset(outputs)
        self.weights = dict(weights) if weights is not None else None

    @classmethod
    def from_dag(cls, dag, *, weighted: bool = False) -> "Board":
        """Copy a ``repro`` DAG into plain data, with node names as strings."""
        return cls(
            {
                str(node): [str(dep) for dep in dag.dependencies(node)]
                for node in dag.nodes()
            },
            [str(node) for node in dag.outputs()],
            {str(node): dag.node(node).weight for node in dag.nodes()}
            if weighted
            else None,
        )


def witness_error(
    board: Board, configurations: Sequence[Iterable[str]], budget: float
) -> str | None:
    """Return why ``configurations`` breaks the game, or ``None`` if legal."""
    configs = [frozenset(str(node) for node in config) for config in configurations]
    if not configs:
        return "empty witness"
    if configs[0]:
        return f"initial configuration is not empty: {sorted(configs[0])}"
    for step, config in enumerate(configs):
        unknown = config - board.dependencies.keys()
        if unknown:
            return f"step {step} pebbles unknown nodes {sorted(unknown)}"
        if board.weights is None:
            used = len(config)
        else:
            used = sum(board.weights[node] for node in config)
        if used > budget:
            return f"step {step} uses {used} pebbles, budget {budget}"
    for step in range(1, len(configs)):
        before, after = configs[step - 1], configs[step]
        for node in before ^ after:
            for dep in board.dependencies[node]:
                if dep not in before or dep not in after:
                    return (
                        f"move on {node} at step {step} while its dependency "
                        f"{dep} is not pebbled before and after"
                    )
    if configs[-1] != board.outputs:
        return (
            f"final configuration {sorted(configs[-1])} is not the outputs "
            f"{sorted(board.outputs)}"
        )
    return None
