"""Per-node runtime state used while executing a distributed algorithm.

A :class:`NodeRuntime` is the object handed to algorithm callbacks.  It
exposes the *local* knowledge a node legitimately has in the LOCAL model:

* its own vertex index (for bookkeeping only), unique identifier, degree and
  the vertex indices of its neighbours (a stand-in for communication ports),
* its private randomness (:attr:`rng`),
* its mutable local state (:attr:`state`),
* the commit interface (:meth:`commit`, :meth:`commit_edge`) used to fix
  outputs — the runner records the round of each commit, which is exactly the
  per-node / per-edge computation time ``T_v`` / ``T_e`` of the paper,
* :meth:`halt` to stop participating.

Algorithms must not reach through a node into the global network topology;
everything they learn beyond the initial local knowledge must arrive through
messages.  (The simulator does not police this — it is a convention, as usual
for LOCAL-model simulators — but the provided algorithms follow it.)
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.local.network import Network

__all__ = ["NodeRuntime", "CommitError"]


class CommitError(RuntimeError):
    """Raised when an algorithm commits an output twice with conflicting values."""


class NodeRuntime:
    """Mutable execution state of a single node.

    Instances are created by the runner; algorithm code only consumes them.
    """

    __slots__ = (
        "vertex",
        "identifier",
        "degree",
        "neighbors",
        "rng",
        "state",
        "_halted",
        "_crashed",
        "_output",
        "_output_round",
        "_edge_outputs",
        "_edge_output_rounds",
        "_current_round",
        "_neighbor_set",
        "_observer",
        "_coro_program",
        "_coro_outbox",
    )

    def __init__(
        self,
        vertex: int,
        identifier: int,
        neighbors: Tuple[int, ...],
        rng: random.Random,
        observer: Optional[Any] = None,
    ) -> None:
        self.vertex = vertex
        self.identifier = identifier
        self.neighbors = neighbors
        self.degree = len(neighbors)
        self.rng = rng
        self.state: Dict[str, Any] = {}
        self._halted = False
        self._crashed = False
        self._output: Any = None
        self._output_round: Optional[int] = None
        self._edge_outputs: Dict[int, Any] = {}
        self._edge_output_rounds: Dict[int, int] = {}
        self._current_round = 0
        # Membership tests against a short tuple beat building a frozenset;
        # only high-degree nodes get a real set.
        self._neighbor_set = neighbors if len(neighbors) <= 8 else frozenset(neighbors)
        # The runner's completion tracker; notified on first commits and on
        # halting so that execution-complete checks are O(1) per event
        # instead of a full graph scan per round.
        self._observer = observer
        # Slots used by CoroutineAlgorithm (faster than state-dict entries).
        self._coro_program: Any = None
        self._coro_outbox: Any = None

    # ------------------------------------------------------------------ #
    # Output commitment
    # ------------------------------------------------------------------ #

    def commit(self, value: Any) -> None:
        """Commit this node's output.

        The first commit fixes the value and records the current round as the
        node's computation time.  Re-committing the same value is a no-op;
        committing a different value raises :class:`CommitError` because a
        committed output is, by definition, final.
        """
        if self._output_round is not None:
            if self._output != value:
                raise CommitError(
                    f"node {self.vertex} recommitted output {value!r} "
                    f"(already committed {self._output!r} in round {self._output_round})"
                )
            return
        self._output = value
        self._output_round = self._current_round
        if self._observer is not None:
            self._observer.node_committed(self.vertex)

    def commit_edge(self, neighbor: int, value: Any) -> None:
        """Commit the output of the edge towards ``neighbor``.

        Edge outputs (e.g. matching membership, orientations, edge colours)
        may be committed by either endpoint; the runner cross-checks that the
        two endpoints never commit conflicting values.
        """
        if neighbor not in self._edge_outputs:
            self._edge_outputs[neighbor] = value
            self._edge_output_rounds[neighbor] = self._current_round
            if self._observer is not None:
                self._observer.edge_committed(self.vertex, neighbor)
            return
        if self._edge_outputs[neighbor] != value:
            raise CommitError(
                f"node {self.vertex} recommitted edge ({self.vertex}, {neighbor}) output "
                f"{value!r} (already committed {self._edge_outputs[neighbor]!r})"
            )

    def revoke(self) -> None:
        """Withdraw this node's committed output (self-stabilisation only).

        Ordinary algorithms treat commits as final; a self-stabilising
        algorithm reacting to a crashed neighbour may revoke its own output
        and recompute.  A no-op when nothing was committed.
        """
        if self._output_round is None:
            return
        self._output = None
        self._output_round = None
        if self._observer is not None:
            self._observer.node_revoked(self.vertex)

    def revoke_edge(self, neighbor: int) -> None:
        """Withdraw this node's commit for the edge towards ``neighbor``.

        Only removes *this endpoint's* record; the runner's completion
        tracker decides whether the edge as a whole becomes undecided again
        (it stays decided while the other live endpoint's commit stands).
        A no-op when this node never committed that edge.
        """
        if neighbor not in self._edge_outputs:
            return
        del self._edge_outputs[neighbor]
        del self._edge_output_rounds[neighbor]
        if self._observer is not None:
            self._observer.edge_revoked(self.vertex, neighbor)

    @property
    def has_committed(self) -> bool:
        """Whether this node has committed its own output."""
        return self._output_round is not None

    @property
    def output(self) -> Any:
        """The committed node output (``None`` before any commit)."""
        return self._output

    # ------------------------------------------------------------------ #
    # Participation control
    # ------------------------------------------------------------------ #

    def halt(self) -> None:
        """Stop participating: the node sends no further messages."""
        if not self._halted:
            self._halted = True
            if self._observer is not None:
                self._observer.node_halted(self.vertex)

    @property
    def halted(self) -> bool:
        """Whether the node has stopped participating."""
        return self._halted

    @property
    def crashed(self) -> bool:
        """Whether the node was killed by an injected crash-stop fault.

        Set by the runner when a :class:`~repro.local.faults.FaultSchedule`
        crashes the node; a crashed node sends nothing, processes nothing
        and never commits again.
        """
        return self._crashed

    @property
    def round(self) -> int:
        """The current round number (0 during ``init``)."""
        return self._current_round

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"NodeRuntime(vertex={self.vertex}, id={self.identifier}, "
            f"degree={self.degree}, committed={self.has_committed})"
        )
