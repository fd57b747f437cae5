"""Execution traces: per-node and per-edge commit times and outputs.

An :class:`ExecutionTrace` is what the runner returns after simulating an
algorithm.  It records, for every node and every edge, the round at which the
corresponding output was committed, and derives the paper's *completion
times*:

* a node ``v`` has completed its computation as soon as ``v`` **and all its
  incident edges** have committed their outputs;
* an edge ``e = {u, v}`` has completed as soon as ``e`` **and both its
  endpoints** have committed their outputs.

For problems that only label nodes (MIS, colouring, ruling sets) the edge
side of the condition is vacuous, so a node completes when its own label is
fixed and an edge completes when both endpoint labels are fixed — exactly the
reading spelled out in Section 2 of the paper.  Symmetrically for problems
that only label edges (matching, orientations).

Storage.  A trace has one storage: commit rounds and outputs in **flat rows
indexed by vertex and edge slot** (the :attr:`Network.edges` order), a
read-only int64 numpy row of commit rounds with ``-1`` marking "never
committed" and an aligned value row.  The array engine hands over numpy
rows — a single run's state rows as they are, a batched run one contiguous
copy of each trial's rows, so a retained trace never pins its whole batch —
with no Python object per slot; the coroutine runner hands over a value
tuple.  Both are GC-inert (numpy arrays and tuples of atomic values are not
tracked by the cyclic collector), so the thousands of traces a sweep or a
batched run holds never lengthen a gen-2 collection.  Everything else is
derived from the rows on first use and cached: the dict views
(``node_outputs``, ``node_commit_round``, ``edge_outputs``,
``edge_commit_round``), read-only mappings of Python scalars, and the
completion-time arrays of Definition 1.  Validation feeds the rows and
``rounds >= 0`` commit masks straight to the problem's kernel.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import ValidationFailed
from repro.core.problems import ProblemSpec, ValidationResult

__all__ = ["ExecutionTrace"]

Edge = Tuple[int, int]
#: A value row: the engine's numpy row, or the runner's tuple of Python values.
Values = Union[np.ndarray, Tuple[Any, ...]]


def _round_row(rounds: Any) -> np.ndarray:
    """A read-only int64 view of a commit-round buffer (``array('q')`` or numpy)."""
    row = np.asarray(rounds, dtype=np.int64).view()
    row.setflags(write=False)
    return row


def _value_row(values: Optional[Any], count: int) -> Values:
    """The stored value row: numpy rows as read-only views, sequences as tuples.

    ``None`` (a side the algorithm never labels) reads as ``False`` in every
    slot, through a zero-byte broadcast view.
    """
    if values is None:
        return np.broadcast_to(np.False_, (count,))
    if isinstance(values, np.ndarray):
        row = values.view()
        row.setflags(write=False)
        return row
    # Tuples, not lists: CPython's GC permanently untracks a tuple of atomic
    # values the first time a collection sees it, whereas a list is
    # re-scanned by every gen-2 collection for as long as it lives.
    return tuple(values)


def _same_network(a: Any, b: Any) -> bool:
    """Whether two networks have equal vertices, edges and identifiers.

    :class:`~repro.local.network.Network` compares by identity, so a trace
    and its pickled copy, or traces on two builds of one graph, would
    never compare equal.
    """
    if a is b:
        return True
    return (
        a.n == b.n
        and a.m == b.m
        and all(map(np.array_equal, a.edge_endpoints(), b.edge_endpoints()))
        and np.array_equal(a.identifier_array, b.identifier_array)
    )


def _slot_values(values: Values, slots: np.ndarray) -> List[Any]:
    """The Python values of ``slots`` (numpy scalars converted)."""
    if isinstance(values, np.ndarray):
        return values[slots].tolist()
    return [values[i] for i in slots.tolist()]


class ExecutionTrace:
    """Result of one execution of a distributed algorithm.

    Built from flat per-slot rows: ``node_values``/``node_rounds`` are
    vertex-indexed (length ``n``), ``edge_values``/``edge_rounds`` follow
    :attr:`Network.edges` order (length ``m``); round ``-1`` marks a slot
    that never committed and the value of such a slot is ignored.  Rounds
    are int64 numpy arrays or ``array('q')`` buffers, adopted without
    copying; values are numpy arrays (adopted as read-only views), sequences
    (stored as a tuple) or ``None`` for a side that is never labelled.

    Attributes:
        network: the :class:`repro.local.network.Network` the algorithm ran on.
        problem: the problem being solved (drives completion-time semantics).
        node_outputs: committed node outputs, vertex → value (read-only view).
        node_commit_round: vertex → round of the node-output commit
            (read-only view).
        edge_outputs: committed edge outputs, canonical edge → value
            (read-only view).
        edge_commit_round: canonical edge → round of the edge-output commit
            (read-only view).
        rounds: number of communication rounds executed.
        completed: whether all required outputs were committed before the
            round limit.
        total_messages: number of point-to-point messages sent.
        max_message_bits: rough upper bound on the largest message size in
            bits (only tracked when the runner is asked to).
        algorithm_name: name of the executed algorithm (for reports).
        fault_events: injected fault events, in execution order — tuples
            ``("crash", round, vertex)``, ``("drop", round, source, target)``
            or ``("delay", round, source, target)`` (empty for fault-free
            runs).  Derived purely from the :class:`~repro.local.faults.
            FaultSchedule`, so both engines record identical lists for the
            rounds they execute.
        crashed: sorted vertices that crashed during the execution.  When
            non-empty, :meth:`validate` scores the outputs on the surviving
            subgraph (:meth:`ProblemSpec.validate_surviving`).
        recovery: per-round :class:`~repro.core.metrics.RecoveryTimeline`
            of a self-stabilising execution (``None`` otherwise).
            :func:`repro.core.metrics.measure` aggregates it into
            time-to-restabilise statistics.  Excluded from trace equality,
            like the other lazily derived extras.
    """

    def __init__(
        self,
        network: Any,
        problem: ProblemSpec,
        node_values: Optional[Union[np.ndarray, Sequence[Any]]],
        node_rounds: Any,
        edge_values: Optional[Union[np.ndarray, Sequence[Any]]],
        edge_rounds: Any,
        *,
        rounds: int = 0,
        completed: bool = True,
        total_messages: int = 0,
        max_message_bits: Optional[int] = None,
        algorithm_name: str = "",
        fault_events: Tuple = (),
        crashed: Tuple[int, ...] = (),
        recovery: Optional[Any] = None,
    ) -> None:
        self.network = network
        self.problem = problem
        self.rounds = rounds
        self.completed = completed
        self.total_messages = total_messages
        self.max_message_bits = max_message_bits
        self.algorithm_name = algorithm_name
        self.fault_events = tuple(fault_events)
        self.crashed = tuple(crashed)
        self.recovery = recovery
        self._node_commits = _round_row(node_rounds)
        self._node_values = _value_row(node_values, len(self._node_commits))
        self._edge_commits = _round_row(edge_rounds)
        self._edge_values = _value_row(edge_values, len(self._edge_commits))
        # Derived from the rows on first use.  The metrics layer asks for the
        # same completion times several times per trace (averaged, expected,
        # worst-case).  The views are cached as plain dicts, not as
        # MappingProxyType, so that traces stay picklable.
        self._views: Dict[str, Dict[Any, Any]] = {}
        self._node_times: Optional[np.ndarray] = None
        self._edge_times: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Dict views (read-only, built from the rows on first use)
    # ------------------------------------------------------------------ #

    def _view(
        self,
        name: str,
        rounds: np.ndarray,
        values: Values,
        keys: Callable[[np.ndarray], List[Any]],
    ) -> Mapping[Any, Any]:
        """The cached view ``name``: ``keys`` of the committed slots → ``values``."""
        view = self._views.get(name)
        if view is None:
            slots = np.flatnonzero(rounds >= 0)
            view = self._views[name] = dict(zip(keys(slots), _slot_values(values, slots)))
        return MappingProxyType(view)

    @property
    def node_outputs(self) -> Mapping[int, Any]:
        return self._view("node_outputs", self._node_commits, self._node_values, np.ndarray.tolist)

    @property
    def node_commit_round(self) -> Mapping[int, int]:
        return self._view(
            "node_commit_round", self._node_commits, self._node_commits, np.ndarray.tolist
        )

    @property
    def edge_outputs(self) -> Mapping[Edge, Any]:
        return self._view("edge_outputs", self._edge_commits, self._edge_values, self._edge_keys)

    @property
    def edge_commit_round(self) -> Mapping[Edge, int]:
        return self._view(
            "edge_commit_round", self._edge_commits, self._edge_commits, self._edge_keys
        )

    def _edge_keys(self, slots: np.ndarray) -> List[Edge]:
        """Canonical ``(u, v)`` tuples of the given edge slots."""
        us, vs = self.network.edge_endpoints()
        return list(zip(us[slots].tolist(), vs[slots].tolist()))

    # ------------------------------------------------------------------ #
    # Flat rows
    # ------------------------------------------------------------------ #

    def node_commit_rounds(self) -> np.ndarray:
        """Per-vertex commit rounds, a read-only int64 array (``-1`` = uncommitted)."""
        return self._node_commits

    def edge_commit_rounds(self) -> np.ndarray:
        """Per-edge-slot commit rounds (``network.edges`` order, ``-1`` = uncommitted)."""
        return self._edge_commits

    # ------------------------------------------------------------------ #
    # Completion times (Definition 1 semantics)
    # ------------------------------------------------------------------ #

    def node_completion_time(self, v: int) -> int:
        """Round at which node ``v`` completed its computation."""
        return int(self.node_completion_array()[self.network._vertex(v)])

    def edge_completion_time(self, u: int, v: int) -> int:
        """Round at which edge ``{u, v}`` completed; ``KeyError`` if it is no edge."""
        return int(self.edge_completion_array()[self.network.edge_index(u, v)])

    def node_completion_times(self) -> List[int]:
        """Completion times of all nodes, indexed by vertex."""
        return self.node_completion_array().tolist()

    def edge_completion_times(self) -> List[int]:
        """Completion times of all edges, in the network's edge order."""
        return self.edge_completion_array().tolist()

    def _charged(self, rounds: np.ndarray) -> np.ndarray:
        """``rounds`` with uncommitted slots charged the full execution length.

        Only incomplete executions (round limit hit) have such slots.
        """
        return np.where(rounds >= 0, rounds, self.rounds)

    def node_completion_array(self) -> np.ndarray:
        """Completion times of all nodes, indexed by vertex: an int64 array.

        Computed over the flat rows with no per-node Python loop — a node's
        own commit maxed with its incident edges' commits (each only when the
        problem labels that kind) — and cached read-only.
        """
        if self._node_times is None:
            if self.problem.labels_nodes:
                times = self._charged(self._node_commits)
            else:
                times = np.zeros(self.network.n, dtype=np.int64)
            if self.problem.labels_edges:
                edge_rounds = self._charged(self._edge_commits)
                us, vs = self.network.edge_endpoints()
                np.maximum.at(times, us, edge_rounds)
                np.maximum.at(times, vs, edge_rounds)
            times.setflags(write=False)
            self._node_times = times
        return self._node_times

    def edge_completion_array(self) -> np.ndarray:
        """Completion times of all edges, in edge order: an int64 array (cached)."""
        if self._edge_times is None:
            if self.problem.labels_edges:
                times = self._charged(self._edge_commits)
            else:
                times = np.zeros(self.network.m, dtype=np.int64)
            if self.problem.labels_nodes:
                node_rounds = self._charged(self._node_commits)
                us, vs = self.network.edge_endpoints()
                np.maximum(times, node_rounds[us], out=times)
                np.maximum(times, node_rounds[vs], out=times)
            times.setflags(write=False)
            self._edge_times = times
        return self._edge_times

    def worst_case_rounds(self) -> int:
        """Maximum completion time over all nodes and edges."""
        return int(
            max(
                np.max(self.node_completion_array(), initial=0),
                np.max(self.edge_completion_array(), initial=0),
            )
        )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> ValidationResult:
        """Check the committed outputs against the problem specification.

        The stored value rows go to the problem's kernel as they are, with
        ``rounds >= 0`` as their commit masks (:meth:`ProblemSpec.
        validate_network`); the topology is never exported to networkx.
        Executions with crash-stop faults (:attr:`crashed` non-empty) are
        scored on the surviving subgraph (:meth:`ProblemSpec.
        validate_surviving`).
        """
        node_committed = self._node_commits >= 0
        edge_committed = self._edge_commits >= 0
        if self.crashed:
            return self.problem.validate_surviving(
                self.network,
                self._node_values,
                self._edge_values,
                self.crashed,
                node_committed=node_committed,
                edge_committed=edge_committed,
            )
        return self.problem.validate_network(
            self.network,
            self._node_values,
            self._edge_values,
            node_committed=node_committed,
            edge_committed=edge_committed,
        )

    def require_valid(self) -> "ExecutionTrace":
        """Raise :class:`ValidationFailed` unless the outputs are valid.

        ``ValidationFailed`` subclasses ``AssertionError``, preserving the
        historical contract of this method.
        """
        result = self.validate()
        if not result:
            raise ValidationFailed(
                f"{self.algorithm_name or 'algorithm'} produced an invalid "
                f"{self.problem.name} solution: {result.reason}"
            )
        return self

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #

    def selected_nodes(self) -> List[int]:
        """Vertices whose committed output is truthy (e.g. MIS members)."""
        slots = np.flatnonzero(self._node_commits >= 0)
        values = _slot_values(self._node_values, slots)
        return [v for v, value in zip(slots.tolist(), values) if value]

    def selected_edges(self) -> List[Edge]:
        """Edges whose committed output is truthy (e.g. matching edges)."""
        slots = np.flatnonzero(self._edge_commits >= 0)
        values = _slot_values(self._edge_values, slots)
        chosen = [i for i, value in zip(slots.tolist(), values) if value]
        return self._edge_keys(np.asarray(chosen, dtype=np.int64))

    def summary(self) -> Dict[str, Any]:
        """Small dictionary of headline numbers for quick inspection."""
        node_times = self.node_completion_times()
        edge_times = self.edge_completion_times()
        return {
            "algorithm": self.algorithm_name,
            "problem": self.problem.name,
            "n": self.network.n,
            "m": self.network.m,
            "rounds": self.rounds,
            "completed": self.completed,
            "node_averaged": sum(node_times) / len(node_times) if node_times else 0.0,
            "edge_averaged": sum(edge_times) / len(edge_times) if edge_times else 0.0,
            "worst_case": self.worst_case_rounds(),
            "total_messages": self.total_messages,
        }

    def __eq__(self, other: object) -> bool:
        # Field-based equality over the same fields the former dataclass
        # compared (the lazy completion-time caches were compare=False); the
        # views ignore the values of uncommitted slots, and the networks
        # compare by structure.
        if not isinstance(other, ExecutionTrace):
            return NotImplemented
        return (
            _same_network(self.network, other.network)
            and self.problem == other.problem
            and self.rounds == other.rounds
            and self.completed == other.completed
            and self.total_messages == other.total_messages
            and self.max_message_bits == other.max_message_bits
            and self.algorithm_name == other.algorithm_name
            and self.node_outputs == other.node_outputs
            and self.node_commit_round == other.node_commit_round
            and self.edge_outputs == other.edge_outputs
            and self.edge_commit_round == other.edge_commit_round
        )

    __hash__ = None  # mutable value type, like the former eq=True dataclass

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ExecutionTrace(algorithm={self.algorithm_name!r}, "
            f"problem={self.problem.name!r}, n={self.network.n}, "
            f"m={self.network.m}, rounds={self.rounds}, completed={self.completed})"
        )
