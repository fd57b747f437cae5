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

Storage.  Commit rounds and outputs live in **flat arrays indexed by vertex
and edge slot** (the :attr:`Network.edges` order): a read-only int64 numpy
row of commit rounds with ``-1`` marking "never committed", and an aligned
value row.  The array engine hands over numpy rows — a single run's state
rows as they are, a batched run one contiguous copy of each trial's rows, so
a retained trace never pins its whole batch — with no Python object per
slot; the coroutine runner hands over a value tuple.  Both are GC-inert (numpy arrays and tuples of atomic values
are not tracked by the cyclic collector), so the thousands of traces a sweep
or a batched run holds never lengthen a gen-2 collection.  The historical
dict views (``node_outputs``, ``node_commit_round``, ``edge_outputs``,
``edge_commit_round``) are lazy properties returning Python scalars, and
remain assignable so that hand-built traces (tests, the Definition 1
oracle's random traces) can keep constructing dict-first.  Whichever
representation a trace was built from is canonical; the other is derived on
first access and cached.  Traces are treated as immutable once handed out,
so the two never diverge.  Validation feeds the rows and ``rounds >= 0``
commit masks straight to the problem's kernel.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import ValidationFailed
from repro.core.problems import ProblemSpec, ValidationResult, _edge_mapping_slots

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


def _slot_values(values: Values, slots: np.ndarray) -> List[Any]:
    """The Python values of ``slots`` (numpy scalars converted)."""
    if isinstance(values, np.ndarray):
        return values[slots].tolist()
    return [values[i] for i in slots.tolist()]


class ExecutionTrace:
    """Result of one execution of a distributed algorithm.

    Attributes:
        network: the :class:`repro.local.network.Network` the algorithm ran on.
        problem: the problem being solved (drives completion-time semantics).
        node_outputs: committed node outputs, vertex → value (lazy dict view).
        node_commit_round: vertex → round of the node-output commit (lazy view).
        edge_outputs: committed edge outputs, canonical edge → value (lazy view).
        edge_commit_round: canonical edge → round of the edge-output commit.
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
        node_outputs: Optional[Dict[int, Any]] = None,
        node_commit_round: Optional[Dict[int, int]] = None,
        edge_outputs: Optional[Dict[Edge, Any]] = None,
        edge_commit_round: Optional[Dict[Edge, int]] = None,
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
        # Dict-canonical storage (legacy construction path).  ``None`` means
        # the corresponding flat arrays below are canonical instead.
        self._node_outputs: Optional[Dict[int, Any]] = (
            node_outputs if node_outputs is not None else {}
        )
        self._node_commit_round: Optional[Dict[int, int]] = (
            node_commit_round if node_commit_round is not None else {}
        )
        self._edge_outputs: Optional[Dict[Edge, Any]] = (
            edge_outputs if edge_outputs is not None else {}
        )
        self._edge_commit_round: Optional[Dict[Edge, int]] = (
            edge_commit_round if edge_commit_round is not None else {}
        )
        # Flat per-slot storage: value rows aligned with read-only int64
        # round rows (-1 = never committed).  Canonical when built via
        # `from_arrays` (then the value row is never None), otherwise the
        # round rows are derived lazily from the dicts.
        self._node_values: Optional[Values] = None
        self._node_rounds: Optional[np.ndarray] = None
        self._edge_values: Optional[Values] = None
        self._edge_rounds: Optional[np.ndarray] = None
        # Lazily computed completion-time vectors.  A trace is immutable once
        # the runner hands it out, and the metrics layer asks for the same
        # vectors several times per trace (averaged, expected, worst-case).
        # The int64 numpy arrays are canonical; the list views derive from
        # them for API compatibility.
        self._node_times: Optional[List[int]] = None
        self._edge_times: Optional[List[int]] = None
        self._node_times_np: Optional[np.ndarray] = None
        self._edge_times_np: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(
        cls,
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
    ) -> "ExecutionTrace":
        """Build a trace directly from flat per-slot arrays (the hot path).

        ``node_values``/``node_rounds`` are vertex-indexed (length ``n``),
        ``edge_values``/``edge_rounds`` follow :attr:`Network.edges` order
        (length ``m``); round ``-1`` marks a slot that never committed and
        the value of such a slot is ignored.  Rounds are int64 numpy arrays
        or ``array('q')`` buffers, adopted without copying; values are numpy
        arrays (adopted as read-only views), sequences (stored as a tuple)
        or ``None`` for a side that is never labelled.
        """
        trace = cls(
            network,
            problem,
            rounds=rounds,
            completed=completed,
            total_messages=total_messages,
            max_message_bits=max_message_bits,
            algorithm_name=algorithm_name,
            fault_events=fault_events,
            crashed=crashed,
            recovery=recovery,
        )
        trace._node_outputs = None
        trace._node_commit_round = None
        trace._edge_outputs = None
        trace._edge_commit_round = None
        trace._node_rounds = _round_row(node_rounds)
        trace._node_values = _value_row(node_values, len(trace._node_rounds))
        trace._edge_rounds = _round_row(edge_rounds)
        trace._edge_values = _value_row(edge_values, len(trace._edge_rounds))
        return trace

    # ------------------------------------------------------------------ #
    # Dict views (lazy; canonical when assigned)
    # ------------------------------------------------------------------ #

    @property
    def node_outputs(self) -> Dict[int, Any]:
        if self._node_outputs is None:
            slots = np.flatnonzero(self._node_rounds >= 0)
            self._node_outputs = dict(
                zip(slots.tolist(), _slot_values(self._node_values, slots))
            )
        return self._node_outputs

    @node_outputs.setter
    def node_outputs(self, mapping: Dict[int, Any]) -> None:
        # Assignment flips the node group back to dict-canonical; materialise
        # the sibling dict view first so the arrays can be dropped together
        # (a half-array, half-dict state would corrupt later derivations).
        if self._node_commit_round is None:
            _ = self.node_commit_round
        self._node_outputs = mapping
        self._node_values = None
        self._node_rounds = None
        self._invalidate_times()

    @property
    def node_commit_round(self) -> Dict[int, int]:
        if self._node_commit_round is None:
            rounds_arr = self._node_rounds
            slots = np.flatnonzero(rounds_arr >= 0)
            self._node_commit_round = dict(zip(slots.tolist(), rounds_arr[slots].tolist()))
        return self._node_commit_round

    @node_commit_round.setter
    def node_commit_round(self, mapping: Dict[int, int]) -> None:
        if self._node_outputs is None:
            _ = self.node_outputs
        self._node_commit_round = mapping
        self._node_rounds = None
        self._node_values = None
        self._invalidate_times()

    @property
    def edge_outputs(self) -> Dict[Edge, Any]:
        if self._edge_outputs is None:
            slots = np.flatnonzero(self._edge_rounds >= 0)
            self._edge_outputs = dict(
                zip(self._edge_keys(slots), _slot_values(self._edge_values, slots))
            )
        return self._edge_outputs

    @edge_outputs.setter
    def edge_outputs(self, mapping: Dict[Edge, Any]) -> None:
        if self._edge_commit_round is None:
            _ = self.edge_commit_round
        self._edge_outputs = mapping
        self._edge_values = None
        self._edge_rounds = None
        self._invalidate_times()

    @property
    def edge_commit_round(self) -> Dict[Edge, int]:
        if self._edge_commit_round is None:
            rounds_arr = self._edge_rounds
            slots = np.flatnonzero(rounds_arr >= 0)
            self._edge_commit_round = dict(
                zip(self._edge_keys(slots), rounds_arr[slots].tolist())
            )
        return self._edge_commit_round

    @edge_commit_round.setter
    def edge_commit_round(self, mapping: Dict[Edge, int]) -> None:
        if self._edge_outputs is None:
            _ = self.edge_outputs
        self._edge_commit_round = mapping
        self._edge_rounds = None
        self._edge_values = None
        self._invalidate_times()

    def _edge_keys(self, slots: np.ndarray) -> List[Edge]:
        """Canonical ``(u, v)`` tuples of the given edge slots."""
        us, vs = self.network.edge_endpoints()
        return list(zip(us[slots].tolist(), vs[slots].tolist()))

    def _invalidate_times(self) -> None:
        self._node_times = None
        self._edge_times = None
        self._node_times_np = None
        self._edge_times_np = None

    # ------------------------------------------------------------------ #
    # Flat array views (lazy; canonical when built via `from_arrays`)
    # ------------------------------------------------------------------ #

    def node_commit_rounds(self) -> np.ndarray:
        """Per-vertex commit rounds, a read-only int64 array (``-1`` = uncommitted)."""
        if self._node_rounds is None:
            arr = np.full(self.network.n, -1, dtype=np.int64)
            mapping = self._node_commit_round
            if mapping:
                count = len(mapping)
                arr[np.fromiter(mapping.keys(), np.int64, count)] = np.fromiter(
                    mapping.values(), np.int64, count
                )
            self._node_rounds = _round_row(arr)
        return self._node_rounds

    def edge_commit_rounds(self) -> np.ndarray:
        """Per-edge-slot commit rounds (``network.edges`` order, ``-1`` = uncommitted)."""
        if self._edge_rounds is None:
            arr = np.full(self.network.m, -1, dtype=np.int64)
            mapping = self._edge_commit_round
            if mapping:
                # Keys that are not canonical edges of the network are ignored.
                slots, rounds, _ = _edge_mapping_slots(self.network, mapping)
                arr[slots] = rounds
            self._edge_rounds = _round_row(arr)
        return self._edge_rounds

    # ------------------------------------------------------------------ #
    # Completion times (Definition 1 semantics)
    # ------------------------------------------------------------------ #

    def node_completion_time(self, v: int) -> int:
        """Round at which node ``v`` completed its computation."""
        times: List[int] = []
        if self.problem.labels_nodes:
            times.append(self._node_round(v))
        if self.problem.labels_edges:
            edge_rounds = self.edge_commit_rounds()
            rounds = self.rounds
            for i in self.network.incident_edge_indices(v):
                r = int(edge_rounds[i])
                times.append(r if r >= 0 else rounds)
        if not times:
            return 0
        return max(times)

    def edge_completion_time(self, u: int, v: int) -> int:
        """Round at which edge ``{u, v}`` completed its computation."""
        times: List[int] = []
        if self.problem.labels_edges:
            edge_rounds = self.edge_commit_rounds()
            r = int(edge_rounds[self.network.edge_index(u, v)])
            times.append(r if r >= 0 else self.rounds)
        if self.problem.labels_nodes:
            times.append(self._node_round(u))
            times.append(self._node_round(v))
        if not times:
            return 0
        return max(times)

    def node_completion_times(self) -> List[int]:
        """Completion times of all nodes, indexed by vertex (cached)."""
        if self._node_times is None:
            self._node_times = self.node_completion_array().tolist()
        return self._node_times

    def edge_completion_times(self) -> List[int]:
        """Completion times of all edges, in the network's edge order (cached)."""
        if self._edge_times is None:
            self._edge_times = self.edge_completion_array().tolist()
        return self._edge_times

    def _node_rounds_np(self) -> np.ndarray:
        """Per-vertex commit rounds (uncommitted charged the full length)."""
        rounds = self.node_commit_rounds()
        return np.where(rounds >= 0, rounds, self.rounds)

    def _edge_rounds_np(self) -> np.ndarray:
        """Per-edge commit rounds in network edge order."""
        rounds = self.edge_commit_rounds()
        return np.where(rounds >= 0, rounds, self.rounds)

    def node_completion_array(self) -> np.ndarray:
        """Vectorised :meth:`node_completion_times`: an int64 numpy array.

        Computed entirely over the trace's flat per-slot round arrays — no
        per-node Python loop — and cached (the array is marked read-only so
        the list view and repeated metric reductions stay consistent).
        """
        if self._node_times_np is None:
            labels_nodes = self.problem.labels_nodes
            labels_edges = self.problem.labels_edges
            n = self.network.n
            if labels_nodes:
                acc = self._node_rounds_np()
            else:
                acc = np.zeros(n, dtype=np.int64)
            if labels_edges:
                edge_times = self._edge_rounds_np()
                us, vs = self.network.edge_endpoints()
                np.maximum.at(acc, us, edge_times)
                np.maximum.at(acc, vs, edge_times)
            acc.setflags(write=False)
            self._node_times_np = acc
        return self._node_times_np

    def edge_completion_array(self) -> np.ndarray:
        """Vectorised :meth:`edge_completion_times`: an int64 numpy array."""
        if self._edge_times_np is None:
            labels_nodes = self.problem.labels_nodes
            labels_edges = self.problem.labels_edges
            m = self.network.m
            if labels_edges:
                acc = self._edge_rounds_np()
            else:
                acc = np.zeros(m, dtype=np.int64)
            if labels_nodes:
                node_rounds = self._node_rounds_np()
                us, vs = self.network.edge_endpoints()
                np.maximum(acc, node_rounds[us], out=acc)
                np.maximum(acc, node_rounds[vs], out=acc)
            acc.setflags(write=False)
            self._edge_times_np = acc
        return self._edge_times_np

    def worst_case_rounds(self) -> int:
        """Maximum completion time over all nodes and edges."""
        return int(
            max(
                np.max(self.node_completion_array(), initial=0),
                np.max(self.edge_completion_array(), initial=0),
            )
        )

    def _node_round(self, v: int) -> int:
        r = int(self.node_commit_rounds()[v])
        if r < 0:
            # Uncommitted entities are charged the full execution length; this
            # only happens for incomplete executions (round-limit hit).
            return self.rounds
        return r

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
        validate_surviving`).  Dict-canonical traces pass their mappings.
        """
        if self._node_values is not None:
            node_outputs, node_committed = self._node_values, self._node_rounds >= 0
        else:
            node_outputs, node_committed = self._node_outputs, None
        if self._edge_values is not None:
            edge_outputs, edge_committed = self._edge_values, self._edge_rounds >= 0
        else:
            edge_outputs, edge_committed = self._edge_outputs, None
        if self.crashed:
            return self.problem.validate_surviving(
                self.network,
                node_outputs,
                edge_outputs,
                self.crashed,
                node_committed=node_committed,
                edge_committed=edge_committed,
            )
        return self.problem.validate_network(
            self.network,
            node_outputs,
            edge_outputs,
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
        if self._node_values is not None:
            slots = np.flatnonzero(self._node_rounds >= 0)
            values = _slot_values(self._node_values, slots)
            return [v for v, value in zip(slots.tolist(), values) if value]
        return [v for v, value in self._node_outputs.items() if value]

    def selected_edges(self) -> List[Edge]:
        """Edges whose committed output is truthy (e.g. matching edges)."""
        if self._edge_values is not None:
            slots = np.flatnonzero(self._edge_rounds >= 0)
            values = _slot_values(self._edge_values, slots)
            chosen = [i for i, value in zip(slots.tolist(), values) if value]
            return self._edge_keys(np.asarray(chosen, dtype=np.int64))
        return [e for e, value in self._edge_outputs.items() if value]

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
        # compared (the lazy completion-time caches were compare=False), so
        # dict-built and array-built traces of the same execution are equal.
        if not isinstance(other, ExecutionTrace):
            return NotImplemented
        return (
            self.network == other.network
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
