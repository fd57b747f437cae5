"""Synchronous round-by-round execution of distributed algorithms.

The :class:`Runner` implements the LOCAL model's synchronous schedule: in
every round every (still participating) node first produces its outgoing
messages based on its state at the end of the previous round, then all
messages are delivered simultaneously, and finally every node processes its
inbox.  Outputs committed while processing round ``t`` are stamped with round
``t``; outputs committed in ``init`` or while *producing* round-``t`` messages
are stamped with ``t - 1`` (they are a function of the node's ``(t-1)``-hop
neighbourhood only).  These stamps are exactly the individual complexities
``T_v`` / ``T_e`` of the paper, from which :mod:`repro.core.metrics` computes
node- and edge-averaged complexities.

Performance notes.  The hot loop is organised around an **active set**: only
nodes that have not halted are visited, so the per-round cost is proportional
to the number of still-running nodes and the messages they send, not to
``n + m``.  Inboxes are allocated once per node and reused across rounds (the
runner clears them after delivery — algorithms must copy an inbox if they
want to keep it beyond the ``receive`` call, which none of the provided
algorithms do).  Completion is tracked *incrementally*: nodes notify a
:class:`_CompletionTracker` on their first commit / halt, so the
"is the execution complete?" check is O(1) per round instead of a full scan
of every node and edge.

Faults.  Under a :class:`~repro.local.faults.FaultSchedule` the round loop
asks the schedule once per round, ``round_faults(round, network, view)``,
passing the view it got for the round before, the same query the array
engine makes.  The view's ``newly_crashed`` land at the round's start
and its ``events`` go to the trace, so both engines record the same
events.  The runner applies drops and delays from those events too, after
its one send loop: each drop or delay event takes the message its source
sent along its direction back out of the target's inbox, and a delay
queues it for the next round.  The events still describe the adversary,
not observed loss: an event whose source sent nothing changes nothing.
"""

from __future__ import annotations

import _random
import gc
import random
from array import array
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import RoundLimitExceeded
from repro.core.metrics import RecoveryRecorder, RecoveryTimeline
from repro.core.problems import ProblemSpec
from repro.core.trace import ExecutionTrace
from repro.local.algorithm import Broadcast, NodeAlgorithm
from repro.local.coroutine import CoroutineAlgorithm
from repro.local.faults import FaultEvent, FaultSchedule, RoundFaults
from repro.local.network import Network
from repro.local.node import CommitError, NodeRuntime

# RoundLimitExceeded moved to repro.core.errors (the structured failure
# taxonomy); re-exported here because it was born in this module and callers
# import it from both places.
__all__ = ["Runner", "RoundLimitExceeded", "estimate_message_bits"]


_BASE_SEED = _random.Random.seed

#: Inbox placeholder of a delayed message during the sends of the round it
#: arrives in; replaced by its payload before the inboxes are processed.
_LATE = object()


def _reseed(rng: random.Random, key: int) -> None:
    """Re-seed ``rng`` to the exact state of a fresh ``random.Random(key)``.

    ``random.Random.seed`` with an int delegates straight to the C-level
    ``_random.Random.seed`` and resets ``gauss_next``; calling the C method
    directly skips the Python wrapper on a per-node hot path.
    """
    _BASE_SEED(rng, key)
    rng.gauss_next = None


def _make_node_rng(key: int) -> random.Random:
    """A ``random.Random(key)`` built without the Python seeding wrapper."""
    rng = random.Random.__new__(random.Random)
    _BASE_SEED(rng, key)
    rng.gauss_next = None
    return rng


def estimate_message_bits(payload: Any) -> int:
    """Rough size estimate (in bits) of a message payload.

    Used to sanity-check CONGEST claims: messages should stay within
    ``O(log n)`` bits.  The estimate is intentionally simple — integers count
    their bit length, containers sum their elements plus a small per-element
    overhead, strings count eight bits per character.
    """
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length() + 1)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8 * len(payload)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(estimate_message_bits(item) + 2 for item in payload) + 2
    if isinstance(payload, dict):
        return sum(
            estimate_message_bits(k) + estimate_message_bits(v) + 4 for k, v in payload.items()
        ) + 2
    # Fallback for exotic payloads (only legitimate in the LOCAL model).
    return 8 * len(repr(payload))


class _CompletionTracker:
    """Incremental completion bookkeeping for one execution.

    Nodes call :meth:`node_committed` / :meth:`edge_committed` /
    :meth:`node_halted` on the corresponding first-time events; the tracker
    keeps counters so that :meth:`is_complete` answers in O(1).  The
    semantics match the former full scan exactly:

    * node-labelling problems are complete when every node committed,
    * edge-labelling problems are complete when every edge has at least one
      endpoint that committed it.

    Halt events only tell the runner when to shrink its active set.
    """

    __slots__ = (
        "labels_nodes",
        "labels_edges",
        "_pending_nodes",
        "_pending_edges",
        "_edge_decided",
        "_network",
        "_n",
        "_edge_index",
        "_nodes",
        "alive",
        "halt_events",
        "edge_commit_events",
        "changes",
    )

    def __init__(self, network: Network, problem: ProblemSpec) -> None:
        self.labels_nodes = problem.labels_nodes
        self.labels_edges = problem.labels_edges
        self._pending_nodes = network.n
        self._pending_edges = network.m
        self._edge_decided = bytearray(network.m)
        self._network = network
        self._n = network.n
        self._edge_index = None
        # The runtime nodes of the execution (attached by the runner once
        # they exist), consulted only on the revocation paths of
        # self-stabilising runs, and one alive flag per vertex (cleared by
        # crash-stop faults), which the recovery checks pass on as a mask.
        self._nodes: Optional[Tuple[NodeRuntime, ...]] = None
        self.alive = bytearray(b"\x01") * network.n
        self.halt_events = 0
        self.edge_commit_events = 0
        # Bumped on every commit, revoke and crash event: a self-stabilising
        # run recomputes its recovery entry only when this moved.
        self.changes = 0

    def node_committed(self, vertex: int) -> None:
        self._pending_nodes -= 1
        self.changes += 1

    def edge_committed(self, vertex: int, neighbor: int) -> None:
        self.edge_commit_events += 1
        self.changes += 1
        # Commits towards vertices outside 0..n-1 are ignored like any other
        # non-neighbour commit — and must never reach the packed lookup,
        # where an out-of-range endpoint would alias another row's key.
        if not 0 <= neighbor < self._n:
            return
        edge_index = self._edge_index
        if edge_index is None:
            # Packed-key int lookup (u * n + v for canonical u < v) built
            # from the flat endpoint arrays: no tuple per edge, and no
            # materialisation of the lazy `edges` tuple view either.
            edge_index = self._edge_index = self._network._packed_edge_index()
        key = (
            vertex * self._n + neighbor
            if vertex < neighbor
            else neighbor * self._n + vertex
        )
        index = edge_index.get(key)
        # Commits towards non-neighbours are ignored, as the former edge scan
        # (which only ever looked at real edges) ignored them.
        if index is not None and not self._edge_decided[index]:
            self._edge_decided[index] = 1
            self._pending_edges -= 1

    def node_halted(self, vertex: int) -> None:
        self.halt_events += 1

    def node_revoked(self, vertex: int) -> None:
        """A node withdrew its committed output: it is pending again."""
        self._pending_nodes += 1
        self.changes += 1

    def edge_revoked(self, vertex: int, neighbor: int) -> None:
        """``vertex`` withdrew its commit for the edge towards ``neighbor``.

        The edge only becomes pending again when no other commitment keeps
        it decided: a crashed endpoint keeps it excused (but a dead
        counterpart's stale record is expunged so the revocation is not
        resurrected at trace collection), and a live counterpart's own
        commit keeps it decided.
        """
        self.changes += 1
        if not 0 <= neighbor < self._n:
            return
        edge_index = self._edge_index
        if edge_index is None:
            edge_index = self._edge_index = self._network._packed_edge_index()
        key = (
            vertex * self._n + neighbor
            if vertex < neighbor
            else neighbor * self._n + vertex
        )
        index = edge_index.get(key)
        if index is None or not self._edge_decided[index]:
            return
        alive = self.alive
        if not alive[vertex] or not alive[neighbor]:
            if self._nodes is not None and not alive[neighbor]:
                corpse = self._nodes[neighbor]
                corpse._edge_outputs.pop(vertex, None)
                corpse._edge_output_rounds.pop(vertex, None)
            return
        if self._nodes is not None and vertex in self._nodes[neighbor]._edge_outputs:
            return
        self._edge_decided[index] = 0
        self._pending_edges += 1

    def node_crashed(self, vertex: int, committed: bool) -> None:
        """Excuse a crash-stop casualty from the completion requirements.

        A crashed node that never committed can never commit, so it stops
        blocking node-labelling completion; likewise its still-undecided
        incident edges are excused for edge-labelling problems (marking them
        decided here also guards against a double decrement if the surviving
        endpoint commits the edge later).
        """
        self.alive[vertex] = 0
        self.changes += 1
        if self.labels_nodes and not committed:
            self._pending_nodes -= 1
        if self.labels_edges:
            for index in self._network.incident_edge_indices(vertex):
                if not self._edge_decided[index]:
                    self._edge_decided[index] = 1
                    self._pending_edges -= 1

    def is_complete(self) -> bool:
        if self.labels_nodes and self._pending_nodes:
            return False
        if self.labels_edges and self._pending_edges:
            return False
        return True


def _recovery_round_entry(
    tracker: _CompletionTracker,
    nodes: Tuple[NodeRuntime, ...],
    network: Network,
    problem: ProblemSpec,
) -> Tuple[int, bool]:
    """One ``(pending, valid)`` entry of a self-stabilising recovery timeline.

    ``pending`` counts the required outputs still undecided among survivors
    (straight off the tracker's counters); validity is only evaluated on
    survivor-complete configurations, and strictly — on the induced survivor
    subnetwork (:meth:`ProblemSpec.validate_induced`), so commitments of
    crashed nodes never carry an epoch to "recovered".
    """
    pending = 0
    if tracker.labels_nodes:
        pending += tracker._pending_nodes
    if tracker.labels_edges:
        pending += tracker._pending_edges
    if pending > 0:
        return pending, False
    n = network.n
    node_values: List[Any] = [None] * n
    node_committed = bytearray(n)
    for node in nodes:
        if node._output_round is not None:
            node_values[node.vertex] = node._output
            node_committed[node.vertex] = 1
    edge_values: List[Any] = [None] * network.m
    edge_committed = bytearray(network.m)
    packed = network._packed_edge_index()
    for node in nodes:
        outputs = node._edge_outputs
        if not outputs:
            continue
        v = node.vertex
        for u, value in outputs.items():
            if not 0 <= u < n:
                continue
            key = v * n + u if v < u else u * n + v
            i = packed.get(key)
            if i is not None and not edge_committed[i]:
                edge_values[i] = value
                edge_committed[i] = 1
    result = problem.validate_induced(
        network,
        node_values,
        edge_values,
        node_committed=np.frombuffer(node_committed, dtype=bool),
        edge_committed=np.frombuffer(edge_committed, dtype=bool),
        alive=np.frombuffer(tracker.alive, dtype=bool),
    )
    return 0, bool(result)


class Runner:
    """Executes a :class:`NodeAlgorithm` on a :class:`Network`.

    A ``Runner`` instance executes **one run at a time**: repeated runs on
    the same network reuse a pooled set of node runtimes (see
    ``_acquire_nodes``), so sharing one instance across threads, or
    re-entering ``run`` from algorithm callbacks, is not supported — give
    each concurrent execution its own ``Runner`` (networks can be shared
    freely; they are immutable).  The pool also keeps the most recent
    network and its node runtimes alive for the lifetime of the instance.

    The cyclic garbage collector is disabled while the round loop runs
    (restored afterwards, even on error): the loop allocates large numbers
    of short-lived message dicts that the generational collector would
    otherwise repeatedly traverse, and reference counting alone reclaims
    them.

    Args:
        max_rounds: hard cap on the number of communication rounds.  The
            default is generous enough for every algorithm in this library on
            the graph sizes used in tests and benchmarks.
        strict: if ``True``, hitting ``max_rounds`` raises
            :class:`RoundLimitExceeded`; otherwise the trace is returned with
            ``completed=False`` and uncommitted entities charged the full
            execution length.
        track_message_bits: record the size of the largest message, for
            CONGEST sanity checks.
    """

    def __init__(
        self,
        max_rounds: int = 10_000,
        strict: bool = True,
        track_message_bits: bool = False,
    ) -> None:
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        self.max_rounds = max_rounds
        self.strict = strict
        self.track_message_bits = track_message_bits
        # Single-entry NodeRuntime pool: repeated runs on the same network
        # (the common shape of every trial loop) re-seed and reset the
        # existing node objects instead of reallocating n runtimes and n
        # Mersenne generators per run.  `Random.seed(k)` produces exactly the
        # same stream as a fresh `Random(k)`, so traces are unaffected.
        self._pool_network: Optional[Network] = None
        self._pool_nodes: Optional[Tuple[NodeRuntime, ...]] = None

    # ------------------------------------------------------------------ #

    def run(
        self,
        algorithm: NodeAlgorithm,
        network: Network,
        problem: ProblemSpec,
        seed: Optional[int] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> ExecutionTrace:
        """Simulate ``algorithm`` on ``network`` for ``problem``.

        Args:
            algorithm: the per-node algorithm to execute.
            network: the communication graph.
            problem: problem specification; its ``labels_nodes`` /
                ``labels_edges`` flags define when the execution is complete
                and how completion times are derived.
            seed: master seed for all private node randomness.  Two runs with
                the same seed on the same network are identical.
            faults: optional :class:`~repro.local.faults.FaultSchedule` to
                inject crash-stop node faults and seeded message drops /
                delays.  Crashed nodes stop sending and committing; survivors
                keep running, and completion only waits for entities the
                survivors can still decide (uncommitted crashed nodes, and
                edges with a crashed endpoint, are excused).  Fault events
                and crashed vertices are recorded on the trace, and
                validation scores the surviving subgraph.  A schedule with
                no crash and no message fault runs exactly like no schedule;
                otherwise its crash vertices are checked against the network
                before round 1.

        Returns:
            The :class:`ExecutionTrace` of the execution.
        """
        if faults is not None and faults.active:
            faults.check_vertices(network.n)
        else:
            faults = None
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run(algorithm, network, problem, seed, faults)
        finally:
            # A node's tracker holds the node tuple, and an unfinished
            # node's program holds its node: break both cycles so that
            # reference counting frees the run once the runner is dropped.
            # _acquire_nodes sets all three again on reuse.
            for node in self._pool_nodes or ():
                node._observer = None
                node._coro_program = None
                node._coro_outbox = None
            if gc_was_enabled:
                gc.enable()

    def _run(
        self,
        algorithm: NodeAlgorithm,
        network: Network,
        problem: ProblemSpec,
        seed: Optional[int],
        faults: Optional[FaultSchedule],
    ) -> ExecutionTrace:
        """The round loop; ``faults`` is ``None`` for a fault-free run.

        Faults are applied in a fixed order per round: crashes at the round
        start (a node crashing at round ``r`` sends nothing at ``r``), then
        the previous round's delayed messages take their inbox slots as
        placeholders (so a fresh round-``r`` message from the same source
        overwrites one in place), then the one send loop delivers every
        message; its per-message path carries no fault branch.  After it,
        each drop or delay event of the round's view takes its message back
        out of the target's inbox, restoring the source's placeholder if it
        had one and queuing the message for the next round if delayed, and
        the placeholders left receive their payloads.  Node randomness is
        seeded the same way with or without a schedule.

        Self-stabilising runs under a schedule record their recovery
        timeline through a :class:`~repro.core.metrics.RecoveryRecorder`.
        Its entry — an O(n + m) rebuild of the value lists plus a
        validation — is only recomputed in rounds where a crash landed or
        the completion tracker's change counter (bumped by every commit,
        revoke and crash event) moved; other rounds reuse the previous
        entry.
        """
        master_rng = random.Random(seed)
        tracker = _CompletionTracker(network, problem)
        nodes = self._acquire_nodes(network, master_rng, tracker)
        tracker._nodes = nodes

        total_messages = 0
        max_message_bits = 0
        track_bits = self.track_message_bits

        # Round 0: initialisation.
        for node in nodes:
            node._current_round = 0
            algorithm.init(node)

        # Active set: nodes that may still send and receive.  Inboxes exist
        # only for active nodes and are reused (cleared, not reallocated)
        # between rounds.
        active: List[NodeRuntime] = [node for node in nodes if not node._halted]
        inbox_of: List[Optional[Dict[int, Any]]] = [None] * network.n
        for node in active:
            inbox_of[node.vertex] = {}
        seen_halt_events = tracker.halt_events

        fault_events: List[FaultEvent] = []
        # Messages delayed by one round, (target, source) -> payload, in the
        # order of the round's delay events: ascending directed slot, and so
        # (the slots being in lexicographic edge order) ascending source per
        # target, the order the sources sent them in.
        delayed_messages: Dict[Tuple[int, int], Any] = {}
        # Self-stabilising executions under a schedule keep running until
        # the last scheduled crash has landed (an output-complete
        # configuration before that is not stable — the adversary will
        # strike again), notify survivors of crashed neighbours, and record
        # a per-round recovery timeline.
        selfstab = bool(getattr(algorithm, "self_stabilizing", False))
        recorder: Optional[RecoveryRecorder] = None
        view: Optional[RoundFaults] = None
        if faults is not None and selfstab:
            recorder = RecoveryRecorder(faults.crashes)
        final_crash = 0 if recorder is None else recorder.final_crash
        seen_changes = tracker.changes

        def recovery_entry() -> Tuple[int, bool]:
            return _recovery_round_entry(tracker, nodes, network, problem)

        rounds_executed = 0
        completed = tracker.is_complete() and rounds_executed >= final_crash
        send = algorithm.send
        receive = algorithm.receive
        # Coroutine algorithms store their pending outbox in a node slot and
        # their program in another; read/advance them directly instead of
        # paying a method call per node per round (only when the subclass
        # has not overridden the plumbing).
        algorithm_type = type(algorithm)
        direct_outbox = (
            isinstance(algorithm, CoroutineAlgorithm)
            and algorithm_type.send is CoroutineAlgorithm.send
        )
        direct_receive = (
            isinstance(algorithm, CoroutineAlgorithm)
            and algorithm_type.receive is CoroutineAlgorithm.receive
        )

        while not completed and rounds_executed < self.max_rounds:
            current_round = rounds_executed + 1
            newly_crashed: Tuple[int, ...] = ()

            if faults is not None:
                # Crash-stop faults land at the start of the round: the
                # casualty is dead *during* the round (sends nothing,
                # processes nothing).
                view = faults.round_faults(current_round, network, view)
                newly_crashed = view.newly_crashed
                if newly_crashed:
                    for v in newly_crashed:
                        node = nodes[v]
                        if not node._crashed:
                            node._crashed = True
                            inbox_of[v] = None
                            tracker.node_crashed(v, node._output_round is not None)
                    if selfstab:
                        # Survivors adjacent to a fresh casualty learn of the
                        # crash before producing this round's messages; the
                        # hook may revoke outputs and re-enter the protocol.
                        for v in newly_crashed:
                            for u in nodes[v].neighbors:
                                survivor = nodes[u]
                                if not survivor._crashed and not survivor._halted:
                                    algorithm.neighbor_crashed(survivor, v)
                    active = [node for node in active if not node._crashed]

                fault_events.extend(view.events)

                # Last round's delayed messages arrive with this round's
                # batch.  They take their inbox slots before the sends, as
                # placeholders, so that a fresh message from the same source
                # overwrites one in place (inbox order is observable), and
                # dead/halted targets (inbox None) lose them silently.
                late, delayed_messages = delayed_messages, {}
                for target, source in late:
                    box = inbox_of[target]
                    if box is not None:
                        box[source] = _LATE

            # Phase 1: every participating node produces its messages based on
            # its state after `rounds_executed` rounds.
            for node in active:
                outgoing = node._coro_outbox if direct_outbox else send(node)
                if not outgoing:
                    continue
                source = node.vertex
                if type(outgoing) is Broadcast:
                    # Full-neighbourhood broadcast: targets are valid by
                    # construction, no per-message dict or validation
                    # needed.
                    payload = outgoing.payload
                    neighbors = node.neighbors
                    total_messages += len(neighbors)
                    if track_bits:
                        max_message_bits = max(
                            max_message_bits, estimate_message_bits(payload)
                        )
                    for target in neighbors:
                        box = inbox_of[target]
                        if box is not None:
                            box[source] = payload
                    continue
                neighbor_set = node._neighbor_set
                for target, payload in outgoing.items():
                    if target not in neighbor_set:
                        raise ValueError(
                            f"node {source} attempted to send to non-neighbour {target}"
                        )
                    total_messages += 1
                    if track_bits:
                        max_message_bits = max(
                            max_message_bits, estimate_message_bits(payload)
                        )
                    box = inbox_of[target]
                    if box is not None:
                        box[source] = payload

            if faults is not None:
                # Counts were charged at the sender (a dropped message was
                # still sent).  A drop or delay event whose target's inbox
                # holds a fresh message from its source takes that message
                # back out, queuing it when delayed; the source's stale
                # placeholder, if any, comes back in its place.  An event
                # whose source sent nothing finds no fresh message, and a
                # dead or halted target (inbox None) lost the message anyway.
                # The view lists its crash events first, one per casualty.
                for kind, _, source, target in view.events[len(newly_crashed):]:
                    box = inbox_of[target]
                    payload = _LATE if box is None else box.get(source, _LATE)
                    if payload is _LATE:
                        continue
                    if kind == "delay":
                        delayed_messages[target, source] = payload
                    if (target, source) in late:
                        box[source] = _LATE
                    else:
                        del box[source]
                # Placeholders no fresh message replaced carry last round's
                # payloads.
                for (target, source), payload in late.items():
                    box = inbox_of[target]
                    if box is not None and box[source] is _LATE:
                        box[source] = payload

            # Phase 2: simultaneous delivery and processing (survivors only).
            if direct_receive:
                for node in active:
                    if node._halted:
                        continue
                    node._current_round = current_round
                    box = inbox_of[node.vertex]
                    program = node._coro_program
                    if program is not None:
                        try:
                            node._coro_outbox = program.send(box or {})
                        except StopIteration:
                            node._coro_program = None
                            node._coro_outbox = None
                            node.halt()
                    if box:
                        box.clear()
            else:
                for node in active:
                    if node._halted:
                        continue
                    node._current_round = current_round
                    box = inbox_of[node.vertex]
                    receive(node, box)
                    if box:
                        box.clear()

            rounds_executed = current_round

            # Drop nodes that halted this round from the active set (only
            # when someone actually halted — the common case is no change).
            if tracker.halt_events != seen_halt_events:
                seen_halt_events = tracker.halt_events
                still_active: List[NodeRuntime] = []
                for node in active:
                    if node._halted:
                        inbox_of[node.vertex] = None
                    else:
                        still_active.append(node)
                active = still_active

            completed = tracker.is_complete() and rounds_executed >= final_crash
            if recorder is not None:
                changes = tracker.changes
                recorder.record(
                    current_round,
                    bool(newly_crashed),
                    changes != seen_changes,
                    recovery_entry,
                )
                seen_changes = changes

        if not completed and self.strict:
            raise RoundLimitExceeded(
                f"{algorithm.name} did not finish {problem.name} on a graph with "
                f"n={network.n}, m={network.m} within {self.max_rounds} rounds"
            )

        return self._collect_trace(
            algorithm,
            network,
            problem,
            nodes,
            rounds_executed,
            completed,
            total_messages,
            max_message_bits if self.track_message_bits else None,
            any_edge_commits=tracker.edge_commit_events > 0,
            fault_events=tuple(fault_events),
            crashed=() if faults is None else faults.crashed_within(rounds_executed),
            recovery=None if recorder is None else recorder.timeline(),
        )

    # ------------------------------------------------------------------ #

    def _acquire_nodes(
        self,
        network: Network,
        master_rng: random.Random,
        tracker: _CompletionTracker,
    ) -> Tuple[NodeRuntime, ...]:
        if self._pool_network is not network:
            nodes = self._build_nodes(network, master_rng, tracker)
            self._pool_network = network
            self._pool_nodes = nodes
            return nodes
        nodes = self._pool_nodes
        getrandbits = master_rng.getrandbits
        reseed = _reseed
        for node in nodes:
            # Same draw order as _build_nodes, hence identical rng streams.
            reseed(node.rng, getrandbits(64))
            if node.state:
                node.state = {}
            node._halted = False
            node._crashed = False
            node._output = None
            node._output_round = None
            if node._edge_outputs:
                node._edge_outputs = {}
                node._edge_output_rounds = {}
            node._current_round = 0
            node._observer = tracker
            node._coro_program = None
            node._coro_outbox = None
        return nodes

    @staticmethod
    def _build_nodes(
        network: Network,
        master_rng: random.Random,
        observer: Optional[_CompletionTracker] = None,
    ) -> Tuple[NodeRuntime, ...]:
        make_rng = _make_node_rng
        getrandbits = master_rng.getrandbits
        identifiers = network.identifiers
        adjacency = network._adjacency
        return tuple(
            NodeRuntime(
                vertex=v,
                identifier=identifiers[v],
                neighbors=adjacency[v],
                rng=make_rng(getrandbits(64)),
                observer=observer,
            )
            for v in range(network.n)
        )

    @staticmethod
    def _collect_trace(
        algorithm: NodeAlgorithm,
        network: Network,
        problem: ProblemSpec,
        nodes: Tuple[NodeRuntime, ...],
        rounds: int,
        completed: bool,
        total_messages: int,
        max_message_bits: Optional[int],
        *,
        any_edge_commits: bool,
        fault_events: Tuple,
        crashed: Tuple[int, ...],
        recovery: Optional[RecoveryTimeline],
    ) -> ExecutionTrace:
        # Outputs and commit rounds go straight into the trace's flat
        # per-slot rows (-1 = never committed), its only storage; its
        # read-only dict views are built from them only if somebody asks.
        n = network.n
        node_rounds = array("q", [-1]) * n
        node_values: list = [None] * n
        for node in nodes:
            r = node._output_round
            if r is not None:
                v = node.vertex
                node_rounds[v] = r
                node_values[v] = node._output

        m = network.m
        edge_rounds = array("q", [-1]) * m
        edge_values: list = [None] * m
        if any_edge_commits:
            # Walk the committing nodes' own output dicts instead of scanning
            # all m edges of the lazy tuple edge view: cost is O(n + commits),
            # and no tuple per edge is materialised — slots resolve through
            # the packed-key index.
            packed = network._packed_edge_index()
            for node in nodes:
                outputs = node._edge_outputs
                if not outputs:
                    continue
                v = node.vertex
                rounds_of = node._edge_output_rounds
                for u, value in outputs.items():
                    if not 0 <= u < n:
                        # Out-of-range neighbour: ignored, and kept away
                        # from the packed lookup where it would alias
                        # another row's key.
                        continue
                    key = v * n + u if v < u else u * n + v
                    i = packed.get(key)
                    if i is None:
                        # Commit towards a non-neighbour: ignored, as the
                        # former per-edge scan never visited it.
                        continue
                    r = rounds_of[u]
                    if edge_rounds[i] < 0:
                        edge_rounds[i] = r
                        edge_values[i] = value
                        continue
                    if edge_values[i] != value:
                        a, b = (v, u) if v < u else (u, v)
                        raise CommitError(
                            f"endpoints of edge ({a}, {b}) committed conflicting "
                            f"outputs: {{{edge_values[i]!r}, {value!r}}}"
                        )
                    if r < edge_rounds[i]:
                        edge_rounds[i] = r

        return ExecutionTrace(
            network,
            problem,
            node_values,
            node_rounds,
            edge_values,
            edge_rounds,
            rounds=rounds,
            completed=completed,
            total_messages=total_messages,
            max_message_bits=max_message_bits,
            algorithm_name=algorithm.name,
            fault_events=fault_events,
            crashed=crashed,
            recovery=recovery,
        )
