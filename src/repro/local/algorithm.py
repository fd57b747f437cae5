"""Algorithm interface for the synchronous LOCAL / CONGEST simulator.

A distributed algorithm is written from the perspective of a single node as a
:class:`NodeAlgorithm` subclass with three callbacks:

* :meth:`NodeAlgorithm.init` — executed before the first round ("round 0").
  A node may already commit its output here (e.g. an isolated node in a
  matching algorithm outputs "unmatched" without communicating).
* :meth:`NodeAlgorithm.send` — produce the messages for the current round, as
  a mapping from neighbour vertex to message payload.
* :meth:`NodeAlgorithm.receive` — consume the messages delivered this round
  and update local state / commit outputs.

The runner drives all nodes in lock step, so one call to ``send`` plus one
call to ``receive`` per node constitutes one synchronous round, exactly the
round complexity counted in the paper.

Messages can be arbitrary Python objects in the LOCAL model.  Algorithms that
claim CONGEST bounds should keep messages to ``O(log n)``-bit payloads (small
tuples of integers/booleans); ``Runner(track_message_bits=True)``
(:class:`repro.local.runner.Runner`) records the largest message's size in
the trace's ``max_message_bits`` to check that bound.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.local.node import NodeRuntime

__all__ = ["NodeAlgorithm", "Broadcast"]


class Broadcast:
    """Outbox sentinel: send ``payload`` to *every* neighbour this round.

    Equivalent to ``{u: payload for u in node.neighbors}`` but lets the
    runner deliver without building (and re-validating) a per-round dict —
    the neighbour set is known to be valid.  Algorithms whose rounds are
    full-neighbourhood broadcasts (most symmetry-breaking algorithms) should
    prefer it on large instances.
    """

    __slots__ = ("payload",)

    def __init__(self, payload: Any) -> None:
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Broadcast({self.payload!r})"


class NodeAlgorithm:
    """Base class for node-centric synchronous distributed algorithms.

    Subclasses typically store only *per-execution configuration* on ``self``
    (probabilities, phase lengths, parameters such as Δ or n if the algorithm
    assumes global knowledge of them) and keep all per-node state inside
    ``node.state``.  A single algorithm instance is shared by every node of an
    execution, mirroring the fact that every node runs the same code.
    """

    #: Human-readable algorithm name used in experiment reports.
    name: str = "node-algorithm"

    #: Whether the algorithm uses unique identifiers (deterministic symmetry
    #: breaking).  Purely informational.
    uses_identifiers: bool = True

    #: Whether the algorithm uses private randomness.  Purely informational.
    randomized: bool = False

    #: Self-stabilising algorithms recover from crash-stop faults: the runner
    #: notifies survivors of crashed neighbours (:meth:`neighbor_crashed`),
    #: allows them to revoke and recompute outputs
    #: (:meth:`~repro.local.node.NodeRuntime.revoke` /
    #: :meth:`~repro.local.node.NodeRuntime.revoke_edge`), keeps the
    #: execution running until the last scheduled crash has landed, and
    #: records a per-round :class:`~repro.core.metrics.RecoveryTimeline` on
    #: the trace.
    self_stabilizing: bool = False

    def init(self, node: NodeRuntime) -> None:
        """Initialise the local state of ``node`` (round 0)."""

    def send(self, node: NodeRuntime) -> Dict[int, Any]:
        """Return messages to deliver this round: ``{neighbor_vertex: payload}``.

        Returning an empty dict (the default) means the node stays silent this
        round but keeps listening.  Returning :class:`Broadcast` sends one
        payload to every neighbour.
        """
        return {}

    def receive(self, node: NodeRuntime, messages: Dict[int, Any]) -> None:
        """Process the messages received this round.

        Args:
            node: the executing node.
            messages: mapping from neighbour vertex to the payload it sent
                this round.  Neighbours that sent nothing are absent.  The
                mapping is owned by the runner and is reused between rounds —
                copy it if you need its contents beyond this call.
        """

    def neighbor_crashed(self, node: NodeRuntime, neighbor: int) -> None:
        """Notification that ``neighbor`` just crashed (self-stabilising runs).

        Called by the runner at the start of the crash round, after the
        casualty has been marked dead and before any round-``r`` messages
        are produced, for every live, unhalted neighbour of the casualty.
        Only algorithms with :attr:`self_stabilizing` set receive the
        callback; the default is a no-op.
        """

    def describe(self) -> str:
        """One-line description used by the experiment harness."""
        kind = "randomized" if self.randomized else "deterministic"
        return f"{self.name} ({kind})"

    def as_array_algorithm(self):
        """This algorithm's vectorised twin for the array engine, if any.

        Algorithms that implement the
        :class:`repro.local.engine.ArrayAlgorithm` protocol override this to
        return a configured instance of their array twin; the
        ``engine="auto"`` knob of ``run_trials`` / ``Experiment`` / ``sweep``
        routes execution through :class:`repro.local.engine.ArrayEngine`
        exactly when this returns one.  The default is ``None``: the
        algorithm only runs on the per-node coroutine
        :class:`~repro.local.runner.Runner`.
        """
        return None
