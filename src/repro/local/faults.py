"""Deterministic fault injection for the LOCAL-model simulators.

A :class:`FaultSchedule` describes an adversary for one execution:

* **crash-stop node faults** — ``crashes`` maps a vertex to the round at
  whose *start* it crashes (rounds are 1-based, like the runner's round
  counter).  A node crashed at round ``r`` sends nothing at round ``r``,
  never processes an inbox again and never commits again; whatever it
  committed in rounds ``< r`` stands.  Survivors keep running — graceful
  degradation, not abort.  Every crash vertex must be a vertex of the
  network: both engines refuse a schedule naming one outside ``0..n-1``
  before round 1 (:meth:`FaultSchedule.check_vertices`).
* **seeded message drops/delays** — every directed message of round ``r``
  is independently dropped with probability ``drop_rate`` or delayed by one
  round with probability ``delay_rate``.  Both engines honour delays: the
  coroutine runner re-queues the concrete payload, the array engine exposes
  the equivalent ``late_uv`` / ``late_vu`` carry masks on
  :class:`RoundFaults` for fault-aware array algorithms.  A delayed message
  is delivered together with round ``r + 1``'s messages, so a fresh
  round-``r+1`` message from the same sender overwrites it; it is lost if
  the target has crashed or halted by then.  Round-synchronous algorithms whose message *types* vary by phase
  (e.g. Luby's alternating priority/announcement broadcasts) can therefore
  observe a cross-phase straggler whenever the overwriting fresh message is
  itself dropped or the sender has retired — an algorithm-level exception
  under such an adversary is a legitimate structured outcome, not a harness
  bug: resilient sweeps (``on_error="record"``) record it as an
  ``exception:<Type>`` failure row instead of crashing.

A schedule is *active* when it has a crash or a message fault
(:attr:`FaultSchedule.active`); an inactive one runs exactly like no
schedule on both engines.

Seed schedule (the ``fast_gnp_edges`` relaxed-randomness precedent).  Fault
randomness is engine-independent: it comes from the schedule's own PCG64
streams, never from the algorithm's RNG, so the *same* ``FaultSchedule``
object injects bit-identical faults into the coroutine :class:`~repro.local.
runner.Runner` and the :class:`~repro.local.engine.ArrayEngine`.  Round ``r``
draws one block

    ``numpy.random.Generator(PCG64(SeedSequence([seed, r]))).random(2 m)``

of uniforms over the **directed edge slots**: canonical edge slot ``i``
(endpoints ``u < v`` in :meth:`Network.edge_endpoints` order) owns direction
``u → v`` at ``2 i`` and ``v → u`` at ``2 i + 1``.  A directed uniform ``x``
means dropped if ``x < drop_rate``, delayed if
``drop_rate ≤ x < drop_rate + delay_rate``, delivered otherwise.  Keying the
generator by ``(seed, round)`` makes the schedule independent of how many
rounds the run executes and of the order the engines query it in.  Round 0,
the configuration before any message is sent, draws no block.

Round views.  Both engines make one query per executed round,
:meth:`FaultSchedule.round_faults`, and pass the view it returned for the
previous round back in.  A :class:`RoundFaults` view carries all a round
needs: the alive mask, the delivery and late masks, the round's fate block
(drawn once per round) and its fault events.  Round ``r``'s late masks
come from round ``r − 1``'s view, and a round in the same crash *epoch*
(the same crashes landed) as the previous view reuses its read-only alive
mask — and, for a crash-only schedule, its delivery array too.  The
schedule holds only its parameters and its crash index (indexed by round
once, at construction), so it keeps no network's arrays or fate blocks
alive after a run; a query without the previous view gives the same view,
computed afresh.

Fault events.  A view's ``events`` are derived *purely from the schedule*
(crash rounds + fate block + topology), never from engine state: a
drop/delay event is recorded iff the fate block selects the direction
**and** neither endpoint has crashed by that round — whether or not the
source actually had a message to send.  The events describe the adversary,
not observed message loss; because both engines record the events of the
views they query, one per executed round, their recorded events are
identical by construction (differential tests pin this).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.local.network import Network

__all__ = ["FaultSchedule", "RoundFaults", "FaultEvent"]

#: ("crash", round, vertex) | ("drop", round, source, target)
#: | ("delay", round, source, target)
FaultEvent = Tuple


#: Directed-fate codes of the per-round fate block.
_DELIVER, _DROP, _DELAY = 0, 1, 2


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class RoundFaults:
    """The faults of one engine round, in array form.

    Built by :meth:`FaultSchedule.round_faults` and handed to fault-aware
    :class:`~repro.local.engine.ArrayAlgorithm` steps:

    * ``alive`` — bool per vertex; ``False`` from the crash round onwards
      (a node crashing at round ``r`` is already dead *during* round ``r``),
    * ``newly_crashed`` — vertices whose crash round is exactly this round,
    * ``deliver_uv`` / ``deliver_vu`` — bool per canonical edge slot:
      whether a message along ``u → v`` / ``v → u`` would be delivered this
      round (not dropped or delayed, and both endpoints alive),
    * ``late_uv`` / ``late_vu`` — bool per canonical edge slot: whether a
      message *delayed in the previous round* arrives late along
      ``u → v`` / ``v → u`` at the start of this round (the sender was
      alive when it sent, the target is alive now).  ``None`` when the
      schedule has no delays or this is round 1 (nothing in flight).  A
      late arrival carries the **previous round's** payload and is
      overwritten by a same-sender fresh delivery, exactly like the
      coroutine runner's ``delayed_messages`` queue,
    * ``fates`` — the round's int8 fate block, one entry per directed slot
      (``0`` delivered, ``1`` dropped, ``2`` delayed; slot ``i``'s
      ``u → v`` at ``2 i``, ``v → u`` at ``2 i + 1``), or ``None`` when
      every message is delivered,
    * ``events`` — the round's fault events, crashes by vertex, then drops,
      then delays, each in ascending directed-slot order.

    Every array of a view is read-only; algorithms derive new arrays from
    it.  Rounds of one crash epoch share the ``alive`` array, and under a
    crash-only schedule also the delivery array (``deliver_uv`` and
    ``deliver_vu`` are then one array).
    """

    __slots__ = (
        "round_index",
        "alive",
        "newly_crashed",
        "deliver_uv",
        "deliver_vu",
        "late_uv",
        "late_vu",
        "fates",
        "events",
    )

    def __init__(
        self,
        round_index: int,
        alive: np.ndarray,
        newly_crashed: Tuple[int, ...],
        deliver_uv: np.ndarray,
        deliver_vu: np.ndarray,
        late_uv: Optional[np.ndarray] = None,
        late_vu: Optional[np.ndarray] = None,
        fates: Optional[np.ndarray] = None,
        events: Tuple[FaultEvent, ...] = (),
    ) -> None:
        self.round_index = round_index
        self.alive = alive
        self.newly_crashed = newly_crashed
        self.deliver_uv = deliver_uv
        self.deliver_vu = deliver_vu
        self.late_uv = late_uv
        self.late_vu = late_vu
        self.fates = fates
        self.events = events


class FaultSchedule:
    """A deterministic crash/drop/delay adversary for one execution.

    A schedule is an immutable value, engine-independent; the same instance
    may be threaded through any number of runs on any engine, on any number
    of graphs.  It holds its four parameters and the crash index (crash
    vertices sorted by crash round), built once at construction, and
    nothing else.

    Args:
        crashes: mapping ``vertex → crash round`` (1-based; the node is dead
            from the start of that round).
        drop_rate: per-directed-message drop probability in ``[0, 1]``.
        delay_rate: per-directed-message one-round delay probability,
            honoured by both engines (``drop_rate + delay_rate ≤ 1``).
        seed: master seed of the schedule's own PCG64 streams.
    """

    __slots__ = (
        "crashes",
        "drop_rate",
        "delay_rate",
        "seed",
        "_crash_vertices",
        "_crash_rounds",
    )

    def __init__(
        self,
        crashes: Optional[Mapping[int, int]] = None,
        drop_rate: float = 0.0,
        delay_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        crashes = dict(crashes or {})
        for vertex, crash_round in crashes.items():
            if not isinstance(vertex, int) or vertex < 0:
                raise ValueError(f"crash vertex must be a non-negative int, got {vertex!r}")
            if not isinstance(crash_round, int) or crash_round < 1:
                raise ValueError(
                    f"crash round for vertex {vertex} must be an int >= 1, got {crash_round!r}"
                )
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError("drop_rate must lie in [0, 1]")
        if not 0.0 <= delay_rate <= 1.0:
            raise ValueError("delay_rate must lie in [0, 1]")
        if drop_rate + delay_rate > 1.0:
            raise ValueError("drop_rate + delay_rate must not exceed 1")
        self.crashes: Dict[int, int] = crashes
        self.drop_rate = float(drop_rate)
        self.delay_rate = float(delay_rate)
        self.seed = int(seed)
        # The crash index: vertices ordered by (crash round, vertex), so the
        # casualties of rounds <= r are the prefix of length
        # bisect_right(_crash_rounds, r) — the crash *epoch* of round r —
        # and those of round r alone start at bisect_left(_crash_rounds, r).
        order = sorted(crashes.items(), key=lambda item: (item[1], item[0]))
        self._crash_vertices = np.array([v for v, _ in order], dtype=np.int64)
        self._crash_rounds: List[int] = [r for _, r in order]

    # ------------------------------------------------------------------ #
    # Crash queries
    # ------------------------------------------------------------------ #

    @property
    def has_message_faults(self) -> bool:
        """Whether any directed message can be dropped or delayed."""
        return self.drop_rate > 0.0 or self.delay_rate > 0.0

    @property
    def active(self) -> bool:
        """Whether the schedule injects anything: a crash or a message fault.

        Both engines run an inactive schedule exactly like no schedule, and
        a sweep journal records it as none.
        """
        return bool(self.crashes) or self.has_message_faults

    def crashes_at(self, round_index: int) -> Tuple[int, ...]:
        """Vertices crashing exactly at the start of ``round_index`` (sorted)."""
        start = bisect_left(self._crash_rounds, round_index)
        stop = bisect_right(self._crash_rounds, round_index, start)
        return tuple(self._crash_vertices[start:stop].tolist())

    def _epoch(self, round_index: int) -> int:
        """How many crashes have landed by ``round_index`` (its crash epoch)."""
        return bisect_right(self._crash_rounds, round_index)

    def crashed_by(self, round_index: int) -> Tuple[int, ...]:
        """Vertices dead during ``round_index`` (crash round ≤ it), sorted."""
        return tuple(sorted(self._crash_vertices[: self._epoch(round_index)].tolist()))

    def alive_mask(self, round_index: int, n: int) -> np.ndarray:
        """Bool per vertex: alive during ``round_index``."""
        alive = np.ones(n, dtype=bool)
        dead = self._crash_vertices[: self._epoch(round_index)]
        alive[dead[dead < n]] = False
        return alive

    def check_vertices(self, n: int) -> None:
        """Raise :class:`ValueError` unless every crash vertex lies in ``0..n-1``.

        Both engines call this before round 1: a crash that cannot happen
        must not be silently recorded (nor stretch a self-stabilising run
        to its round).
        """
        outside = self._crash_vertices[self._crash_vertices >= n]
        if outside.size:
            raise ValueError(
                f"crash vertex {int(outside.min())} is not a vertex of the "
                f"network (n={n})"
            )

    def crashed_within(self, rounds_executed: int) -> Tuple[int, ...]:
        """Vertices that crashed during the execution (for the trace), sorted."""
        return self.crashed_by(rounds_executed)

    # ------------------------------------------------------------------ #
    # The round view
    # ------------------------------------------------------------------ #

    def _fates(self, round_index: int, m: int) -> Optional[np.ndarray]:
        """The read-only fate block of ``round_index`` (``None``: all delivered).

        One PCG64 block keyed ``SeedSequence([seed, round_index])`` — the
        documented schedule; round 0 sends nothing and draws nothing.
        """
        if not self.has_message_faults or m == 0 or round_index < 1:
            return None
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, round_index]))
        )
        draws = rng.random(2 * m)
        fates = np.zeros(2 * m, dtype=np.int8)
        fates[draws < self.drop_rate] = _DROP
        if self.delay_rate > 0.0:
            fates[
                (draws >= self.drop_rate) & (draws < self.drop_rate + self.delay_rate)
            ] = _DELAY
        return _frozen(fates)

    def round_faults(
        self,
        round_index: int,
        network: Network,
        previous: Optional[RoundFaults] = None,
    ) -> RoundFaults:
        """The :class:`RoundFaults` view of ``round_index`` on ``network``.

        ``previous`` is a view this schedule returned for an earlier round
        on the same network; the engines pass the one of the previous
        round.  It only saves work — round ``r − 1``'s fate block and alive
        mask give round ``r``'s late masks, and a view of the same crash
        epoch lends its read-only alive mask (and, crash-only, its delivery
        array) — so any ``previous`` gives the same view as none.
        """
        us, vs = network.edge_endpoints()
        fates = self._fates(round_index, network.m)
        # ``previous`` when it is of this round's crash epoch: its alive mask,
        # and a crash-only delivery array, hold for this round too.
        kin = previous
        if kin is not None and self._epoch(kin.round_index) != self._epoch(round_index):
            kin = None
        alive = kin.alive if kin is not None else _frozen(self.alive_mask(round_index, network.n))
        newly_crashed = self.crashes_at(round_index)
        events: List[FaultEvent] = [("crash", round_index, v) for v in newly_crashed]
        if fates is None:
            if kin is not None and kin.fates is None:
                deliver = kin.deliver_uv
            else:
                deliver = _frozen(alive[us] & alive[vs])
            return RoundFaults(
                round_index, alive, newly_crashed, deliver, deliver, events=tuple(events)
            )
        both_alive = alive[us] & alive[vs]
        late_uv = late_vu = None
        if self.delay_rate > 0.0 and round_index >= 2:
            if previous is not None and previous.round_index == round_index - 1:
                prev_fates, alive_prev = previous.fates, previous.alive
            else:
                prev_fates = self._fates(round_index - 1, network.m)
                alive_prev = self.alive_mask(round_index - 1, network.n)
            # Late iff delayed last round, the sender was alive *then* (a
            # crashed node sent nothing) and the target is alive now (the
            # coroutine runner drops in-flight payloads whose target inbox
            # is gone).
            late_uv = _frozen((prev_fates[0::2] == _DELAY) & alive_prev[us] & alive[vs])
            late_vu = _frozen((prev_fates[1::2] == _DELAY) & alive_prev[vs] & alive[us])
        for code, kind in ((_DROP, "drop"), (_DELAY, "delay")):
            directions = np.flatnonzero(fates == code)
            slots, reverse = directions >> 1, (directions & 1).astype(bool)
            sources = np.where(reverse, vs[slots], us[slots])
            targets = np.where(reverse, us[slots], vs[slots])
            # Directions with a crashed endpoint carry no event.
            kept = alive[sources] & alive[targets]
            events.extend(
                (kind, round_index, source, target)
                for source, target in zip(sources[kept].tolist(), targets[kept].tolist())
            )
        return RoundFaults(
            round_index,
            alive,
            newly_crashed,
            _frozen((fates[0::2] == _DELIVER) & both_alive),
            _frozen((fates[1::2] == _DELIVER) & both_alive),
            late_uv,
            late_vu,
            fates,
            tuple(events),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"FaultSchedule(crashes={self.crashes!r}, drop_rate={self.drop_rate}, "
            f"delay_rate={self.delay_rate}, seed={self.seed})"
        )
