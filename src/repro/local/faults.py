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
rounds the run executes and of the order the engines query it in.

Round views.  The array engine asks for one :class:`RoundFaults` view per
round.  The schedule indexes its crashes by round once, at construction, so
crash queries are lookups and the alive mask is one vectorised write.  A
crash-only schedule's view depends only on the crash *epoch* (how many
crashes have landed), so its arrays are built once per epoch and topology
and shared, read-only, by every round of that epoch; drop and delay
schedules draw fresh masks every round.

Fault events.  :meth:`FaultSchedule.round_events` derives the per-round
event list *purely from the schedule* (crash rounds + directed masks +
topology), never from engine state: a drop/delay event is recorded iff the
mask selects the direction **and** neither endpoint has crashed by that
round — whether or not the source actually had a message to send.  The
events describe the adversary, not observed message loss; because both
engines call the same helper for each executed round, their recorded events
are identical by construction (differential tests pin this).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["FaultSchedule", "RoundFaults", "FaultEvent"]

#: ("crash", round, vertex) | ("drop", round, source, target)
#: | ("delay", round, source, target)
FaultEvent = Tuple


#: Directed-fate codes of the per-round mask.
_DELIVER, _DROP, _DELAY = 0, 1, 2

#: Capacity of the per-schedule fate-mask LRU.  The engines query at most
#: the current and the previous round (for late-delivery masks), so a small
#: window never misses on the sequential access pattern while keeping
#: memory flat over arbitrarily long runs (each entry is a ``2m`` int8
#: array; an unbounded cache grew one per executed round).
_MASK_CACHE_SIZE = 8

#: Capacity of the per-schedule crash-epoch view LRU (crash-only schedules).
#: A run walks its epochs in order, so a single entry would serve it; a few
#: let the trials of a cell on one graph share the views of a short wave
#: schedule.  Each entry is ``n + m`` bools.
_VIEW_CACHE_SIZE = 4


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
      coroutine runner's ``delayed_messages`` queue.

    Algorithms must treat every array of the view as read-only and derive
    new arrays from it.  For a crash-only schedule the ``alive`` /
    ``deliver_uv`` / ``deliver_vu`` arrays depend only on which crashes have
    landed, so every round of one crash epoch on one topology shares the
    same arrays (``deliver_uv`` and ``deliver_vu`` are even one array
    there); those are flagged read-only, and a write into them raises.
    """

    __slots__ = (
        "round_index",
        "alive",
        "newly_crashed",
        "deliver_uv",
        "deliver_vu",
        "late_uv",
        "late_vu",
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
    ) -> None:
        self.round_index = round_index
        self.alive = alive
        self.newly_crashed = newly_crashed
        self.deliver_uv = deliver_uv
        self.deliver_vu = deliver_vu
        self.late_uv = late_uv
        self.late_vu = late_vu


class FaultSchedule:
    """A deterministic crash/drop/delay adversary for one execution.

    A schedule is immutable and engine-independent; the same instance may be
    threaded through any number of runs on any engine, on any number of
    graphs.  The crash index (sorted by crash round) is built once, at
    construction; the internal caches — directed fates per round, and the
    read-only views of each crash epoch on each topology — only memoise
    deterministic results.

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
        "_mask_cache",
        "_crash_vertices",
        "_crash_rounds",
        "_crashes_at",
        "_crashed_cache",
        "_view_cache",
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
        # (round, m) → int8 directed-fate array.  Draws are deterministic,
        # so eviction is safe (a re-query recomputes the identical array);
        # a small LRU keeps memory flat over long runs.
        self._mask_cache: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()
        # The crash index: vertices ordered by (crash round, vertex), so the
        # casualties of rounds <= r are the prefix of length
        # bisect_right(_crash_rounds, r) — the crash *epoch* of round r.
        order = sorted(crashes.items(), key=lambda item: (item[1], item[0]))
        self._crash_vertices = np.array([v for v, _ in order], dtype=np.int64)
        self._crash_rounds: List[int] = [r for _, r in order]
        by_round: Dict[int, List[int]] = {}
        for vertex, crash_round in order:
            by_round.setdefault(crash_round, []).append(vertex)
        self._crashes_at = {r: tuple(vs) for r, vs in by_round.items()}
        # Epoch → sorted casualties, filled on demand.
        self._crashed_cache: Dict[int, Tuple[int, ...]] = {}
        # (id(edge_us), id(edge_vs), n, epoch) → (edge_us, edge_vs, alive,
        # deliver): the read-only round view arrays of a crash-only schedule.
        # The entry holds the edge arrays, so their ids cannot be reused by
        # other arrays while it is cached.
        self._view_cache: "OrderedDict[Tuple[int, int, int, int], Tuple[np.ndarray, ...]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------ #
    # Crash queries
    # ------------------------------------------------------------------ #

    @property
    def has_message_faults(self) -> bool:
        """Whether any directed message can be dropped or delayed."""
        return self.drop_rate > 0.0 or self.delay_rate > 0.0

    def crash_round(self, vertex: int) -> Optional[int]:
        """The round at whose start ``vertex`` crashes, or ``None``."""
        return self.crashes.get(vertex)

    def crashes_at(self, round_index: int) -> Tuple[int, ...]:
        """Vertices crashing exactly at the start of ``round_index`` (sorted)."""
        return self._crashes_at.get(round_index, ())

    def _epoch(self, round_index: int) -> int:
        """How many crashes have landed by ``round_index`` (its crash epoch)."""
        return bisect_right(self._crash_rounds, round_index)

    def crashed_by(self, round_index: int) -> Tuple[int, ...]:
        """Vertices dead during ``round_index`` (crash round ≤ it), sorted."""
        epoch = self._epoch(round_index)
        crashed = self._crashed_cache.get(epoch)
        if crashed is None:
            crashed = self._crashed_cache[epoch] = tuple(
                sorted(self._crash_vertices[:epoch].tolist())
            )
        return crashed

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

    # ------------------------------------------------------------------ #
    # Directed message fates
    # ------------------------------------------------------------------ #

    def directed_fates(self, round_index: int, m: int) -> Optional[np.ndarray]:
        """Fate per directed slot for ``round_index`` (``None`` = all delivered).

        The returned int8 array has length ``2 m``: slot ``i``'s direction
        ``u → v`` at ``2 i`` and ``v → u`` at ``2 i + 1``; values are
        ``0`` = delivered, ``1`` = dropped, ``2`` = delayed.  One PCG64 block
        keyed ``SeedSequence([seed, round_index])`` per round — the
        documented schedule.
        """
        if not self.has_message_faults or m == 0:
            return None
        key = (round_index, m)
        fates = self._mask_cache.get(key)
        if fates is None:
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([self.seed, round_index]))
            )
            draws = rng.random(2 * m)
            fates = np.zeros(2 * m, dtype=np.int8)
            fates[draws < self.drop_rate] = _DROP
            if self.delay_rate > 0.0:
                fates[
                    (draws >= self.drop_rate)
                    & (draws < self.drop_rate + self.delay_rate)
                ] = _DELAY
            fates.setflags(write=False)
            self._mask_cache[key] = fates
            if len(self._mask_cache) > _MASK_CACHE_SIZE:
                self._mask_cache.popitem(last=False)
        else:
            self._mask_cache.move_to_end(key)
        return fates

    # ------------------------------------------------------------------ #
    # Engine-facing round view
    # ------------------------------------------------------------------ #

    def round_faults(
        self,
        round_index: int,
        n: int,
        m: int,
        edge_us: np.ndarray,
        edge_vs: np.ndarray,
    ) -> RoundFaults:
        """The :class:`RoundFaults` view of ``round_index`` for an ``n``/``m`` graph.

        Crash-only schedules share one read-only set of arrays across the
        rounds of a crash epoch, cached per topology (keyed on the identity
        of ``edge_us`` / ``edge_vs``, not on ``n`` and ``m``: a sweep passes
        one schedule to many graphs of equal size).  Drop and delay
        schedules draw their masks for every round.
        """
        fates = self.directed_fates(round_index, m)
        if fates is None:
            alive, deliver = self._epoch_view(round_index, n, edge_us, edge_vs)
            return RoundFaults(
                round_index=round_index,
                alive=alive,
                newly_crashed=self.crashes_at(round_index),
                deliver_uv=deliver,
                deliver_vu=deliver,
            )
        alive = self.alive_mask(round_index, n)
        both_alive = alive[edge_us] & alive[edge_vs]
        deliver_uv = (fates[0::2] == _DELIVER) & both_alive
        deliver_vu = (fates[1::2] == _DELIVER) & both_alive
        late_uv = late_vu = None
        if self.delay_rate > 0.0 and round_index >= 2:
            prev_fates = self.directed_fates(round_index - 1, m)
            if prev_fates is not None:
                # Late iff delayed last round, the sender was alive *then*
                # (a crashed node sent nothing) and the target is alive now
                # (the coroutine runner drops in-flight payloads whose
                # target inbox is gone).
                alive_prev = self.alive_mask(round_index - 1, n)
                late_uv = (
                    (prev_fates[0::2] == _DELAY)
                    & alive_prev[edge_us]
                    & alive[edge_vs]
                )
                late_vu = (
                    (prev_fates[1::2] == _DELAY)
                    & alive_prev[edge_vs]
                    & alive[edge_us]
                )
        return RoundFaults(
            round_index=round_index,
            alive=alive,
            newly_crashed=self.crashes_at(round_index),
            deliver_uv=deliver_uv,
            deliver_vu=deliver_vu,
            late_uv=late_uv,
            late_vu=late_vu,
        )

    def _epoch_view(
        self,
        round_index: int,
        n: int,
        edge_us: np.ndarray,
        edge_vs: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(alive, deliver)`` of ``round_index``'s crash epoch."""
        epoch = self._epoch(round_index)
        key = (id(edge_us), id(edge_vs), n, epoch)
        entry = self._view_cache.get(key)
        if entry is not None:
            self._view_cache.move_to_end(key)
            return entry[2], entry[3]
        alive = self.alive_mask(round_index, n)
        deliver = alive[edge_us] & alive[edge_vs]
        alive.setflags(write=False)
        deliver.setflags(write=False)
        self._view_cache[key] = (edge_us, edge_vs, alive, deliver)
        self._view_cache.move_to_end(key)
        if len(self._view_cache) > _VIEW_CACHE_SIZE:
            self._view_cache.popitem(last=False)
        return alive, deliver

    # ------------------------------------------------------------------ #
    # Engine-independent event log
    # ------------------------------------------------------------------ #

    def round_events(
        self,
        round_index: int,
        edge_us: np.ndarray,
        edge_vs: np.ndarray,
    ) -> List[FaultEvent]:
        """The fault events of ``round_index``, derived from the schedule alone.

        Ordering is fixed (crashes by vertex, then drops, then delays, each
        in ascending directed-slot order) so both engines record literally
        identical lists for the rounds they execute.
        """
        events: List[FaultEvent] = [
            ("crash", round_index, vertex) for vertex in self.crashes_at(round_index)
        ]
        fates = self.directed_fates(round_index, len(edge_us))
        if fates is None:
            return events
        crashed_now = set(self.crashed_by(round_index))
        for kind_code, kind in ((_DROP, "drop"), (_DELAY, "delay")):
            for direction in np.flatnonzero(fates == kind_code).tolist():
                slot, reverse = divmod(direction, 2)
                if reverse:
                    source, target = int(edge_vs[slot]), int(edge_us[slot])
                else:
                    source, target = int(edge_us[slot]), int(edge_vs[slot])
                if source in crashed_now or target in crashed_now:
                    continue
                events.append((kind, round_index, source, target))
        return events

    def crashed_within(self, rounds_executed: int) -> Tuple[int, ...]:
        """Vertices that crashed during the execution (for the trace), sorted."""
        return self.crashed_by(rounds_executed)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"FaultSchedule(crashes={self.crashes!r}, drop_rate={self.drop_rate}, "
            f"delay_rate={self.delay_rate}, seed={self.seed})"
        )
