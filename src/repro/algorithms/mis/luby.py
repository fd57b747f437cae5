"""Luby's randomized maximal independent set algorithm (random-priority variant).

Each phase, every undecided node draws a fresh uniformly random priority and
joins the MIS if its priority beats every undecided neighbour's priority;
neighbours of joiners are removed.  Luby's analysis shows that each phase
removes a constant fraction of the *edges* in expectation, which is the basis
of the paper's observation that Luby's algorithm has edge-averaged complexity
``O(1)`` (under the "at least one endpoint decided" convention) and
node-averaged complexity ``O(1)`` on constant-degree graphs — but, by
Theorem 16, **not** ``O(1)`` node-averaged complexity in general.

Each phase costs two communication rounds:

1. exchange priorities; local maxima commit ``True`` (they join the MIS);
2. joiners announce themselves; their neighbours commit ``False``.

Undecided nodes recognise decided neighbours by their silence in the next
phase, so no extra bookkeeping round is needed.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.local.algorithm import Broadcast
from repro.local.coroutine import CoroutineAlgorithm
from repro.local.engine import ArrayAlgorithm, BatchState, ScratchArena
from repro.local.faults import RoundFaults
from repro.local.network import Network
from repro.local.node import NodeRuntime

__all__ = ["LubyMIS", "LubyMISArray"]


class LubyMIS(CoroutineAlgorithm):
    """Luby's MIS with random priorities (commits a boolean per node)."""

    name = "luby-mis"
    randomized = True
    uses_identifiers = True  # only for tie breaking

    def run(self, node: NodeRuntime):
        if node.degree == 0:
            node.commit(True)
            return

        while not node.has_committed:
            priority = (node.rng.random(), node.identifier)
            inbox = yield Broadcast(priority)
            # Neighbours that are still undecided sent a priority this round;
            # decided neighbours are silent and are ignored.  (`>` against the
            # max is `all(...)` over the values, in one C-level reduction.)
            if not inbox or priority > max(inbox.values()):
                node.commit(True)

            joined = node.has_committed
            inbox = yield Broadcast(joined)
            if not node.has_committed and any(inbox.values()):
                node.commit(False)

    def as_array_algorithm(self) -> "LubyMISArray":
        return LubyMISArray()


def _luby_joins_masked(
    priorities: np.ndarray,
    participants: np.ndarray,
    identifiers: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    deliver_uv: np.ndarray,
    deliver_vu: np.ndarray,
) -> np.ndarray:
    """Mask of participants whose priority beats every priority they received.

    ``participants`` is the per-vertex mask of alive, still-undecided
    nodes; ``us`` / ``vs`` are the endpoints of the edges to consider and
    ``deliver_uv`` / ``deliver_vu`` say, per such edge, which directed
    messages of the priority round arrive.  Any edge subset that contains
    every edge between two participants gives the same answer (the
    self-stabilising MIS passes only its live edges; Luby's fault mode
    passes all of them).  A participant beats only the priorities it
    *received* — exactly the coroutine semantics, where a dropped or
    crashed neighbour is as silent as a decided one (a participant whose
    whole inbox was dropped joins unconditionally).  Comparisons are
    lexicographic on ``(priority, identifier)``, the coroutine twin's tuple
    comparison: the identifier only matters on exact float ties, which a
    continuous draw hits with probability zero but a test can force.
    """
    both = participants[us] & participants[vs]
    live_uv = both & deliver_uv
    live_vu = both & deliver_vu
    best = np.full(priorities.size, -1.0)
    np.maximum.at(best, vs[live_uv], priorities[us[live_uv]])
    np.maximum.at(best, us[live_vu], priorities[vs[live_vu]])
    joins = participants & (priorities > best)
    ties = participants & (priorities == best)
    if ties.any():
        best_id = np.full(priorities.size, -1, dtype=np.int64)
        tie = priorities[us] == priorities[vs]
        e_uv = live_uv & tie
        e_vu = live_vu & tie
        np.maximum.at(best_id, vs[e_uv], identifiers[us[e_uv]])
        np.maximum.at(best_id, us[e_vu], identifiers[vs[e_vu]])
        joins |= ties & (identifiers > best_id)
    return joins


# Flat batch indices are always int64: numpy's advanced-indexing fast path
# only fires for intp index arrays, and int32 gathers measure ~3× slower.


class LubyMISArray(ArrayAlgorithm):
    """Array-engine twin of :class:`LubyMIS` (vectorised rounds over edge arrays).

    Phase ``k`` spans rounds ``2k−1`` (priority exchange) and ``2k``
    (joiner announcement), with exactly the coroutine twin's timeline:

    * round 0: isolated nodes commit ``True``;
    * round ``2k−1``: every node still undecided at phase start draws a
      fresh uniform priority (one ``rng.random`` block, ascending vertex
      order — the engine's documented seed schedule); local maxima over the
      undecided neighbourhood commit ``True`` at round ``2k−1``;
    * round ``2k``: undecided neighbours of round-``2k−1`` joiners commit
      ``False`` at round ``2k``; joiners and removed nodes halt.

    Messages: every phase-``k`` participant broadcasts in both rounds of the
    phase (priorities, then the joined flag), so each executed round adds
    the summed degree of the phase's starting undecided set — the coroutine
    twin's count exactly.

    Fault mode (``faults`` is a :class:`~repro.local.faults.RoundFaults`)
    runs a per-row kernel, once per active trial, on row views of the batch
    arrays; the fault-free worklist kernel never sees a fault.  Only alive
    undecided nodes participate — each row's priority block is drawn from
    its own generator over them in ascending vertex order — and a
    priority / announcement only
    counts at its receiver if the schedule delivered that direction; a
    crashed or silenced neighbour looks exactly like a decided one, as in
    the coroutine.  A joiner that crashes at the announcement round never
    announces, so its neighbours stay undecided.  Message counts charge the
    degrees of the alive senders of each round — the coroutine count
    exactly, drops included (drops lose deliveries, not sends).

    Delay mode consumes the round view's ``late_uv`` / ``late_vu`` carry
    masks with the coroutine's one-round-buffer semantics: a stale message
    is *visible* iff its sender actually broadcast in the previous round and
    no fresh same-direction delivery overwrites it this round.  Because the
    phases alternate message types, a visible straggler always crosses
    phases, exactly as in the coroutine:

    * a stale **priority** arriving at an announcement round is a truthy
      payload in the receiver's flag inbox — an undecided alive receiver
      spuriously commits ``False``;
    * a stale **announcement flag** arriving at a priority round makes the
      receiver's ``max``-over-inbox comparison heterogeneous — the
      coroutine raises ``TypeError``, and the array twin raises the same
      type for the same structural condition (a visible cross-phase
      straggler at a participant).  The *seed* at which this fires differs
      between engines (different RNG schedules reach different undecided
      sets), which is why the differential tests pin fault-*event* parity,
      not outcome parity, under delays.
    """

    name = "luby-mis"
    labels_nodes = True
    supports_faults = True

    @staticmethod
    def _batch_scratch(
        network: Network, trials: int, arena: ScratchArena
    ) -> dict:
        """The fault-free kernel's scratch, carved from the engine's arena.

        Sized for ``trials · m`` and kept for the whole chunk: every
        multi-megabyte temporary would otherwise cross the allocator's mmap
        threshold and be mapped, faulted and zeroed afresh on every round.
        The arrays hold whatever an earlier chunk left: :meth:`init_batch`
        writes ``undecided``, ``priorities`` and worklist pair 0, and every
        round writes the rest before reading it.
        """
        n, flat_m = network.n, trials * network.m
        fu0, fv0, fu1, fv1, gu, gv, best, near, joins, ties, priorities, undecided = (
            arena.carve(
                *[(flat_m, np.int64)] * 4,
                (flat_m, bool),
                (flat_m, bool),
                (trials * n, np.float64),
                (trials * n, bool),
                ((trials, n), bool),
                ((trials, n), bool),
                ((trials, n), np.float64),
                ((trials, n), bool),
            )
        )
        return {
            # Worklist double buffers: (endpoint-slot u, endpoint-slot v)
            # pairs.  The idle pair is also the priority round's gather
            # target (viewed as float64) and the announcement round's
            # index scratch.
            "wl": ((fu0, fv0), (fu1, fv1)),
            "gu": gu,
            "gv": gv,
            "best": best,
            "near": near,
            "joins": joins,
            "ties": ties,
            "priorities": priorities,
            "undecided": undecided,
        }

    def init_batch(
        self,
        network: Network,
        rngs: Sequence[np.random.Generator],
        scratch: ScratchArena,
    ) -> BatchState:
        # Round 0 draws no randomness, so every row starts from the same
        # state, broadcast over the trial axis.
        trials = len(rngs)
        n = network.n
        batch = BatchState(trials, n, network.m, nodes=True, edges=False)
        isolated = network.degrees == 0
        if isolated.any():
            batch.node_rounds[:, isolated] = 0
            batch.node_values[:, isolated] = True
            batch.halted[:, isolated] = True
        buffers = self._batch_scratch(network, trials, scratch)
        undecided = buffers["undecided"]
        undecided[:] = ~isolated
        batch.extra["undecided"] = undecided
        # Priorities persist across rounds with the invariant that decided
        # (or never-participating) slots hold −1.0: a decided neighbour then
        # contributes the neutral element to every max-reduction, which is
        # exactly the coroutine's "decided neighbours are silent" rule and
        # lets the worklist kernel skip explicit liveness masks.
        priorities = buffers["priorities"]
        priorities.fill(-1.0)
        batch.extra["priorities"] = priorities
        batch.extra["phase_joined"] = None
        batch.extra["phase_messages"] = np.zeros(trials, dtype=np.int64)
        # Summed degree of each trial's undecided set, maintained
        # incrementally as nodes decide: the per-phase message count
        # without a per-trial gather-and-sum in the RNG loop.  (A
        # completed trial's sum has decayed to zero, so it accrues
        # nothing, exactly as if it had stopped.)
        batch.extra["live_degsum"] = np.full(
            trials, int(network.degrees.sum()), dtype=np.int64
        )
        # The round kernels run over a compacted worklist, one entry per
        # still-live (trial, edge) pair as flat endpoint slots
        # (``t·n + u`` / ``t·n + v``), trial-major with ascending edge
        # order inside each trial, re-compacted each announcement round so
        # kernel work tracks the shrinking live sets.  Edge endpoints are
        # never isolated, so every edge is live at phase 1, and the first
        # worklist is written into buffer pair 0 — for a lone trial too:
        # `np.take` copies a read-only index array (it wants writeable
        # indices), so gathering through the network's own endpoint
        # arrays would pay a hidden copy per gather.
        wl_fu, wl_fv = buffers["wl"][0]
        us, vs = network.edge_endpoints()
        base = (np.arange(trials, dtype=np.int64) * n)[:, None]
        np.add(base, us, out=wl_fu.reshape(trials, -1))
        np.add(base, vs, out=wl_fv.reshape(trials, -1))
        batch.extra["wl_fu"] = wl_fu
        batch.extra["wl_fv"] = wl_fv
        batch.extra["idle"] = 1
        batch.extra["scratch"] = buffers
        # Per-row state of the fault-mode kernel (unused without faults).
        batch.extra["fault_rows"] = [
            {"phase_joined": None, "phase_participants": None, "prev_senders": None}
            for _ in range(trials)
        ]
        return batch

    def batch_complete(self, batch: BatchState) -> np.ndarray:
        # Every undecided node has degree ≥ 1 (isolated nodes commit at
        # init), so a zero live-degree sum means the undecided set is
        # empty, i.e. every node committed — O(trials), vs. the engine's
        # generic (trials, n) reduction.
        return batch.extra["live_degsum"] == 0

    def step_batch(
        self,
        round_index: int,
        batch: BatchState,
        network: Network,
        rngs: Sequence[np.random.Generator],
        active: np.ndarray,
        faults: Optional[RoundFaults] = None,
    ) -> None:
        if faults is not None:
            for t in np.flatnonzero(active).tolist():
                self._step_faulted(round_index, batch, t, network, rngs[t], faults)
            return
        extra = batch.extra
        scratch = extra["scratch"]
        undecided = extra["undecided"]
        undec_flat = undecided.ravel()
        trials, n = batch.trials, network.n
        priorities = extra["priorities"]
        pri_flat = priorities.ravel()
        wl_fu = extra["wl_fu"]
        wl_fv = extra["wl_fv"]
        live_count = wl_fu.size
        degrees = network.degrees
        if round_index % 2 == 1:
            # Priority round (2k−1).  Each *active* trial draws its own
            # uniform block from its own generator — one per still-undecided
            # vertex, ascending order — exactly a lone trial's schedule;
            # inactive trials consume nothing.  Decided slots hold −1.0 (the
            # neutral element), so neighbourhood maxima need no liveness
            # masks anywhere in the kernel.
            phase_messages = extra["phase_messages"]
            np.copyto(phase_messages, extra["live_degsum"])
            for t in np.flatnonzero(active):
                participants = np.flatnonzero(undecided[t])
                priorities[t, participants] = rngs[t].random(participants.size)
            # Scatter-max over the compacted worklist.  The announcement
            # round already re-compacted it to exactly this phase's live
            # edges (both endpoints still undecided), so every entry
            # carries two fresh draws and no liveness pass is needed; a
            # full reset of the scratch block is a streaming fill, far
            # cheaper than tracking stale slots.  The endpoint priorities
            # are gathered into the idle worklist pair, viewed as float64:
            # this round never compacts, so the pair is free until the
            # announcement round.
            best = scratch["best"]
            best.fill(-1.0)
            idle_fu, idle_fv = scratch["wl"][extra["idle"]]
            pu = np.take(
                pri_flat, wl_fu, out=idle_fu[:live_count].view(np.float64), mode="clip"
            )
            pv = np.take(
                pri_flat, wl_fv, out=idle_fv[:live_count].view(np.float64), mode="clip"
            )
            np.maximum.at(best, wl_fu, pv)
            np.maximum.at(best, wl_fv, pu)
            best_rows = best.reshape(trials, n)
            joins = scratch["joins"]
            np.greater(priorities, best_rows, out=joins)
            joins &= undecided
            ties = scratch["ties"]
            np.equal(priorities, best_rows, out=ties)
            ties &= undecided
            if ties.any():
                # Exact priority tie against the neighbourhood maximum: the
                # winner is the larger identifier among the tied
                # (measure-zero for real draws; exercised by unit tests).
                ids = network.identifier_array
                best_id = np.full(trials * n, -1, dtype=np.int64)
                tie_lo = pu == pv
                tfu, tfv = wl_fu[tie_lo], wl_fv[tie_lo]
                np.maximum.at(best_id, tfu, ids[tfv % n])
                np.maximum.at(best_id, tfv, ids[tfu % n])
                joins |= ties & (ids[None, :] > best_id.reshape(trials, n))
            # Stamp through flat indices: one scan of the mask plus
            # join-count-sized scatters beats four full-width boolean-mask
            # assignments.
            jidx = np.flatnonzero(joins)
            batch.node_rounds.ravel()[jidx] = round_index
            batch.node_values.ravel()[jidx] = True
            undec_flat[jidx] = False
            pri_flat[jidx] = -1.0
            extra["live_degsum"] -= np.bincount(
                jidx // n, weights=degrees[jidx % n], minlength=trials
            ).astype(np.int64)
            extra["phase_joined"] = joins
            batch.messages += phase_messages
        else:
            # Announcement round (2k).  A trial that completed at round
            # 2k−1 is done before this round: its row must not execute it —
            # no removals (self-gated: nothing is undecided) and,
            # crucially, no second phase_messages accrual.
            # The worklist still holds the phase's live edges (a joiner was
            # undecided at phase start), so joiner neighbourhoods are two
            # gathers plus two scatter-ORs; an edge to an already-decided
            # neighbour is absent but irrelevant (removal is gated on
            # ``undecided``).
            joined_flat = extra["phase_joined"].ravel()
            gu = np.take(joined_flat, wl_fu, out=scratch["gu"][:live_count], mode="clip")
            gv = np.take(joined_flat, wl_fv, out=scratch["gv"][:live_count], mode="clip")
            near = scratch["near"]
            near.fill(False)
            # Joiner-adjacency scatter via gather-then-assign (the idle
            # worklist pair serves as index scratch; the compaction below
            # rewrites it only after these reads are done) —
            # `logical_or.at` computes the same thing an order of
            # magnitude slower.
            idle_fu, idle_fv = scratch["wl"][extra["idle"]]
            pos = np.flatnonzero(gu)
            near[np.take(wl_fv, pos, out=idle_fu[: pos.size], mode="clip")] = True
            pos = np.flatnonzero(gv)
            near[np.take(wl_fu, pos, out=idle_fv[: pos.size], mode="clip")] = True
            np.logical_and(near, undec_flat, out=near)
            ridx = np.flatnonzero(near)
            batch.node_rounds.ravel()[ridx] = round_index
            # node_values stays False in removed slots.
            undec_flat[ridx] = False
            pri_flat[ridx] = -1.0
            extra["live_degsum"] -= np.bincount(
                ridx // n, weights=degrees[ridx % n], minlength=trials
            ).astype(np.int64)
            # Full-width halt refresh: completed rows are all-decided and
            # unchanged, so overwriting every row is the same result
            # without the fancy-indexed row copies.
            np.logical_not(undecided, out=batch.halted)
            batch.messages[active] += extra["phase_messages"][active]
            # Re-compact the worklist against the post-removal undecided
            # sets: entries that survive are exactly the next phase's live
            # edges, so the priority round runs gather-scatter only, with
            # no liveness bookkeeping of its own.  (Cheap here — two
            # byte-sized gathers — where the priority round would need
            # float passes.)  Output goes to the idle buffer pair; the
            # live set only shrinks, so the buffers never overflow.
            lu = np.take(undec_flat, wl_fu, out=scratch["gu"][:live_count], mode="clip")
            lv = np.take(undec_flat, wl_fv, out=scratch["gv"][:live_count], mode="clip")
            lu &= lv
            keep = np.flatnonzero(lu)
            if keep.size != live_count:
                kept = keep.size
                extra["wl_fu"] = np.take(wl_fu, keep, out=idle_fu[:kept], mode="clip")
                extra["wl_fv"] = np.take(wl_fv, keep, out=idle_fv[:kept], mode="clip")
                extra["idle"] ^= 1

    @staticmethod
    def _visible_stale(
        faults: RoundFaults,
        network: Network,
        prev_senders: Optional[np.ndarray],
        senders_now: np.ndarray,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Directed masks of last round's delayed messages visible this round.

        Visible along ``u → v`` iff the schedule delayed that direction last
        round, ``u`` actually broadcast then, and no fresh ``u → v``
        delivery overwrites the stale payload now (the coroutine's
        ``delayed_messages``-before-fresh-sends order).
        """
        if faults.late_uv is None or prev_senders is None:
            return None
        us, vs = network.edge_endpoints()
        stale_uv = (
            faults.late_uv
            & prev_senders[us]
            & ~(senders_now[us] & faults.deliver_uv)
        )
        stale_vu = (
            faults.late_vu
            & prev_senders[vs]
            & ~(senders_now[vs] & faults.deliver_vu)
        )
        if not stale_uv.any() and not stale_vu.any():
            return None
        return stale_uv, stale_vu

    def _step_faulted(
        self,
        round_index: int,
        batch: BatchState,
        t: int,
        network: Network,
        rng: np.random.Generator,
        faults: RoundFaults,
    ) -> None:
        """Round ``round_index`` of trial row ``t`` under ``faults``."""
        extra = batch.extra["fault_rows"][t]
        undecided = batch.extra["undecided"][t]
        node_rounds = batch.node_rounds[t]
        us, vs = network.edge_endpoints()
        alive = faults.alive
        if round_index % 2 == 1:
            # Priority round (2k−1): one uniform per alive undecided node,
            # ascending vertex order.
            participants_mask = undecided & alive
            stale = self._visible_stale(
                faults, network, extra["prev_senders"], participants_mask
            )
            if stale is not None:
                stale_uv, stale_vu = stale
                struck = np.zeros(network.n, dtype=bool)
                struck[vs[stale_uv]] = True
                struck[us[stale_vu]] = True
                if (struck & participants_mask).any():
                    # A stale announcement flag in a priority inbox: the
                    # coroutine's max-over-inbox comparison mixes bool
                    # and tuple payloads and raises — same type here.
                    raise TypeError(
                        "'>' not supported between cross-phase straggler "
                        "payloads: a delayed announcement flag reached a "
                        "priority-round inbox"
                    )
            participants = np.flatnonzero(participants_mask)
            priorities = np.full(network.n, -1.0)
            priorities[participants] = rng.random(participants.size)
            joins = _luby_joins_masked(
                priorities,
                participants_mask,
                network.identifier_array,
                us,
                vs,
                faults.deliver_uv,
                faults.deliver_vu,
            )
            node_rounds[joins] = round_index
            batch.node_values[t][joins] = True
            undecided &= ~joins
            extra["phase_joined"] = joins
            extra["phase_participants"] = participants_mask
            extra["prev_senders"] = participants_mask
            batch.messages[t] += int(network.degrees[participants].sum())
        else:
            # Announcement round (2k): undecided neighbours of joiners
            # commit False and everyone decided retires.  A joiner crashed
            # at this round never announces; delivery masks silence the
            # dropped directions.
            announcer = extra["phase_joined"] & alive
            # Senders this round: the phase's participants (joiners and
            # all) that are still alive — they all broadcast the flag.
            senders = extra["phase_participants"] & alive
            heard = np.zeros(network.n, dtype=bool)
            heard[vs[announcer[us] & faults.deliver_uv]] = True
            heard[us[announcer[vs] & faults.deliver_vu]] = True
            stale = self._visible_stale(
                faults, network, extra["prev_senders"], senders
            )
            if stale is not None:
                # A stale priority tuple is truthy in the flag inbox, so
                # its receiver "hears a joiner" whether or not one is
                # adjacent — the coroutine's spurious-False-commit path.
                stale_uv, stale_vu = stale
                heard[vs[stale_uv]] = True
                heard[us[stale_vu]] = True
            removed = undecided & alive & heard
            node_rounds[removed] = round_index
            # node_values stays False in removed slots.
            undecided &= ~removed
            np.logical_not(undecided, out=batch.halted[t])
            extra["prev_senders"] = senders
            batch.messages[t] += int(network.degrees[senders].sum())
