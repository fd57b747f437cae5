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

from typing import List, Optional, Sequence, Tuple

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


def _delivery(faults: Optional[RoundFaults]) -> Tuple[Optional[np.ndarray], ...]:
    """The round's delivery masks, or ``(None, None)`` when it has no
    message faults: a message is then lost only at a dead endpoint, and a
    kernel already keeps dead senders silent and dead receivers out."""
    if faults is None or faults.fates is None:
        return None, None
    return faults.deliver_uv, faults.deliver_vu


def _luby_local_maxima(
    values: np.ndarray,
    bidders: np.ndarray,
    identifiers: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    deliver_uv: Optional[np.ndarray] = None,
    deliver_vu: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Each vertex's best received value, and the bidders that beat it.

    ``values`` holds one float per vertex: what it sends this round, or the
    neutral element −1.0 if it is silent (decided, crashed, not bidding).
    ``best`` is the maximum over the values sent along the considered edges
    ``us`` / ``vs`` into each vertex, −1.0 where nothing arrives, from two
    gathers and two ``np.maximum.at``.  ``deliver_uv`` / ``deliver_vu``
    (per considered edge) turn undelivered directions into −1.0; they are
    needed only when messages can be dropped or delayed, since a dead
    sender already holds −1.0 and a dead receiver is no bidder.  Any edge
    subset holding every edge at a bidder gives the same answer for the
    bidders (the self-stabilising MIS passes only its live edges).

    ``joins`` marks the ``bidders`` whose value beats every value they
    received — the coroutine's rule, where a dropped or crashed neighbour is
    as silent as a decided one (a bidder whose whole inbox was lost joins
    unconditionally).  Comparisons are lexicographic on ``(value,
    identifier)``, the coroutine twin's tuple comparison: the identifier
    only matters on exact float ties, which a continuous draw hits with
    probability zero but a test can force, so it is computed only when a
    tie exists.
    """
    best = np.full(values.size, -1.0)
    received = []
    for src, dst, deliver in ((us, vs, deliver_uv), (vs, us, deliver_vu)):
        sent = values[src]
        if deliver is not None:
            sent[~deliver] = -1.0
        np.maximum.at(best, dst, sent)
        received.append(sent)
    joins = bidders & (values > best)
    ties = bidders & (values == best)
    if ties.any():
        best_id = np.full(values.size, -1, dtype=np.int64)
        for src, dst, sent in zip((us, vs), (vs, us), received):
            tie = np.flatnonzero(ties[dst] & (sent == values[dst]))
            np.maximum.at(best_id, dst[tie], identifiers[src[tie]])
        joins |= ties & (identifiers > best_id)
    return best, joins


# Flat batch indices are always int64: numpy's advanced-indexing fast path
# only fires for intp index arrays, and int32 gathers measure ~3× slower.

#: Edge slots one block of the first phase covers at least.  A block is a
#: run of consecutive trial rows, so it is one row once ``m ≥ 2¹⁶``.
_BLOCK_SLOTS = 2**16


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

    The fault-free kernel works on live edges only.  In phase 1 every edge
    is live, so rounds 1 and 2 run over the network's endpoint arrays, in
    blocks of consecutive trial rows; round 2 then compacts the edges still
    live (both endpoints undecided) into a flat worklist sized to them, and
    later phases run over that worklist, re-compacted every announcement
    round.  Its scratch therefore follows the live edges, not ``T · m``.

    Fault mode (``faults`` is a :class:`~repro.local.faults.RoundFaults`)
    runs a per-row kernel, once per active trial, on row views of the batch
    arrays; the fault-free worklist kernel never sees a fault.  Only alive
    undecided nodes participate — each row's priority block is drawn from
    its own generator over them in ascending vertex order — and every other
    vertex holds the neutral −1.0, so a priority round has the fault-free
    kernel's shape: two gathers and two ``np.maximum.at`` over the edges
    (:func:`_luby_local_maxima`).  A priority / announcement only counts at
    its receiver if the schedule delivered that direction; the delivery
    masks are read only under message faults (``faults.fates`` set), since
    in a crash-only round a dead sender is silent and a dead receiver takes
    no part.  A crashed or silenced neighbour looks exactly like a decided
    one, as in the coroutine.  A joiner that crashes at the announcement
    round never announces, so its neighbours stay undecided.  Message
    counts charge the degrees of the alive senders of each round — the
    coroutine count exactly, drops included (drops lose deliveries, not
    sends).

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

        The ``(T, n)`` state, plus the first phase's block scratch: the
        endpoint slots ``r·n + u`` / ``r·n + v`` of one block of ``rows``
        consecutive trial rows, which every block reuses (the last one a
        prefix), and one 8-byte spare slot per block entry.  The slots are
        writable copies because ``np.take`` copies a read-only index array
        before every gather.  Nothing here is ``T · m``: the later phases'
        worklist is allocated at round 2, sized to the edges still live.
        Kept for the whole chunk, since every multi-megabyte temporary would
        otherwise be mapped, faulted and zeroed afresh on every round.  The
        arrays hold whatever an earlier chunk left: the block slots are
        written here, :meth:`init_batch` writes ``undecided`` and
        ``priorities``, and every round writes the rest before reading it.
        """
        n, m = network.n, network.m
        rows = min(trials, -(-_BLOCK_SLOTS // max(m, 1)))
        block_u, block_v, spare, best, near, joins, ties, priorities, undecided = (
            arena.carve(
                *[(rows * m, np.int64)] * 3,
                (trials * n, np.float64),
                (trials * n, bool),
                ((trials, n), bool),
                ((trials, n), bool),
                ((trials, n), np.float64),
                ((trials, n), bool),
            )
        )
        us, vs = network.edge_endpoints()
        base = (np.arange(rows, dtype=np.int64) * n)[:, None]
        np.add(base, us, out=block_u.reshape(rows, m))
        np.add(base, vs, out=block_v.reshape(rows, m))
        return {
            "rows": rows,
            "block": (block_u, block_v),
            "spare": spare,
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
        # lets the kernel skip explicit liveness masks.
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

    @staticmethod
    def _segments(
        round_index: int, batch: BatchState, n: int, m: int
    ) -> Tuple[List[Tuple[int, int, np.ndarray, np.ndarray]], np.ndarray]:
        """The round's live edges as ``(lo, hi, fu, fv)`` segments, and a
        spare buffer with 8 bytes per entry of the longest segment.

        ``fu`` / ``fv`` index the flat node slots ``lo … hi−1``: trial rows
        ``lo / n … hi / n − 1`` of every ``(T, n)`` array, raveled.  In
        phase 1 (rounds 1 and 2) every edge is live, and the segments are
        the row blocks over the network's edge arrays; later, one segment
        holds the whole worklist, and the spare is its idle buffer.
        """
        extra = batch.extra
        scratch = extra["scratch"]
        if round_index > 2:
            spare = scratch["wl"][extra["idle"]][0]
            return [(0, batch.trials * n, extra["wl_fu"], extra["wl_fv"])], spare
        rows = scratch["rows"]
        block_u, block_v = scratch["block"]
        segments = []
        for start in range(0, batch.trials, rows):
            stop = min(start + rows, batch.trials)
            size = (stop - start) * m
            segments.append((start * n, stop * n, block_u[:size], block_v[:size]))
        return segments, scratch["spare"]

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
        degrees = network.degrees
        segments, spare = self._segments(round_index, batch, n, network.m)
        # The spare slots serve as float64 gather targets, as bool masks
        # (up to eight per slot) and as int64 index scratch, one use at a
        # time.
        flags = spare.view(bool)
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
            # Scatter-max over the live edges: every entry carries two fresh
            # draws, so no liveness pass is needed; a full reset of the
            # scratch block is a streaming fill, far cheaper than tracking
            # stale slots.
            best = scratch["best"]
            best.fill(-1.0)
            gathered = spare.view(np.float64)
            for lo, hi, fu, fv in segments:
                pri, best_rows = pri_flat[lo:hi], best[lo:hi]
                out = gathered[: fu.size]
                np.maximum.at(best_rows, fu, np.take(pri, fv, out=out, mode="clip"))
                np.maximum.at(best_rows, fv, np.take(pri, fu, out=out, mode="clip"))
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
                for lo, hi, fu, fv in segments:
                    pri = pri_flat[lo:hi]
                    tie = pri[fu] == pri[fv]
                    tfu, tfv = fu[tie], fv[tie]
                    np.maximum.at(best_id[lo:hi], tfu, ids[tfv % n])
                    np.maximum.at(best_id[lo:hi], tfv, ids[tfu % n])
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
            # The segments still hold the phase's live edges (a joiner was
            # undecided at phase start), so joiner neighbourhoods are two
            # gathers plus two scatter-ORs; an edge to an already-decided
            # neighbour is absent but irrelevant (removal is gated on
            # ``undecided``).
            joined_flat = extra["phase_joined"].ravel()
            near = scratch["near"]
            near.fill(False)
            # Joiner-adjacency scatter via gather-then-assign (the spare
            # slots hold the gathered flags, then the neighbour slots to
            # mark) — `logical_or.at` computes the same thing an order of
            # magnitude slower.
            for lo, hi, fu, fv in segments:
                joined, near_rows = joined_flat[lo:hi], near[lo:hi]
                for src, dst in ((fu, fv), (fv, fu)):
                    pos = np.flatnonzero(
                        np.take(joined, src, out=flags[: src.size], mode="clip")
                    )
                    near_rows[np.take(dst, pos, out=spare[: pos.size], mode="clip")] = True
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
            # Re-compact the live edges against the post-removal undecided
            # sets: entries that survive are exactly the next phase's live
            # edges, so the priority round runs gather-scatter only, with
            # no liveness bookkeeping of its own.  (Cheap here — two
            # byte-sized gathers — where the priority round would need
            # float passes.)
            keeps = []
            for lo, hi, fu, fv in segments:
                size = fu.size
                live = np.take(undec_flat[lo:hi], fu, out=flags[:size], mode="clip")
                live &= np.take(undec_flat[lo:hi], fv, out=flags[size : 2 * size], mode="clip")
                keeps.append(np.flatnonzero(live))
            kept = sum(keep.size for keep in keeps)
            if round_index == 2:
                # The first worklist: phase 1's survivors, trial-major with
                # ascending edge order inside each trial — exactly what
                # compacting a full T·m worklist would give.  One allocation,
                # sized to them, holds both buffer pairs.
                worklist = np.empty((4, kept), dtype=np.int64)
                scratch["wl"] = ((worklist[0], worklist[1]), (worklist[2], worklist[3]))
                extra["idle"] = 0
            elif kept == extra["wl_fu"].size:
                return
            # Output goes to the idle buffer pair, free once the spare's
            # masks are read into ``keeps``; the live set only shrinks, so
            # the buffers never overflow.
            out_u, out_v = scratch["wl"][extra["idle"]]
            start = 0
            for (lo, _, fu, fv), keep in zip(segments, keeps):
                stop = start + keep.size
                np.take(fu, keep, out=out_u[start:stop], mode="clip")
                np.take(fv, keep, out=out_v[start:stop], mode="clip")
                if lo:
                    out_u[start:stop] += lo
                    out_v[start:stop] += lo
                start = stop
            extra["wl_fu"], extra["wl_fv"] = out_u[:kept], out_v[:kept]
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
            _, joins = _luby_local_maxima(
                priorities,
                participants_mask,
                network.identifier_array,
                us,
                vs,
                *_delivery(faults),
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
            for src, dst, deliver in zip((us, vs), (vs, us), _delivery(faults)):
                sent = announcer[src]
                if deliver is not None:
                    sent &= deliver
                heard[dst[sent]] = True
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
