"""Randomized maximal matching with edge-averaged complexity O(1) (Theorem 4).

Each iteration works on the graph induced by the still-undecided edges:

1. endpoints exchange their current degrees (number of undecided incident
   edges) and identifiers;
2. the lower-identifier endpoint of each undecided edge ``e = {u, v}`` marks
   ``e`` with probability ``1 / (4 (d_u + d_v))`` and tells the other
   endpoint;
3. a marked edge with no other marked edge incident to either endpoint joins
   the matching; both its endpoints become matched and immediately commit all
   their other undecided edges as "not in the matching";
4. newly matched nodes announce themselves so their neighbours can commit the
   shared edges as "not in the matching" too, and retire.

Theorem 4 (and the classical Israeli–Itai analysis) shows each iteration
removes a constant fraction of the undecided edges in expectation: at least
half of the edges touch a "good" node (one with at least a third of its
neighbours of no larger degree), and each good node is matched with constant
probability.  Hence the edge-averaged complexity is O(1) while the worst case
is O(log n) w.h.p. — whereas the node-averaged complexity of maximal matching
is Ω(min{log Δ / log log Δ, √(log n / log log n)}) by Theorem 17.

Each iteration costs four communication rounds.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

import numpy as np

from repro.local.coroutine import CoroutineAlgorithm
from repro.local.engine import ArrayAlgorithm, BatchState, ScratchArena
from repro.local.faults import RoundFaults
from repro.local.network import Network
from repro.local.node import NodeRuntime

__all__ = ["RandomizedMaximalMatching", "RandomizedMatchingArray"]


class RandomizedMaximalMatching(CoroutineAlgorithm):
    """Theorem 4: Luby/Israeli–Itai style randomized maximal matching."""

    name = "randomized-maximal-matching"
    randomized = True
    uses_identifiers = True  # used to designate the marking endpoint of an edge

    def __init__(self, marking_factor: float = 4.0) -> None:
        """``marking_factor`` is the constant in the 1/(factor·(d_u+d_v)) marking rate."""
        if marking_factor <= 0:
            raise ValueError("marking_factor must be positive")
        self.marking_factor = marking_factor

    def run(self, node: NodeRuntime):
        undecided: Set[int] = set(node.neighbors)
        matched = False

        while undecided:
            # Round 1: exchange (degree in the undecided graph, identifier).
            my_degree = len(undecided)
            inbox = yield dict.fromkeys(undecided, (my_degree, node.identifier))
            info: Dict[int, tuple] = {u: p for u, p in inbox.items() if u in undecided}

            # Round 2: the smaller-identifier endpoint marks each edge.
            marks: Dict[int, bool] = {}
            outbox: Dict[int, object] = {}
            for u, (their_degree, their_id) in info.items():
                if node.identifier < their_id:
                    probability = 1.0 / (self.marking_factor * (my_degree + their_degree))
                    marks[u] = node.rng.random() < probability
                    outbox[u] = ("mark", marks[u])
                else:
                    outbox[u] = ("mark", None)
            inbox = yield outbox
            for u, (_, mark) in inbox.items():
                if u in info and mark is not None:
                    marks[u] = mark

            # Round 3: an isolated marked edge joins the matching.
            marked_count = sum(1 for flag in marks.values() if flag)
            outbox = {
                u: ("others", marked_count - (1 if marks.get(u) else 0)) for u in info
            }
            inbox = yield outbox
            partner = None
            for u, (_, their_other_marks) in inbox.items():
                if u not in info or not marks.get(u):
                    continue
                my_other_marks = marked_count - 1
                if my_other_marks == 0 and their_other_marks == 0:
                    partner = u
                    break
            if partner is not None:
                matched = True
                node.commit_edge(partner, True)
                undecided.discard(partner)
                for u in list(undecided):
                    node.commit_edge(u, False)

            # Round 4: matched nodes announce themselves and retire; everyone
            # else records the edges decided by a newly matched neighbour.
            inbox = yield dict.fromkeys(undecided, ("matched", matched))
            for u, (_, neighbor_matched) in inbox.items():
                if neighbor_matched and u in undecided:
                    node.commit_edge(u, False)
                    undecided.discard(u)
            if matched:
                return

    def as_array_algorithm(self) -> "RandomizedMatchingArray":
        return RandomizedMatchingArray(self.marking_factor)


class RandomizedMatchingArray(ArrayAlgorithm):
    """Array-engine twin of :class:`RandomizedMaximalMatching`.

    Iteration ``k`` spans rounds ``4k−3`` (undecided-degree exchange),
    ``4k−2`` (edge marking), ``4k−1`` (isolated marked edges join; matched
    nodes commit all their undecided edges) and ``4k`` (matched nodes
    announce and retire).  Round stamps follow the coroutine twin exactly:

    * a matched edge commits ``True`` at round ``4k−1``;
    * every other undecided edge incident to a matched node commits
      ``False`` at round ``4k−1`` (the matched endpoint's commit; the other
      endpoint's duplicate round-``4k`` commit never lowers the recorded
      minimum, so it is not re-recorded);
    * completion is therefore always reached at a round ``≡ 3 (mod 4)``
      (or round 0 on edgeless graphs), exactly as with the coroutine twin.

    Marking draws one uniform per still-undecided edge at round ``4k−2``,
    in canonical edge-slot order (the engine's documented seed schedule);
    the edge is marked with probability ``1 / (factor · (d_u + d_v))`` over
    the iteration-start undecided degrees — the coroutine rate exactly
    (there the lower-identifier endpoint draws; here the engine draws per
    edge — the same per-edge Bernoulli, one draw per undecided edge either
    way).  Only a draw below ``c / 2``, with ``c = 1 / factor``, can mark an
    edge: an undecided edge has ``d_u + d_v ≥ 2`` and rounding is monotone,
    so ``fl(c / (d_u + d_v)) ≤ fl(c / 2)``.  The fault-free kernel therefore
    computes the rate for those candidates only (about an eighth of the
    worklist at factor 4); the draws, the floats and the comparisons are
    the same as for a full-length rate, so the seed schedule is unchanged.

    Messages: rounds ``4k−3``/``4k−2``/``4k−1`` each send one message per
    direction of every undecided edge (``2·U_k``); round ``4k`` sends
    ``2·U_k − 2·M_k`` (the ``M_k`` matched partners dropped each other
    before announcing), matching the coroutine count round for round.

    Fault mode (``faults`` per round) runs a per-row kernel, once per
    active trial, on row views of the batch arrays, each row drawing from
    its own generator.  An edge participates in iteration ``k`` iff it is
    undecided, both endpoints are alive, and *both* directions of the
    degree exchange were delivered; per-node degrees stay the global
    undecided counts (each node reports its own undecided degree, which
    drops and crashes cannot change).  The mark block is
    drawn over the iteration's participating edges in canonical slot order;
    a mark is voided when the marker's notification direction (the
    lower-identifier endpoint tells the other) was dropped — unlike the
    coroutine, where one-sided mark knowledge can make the endpoints
    disagree and commit conflicting values (a legitimate structured failure
    under drops), the array model keeps mark knowledge symmetric, so its
    fault-mode executions always commit conflict-free.  A match requires
    both endpoints alive at the commit round with both ``others``-exchange
    directions delivered.  Commit rounds and completion (edges with a dead
    endpoint are excused by the engine) follow the coroutine timeline;
    fault-mode *message* counts are engine-native approximations
    (``2·|participating edges|`` per round) and not part of the cross-engine
    parity contract — outputs, rounds and fault events are.

    Delay mode: the matching's payloads carry no cross-round meaning (a
    stale degree or mark from the previous round is filtered by the
    coroutine's ``u in undecided`` / ``u in info`` guards or superseded by
    the fresh exchange), so the array twin treats a delayed direction
    simply as *not delivered this round* — ``deliver_uv`` / ``deliver_vu``
    already exclude delayed fates, and the edge sits out the iteration.
    This is an engine-native approximation, like the message counts: under
    delays the coroutine's surviving one-sided payloads can still commit
    conflicting edge values (a structured failure), which the symmetric
    array model never reproduces; outputs agree with the coroutine under
    crash+drop schedules, and fault events agree under all schedules.
    """

    name = "randomized-maximal-matching"
    supports_faults = True

    @staticmethod
    def _batch_scratch(
        network: Network, trials: int, arena: ScratchArena
    ) -> dict:
        """The fault-free kernel's scratch, carved from the engine's arena.

        Sized for ``trials · m`` and kept for the whole chunk: the worklist
        double buffers and the mask scratch are multi-MB and would
        otherwise be mapped, faulted and zeroed afresh every iteration.
        The marking round draws into the idle worklist buffer, viewed as
        float64, since it reads every draw before the commit round compacts
        into that buffer.  The arrays hold whatever an earlier chunk left:
        :meth:`init_batch` writes worklist buffer 0, ``nodes``, ``mcount``
        and ``deg``, the endpoint-slot tables are written here, and every
        round writes the rest before reading it.
        """
        n, m = network.n, network.m
        flat = trials * m
        # Flat indices are always int64: numpy's advanced-indexing fast
        # path only fires for intp index arrays, and int32 gathers measure
        # ~3× slower.
        wl0, wl1, mask, rem, nodes, mcount, deg, *slots = arena.carve(
            (flat, np.int64),
            (flat, np.int64),
            (flat, bool),
            (flat, bool),
            (trials * n, bool),
            (trials * n, np.int64),
            (trials * n, np.int64),
            *[((trials, m), np.int64)] * (2 if trials > 1 else 0),
        )
        if slots:
            # Recomputed for every chunk: the tables depend on the network.
            us, vs = network.edge_endpoints()
            base = (np.arange(trials, dtype=np.int64) * n)[:, None]
            np.add(base, us, out=slots[0])
            np.add(base, vs, out=slots[1])
            slot_u, slot_v = slots[0].ravel(), slots[1].ravel()
        else:
            # A lone trial's endpoint slots are the network's own
            # endpoint arrays: nothing is copied.
            slot_u, slot_v = network.edge_endpoints()
        return {
            # Endpoint slots (t·n+u, t·n+v) of flat edge slot t·m+e.
            "slots": (slot_u, slot_v),
            "wl": (wl0, wl1),
            "mask": mask,
            "rem": rem,
            # `nodes` and `mcount` carry an all-False / all-zero invariant
            # between rounds: users reset exactly the entries they touched,
            # so tail iterations with a handful of live edges never pay an
            # O(trials·n) fill.
            "nodes": nodes,
            "mcount": mcount,
            "deg": deg,
        }

    def __init__(self, marking_factor: float = 4.0) -> None:
        if marking_factor <= 0:
            raise ValueError("marking_factor must be positive")
        self.marking_factor = marking_factor

    def init_batch(
        self,
        network: Network,
        rngs: Sequence[np.random.Generator],
        scratch: ScratchArena,
    ) -> BatchState:
        trials = len(rngs)
        batch = BatchState(trials, network.n, network.m, nodes=False, edges=True)
        buffers = self._batch_scratch(network, trials, scratch)
        extra = batch.extra
        # The worklist holds every still-undecided (trial, edge) as its
        # flat edge slot t·m+e (the endpoint slots are looked up in
        # `slots`), trial-major with ascending edge slots inside each
        # trial's segment.  Compaction preserves that order, so each
        # trial's marking block stays in canonical slot order and the
        # per-trial RNG streams match a lone trial's bit for bit.  The
        # first worklist, 0 … T·m−1, is written in place into buffer 0:
        # an `arange` would allocate a second T·m block beside the scratch.
        wl = buffers["wl"][0]
        wl.fill(1)
        wl[:1] = 0
        np.cumsum(wl, out=wl)
        extra["wl"] = wl
        extra["idle"] = 1
        extra["counts"] = np.full(trials, network.m, dtype=np.int64)
        # Per-node undecided degrees, maintained incrementally: committed
        # edges decrement both endpoints at the commit round, so the
        # degree-exchange round reads them for free.
        buffers["deg"].reshape(trials, network.n)[:] = network.degrees
        buffers["nodes"].fill(False)
        buffers["mcount"].fill(0)
        extra["scratch"] = buffers
        # Per-row iteration state of the fault-mode kernel.
        extra["fault_rows"] = [{} for _ in range(trials)]
        return batch

    def batch_complete(self, batch: BatchState) -> np.ndarray:
        # A trial is complete exactly when every edge committed, i.e. its
        # undecided count hit zero — O(trials), vs. the engine's generic
        # (trials, m) reduction.
        return batch.extra["counts"] == 0

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
        trials = batch.trials
        counts = extra["counts"]
        wl = extra["wl"]
        length = wl.size
        slot_u, slot_v = scratch["slots"]
        phase = round_index % 4
        if phase == 1:
            # Degree exchange (4k−3): the worklist already equals the
            # undecided edge set and the per-node undecided degrees are
            # maintained incrementally at the commit rounds, so the
            # snapshot is just a copy of the per-trial live counts
            # (mutated at phase 3).
            extra["iter_count"] = counts.copy()
            batch.messages[active] += 2 * counts[active]
        elif phase == 2:
            # Marking (4k−2): each active trial draws one contiguous
            # uniform block over its worklist segment — a lone trial's
            # schedule exactly; inactive trials consume nothing.  The draws
            # go to the idle worklist buffer, viewed as float64: every one
            # is read below, before phase 3 compacts into that buffer.
            draws = scratch["wl"][extra["idle"]][:length].view(np.float64)
            offsets = np.zeros(trials + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            for t in np.flatnonzero(active):
                size = int(counts[t])
                if size:
                    rngs[t].random(out=draws[offsets[t] : offsets[t] + size])
            # Only a draw below c/2 can mark (see the class docstring), so
            # the snapshot-degree rate is computed for those candidates
            # only: the same floats and comparisons as a full-length rate.
            rate_scale = 1.0 / self.marking_factor
            cand = np.flatnonzero(
                np.less(draws, rate_scale / 2, out=scratch["mask"][:length])
            )
            cand_fe = wl[cand]
            deg = scratch["deg"]
            rate = np.divide(rate_scale, deg[slot_u[cand_fe]] + deg[slot_v[cand_fe]])
            # Worklist positions of the marked edges, ascending.
            extra["marked"] = np.take(cand, np.flatnonzero(draws[cand] < rate))
            extra["offsets"] = offsets
            batch.messages[active] += 2 * extra["iter_count"][active]
        elif phase == 3:
            # Matching commits (4k−1): isolated marked edges join; their
            # endpoints commit every live incident edge.  Everything runs
            # over the compacted worklist, so per-round cost tracks the
            # live edge sets, never (T, m).
            midx = extra["marked"]
            mk_fe = wl[midx]
            mk_fu = slot_u[mk_fe]
            mk_fv = slot_v[mk_fe]
            mcount = scratch["mcount"]
            np.add.at(mcount, mk_fu, 1)
            np.add.at(mcount, mk_fv, 1)
            isolated = (mcount[mk_fu] == 1) & (mcount[mk_fv] == 1)
            mcount[mk_fu] = 0
            mcount[mk_fv] = 0
            mt_fe = mk_fe[isolated]
            mt_fu = mk_fu[isolated]
            mt_fv = mk_fv[isolated]
            nodes = scratch["nodes"]
            nodes[mt_fu] = True
            nodes[mt_fv] = True
            # The idle worklist buffer holds the endpoint slots while they
            # are tested; the compaction below overwrites it afterwards.
            idle = scratch["wl"][extra["idle"]]
            end_slots = np.take(slot_u, wl, out=idle[:length], mode="clip")
            rem = np.take(nodes, end_slots, out=scratch["rem"][:length], mode="clip")
            np.take(slot_v, wl, out=end_slots, mode="clip")
            rem |= np.take(nodes, end_slots, out=scratch["mask"][:length], mode="clip")
            nodes[mt_fu] = False
            nodes[mt_fv] = False
            # Per-trial counts from ascending worklist positions: trial t
            # owns positions [offsets[t], offsets[t+1]).
            offsets = extra["offsets"]
            extra["iter_matched"] = np.diff(np.searchsorted(midx[isolated], offsets))
            batch.messages[active] += 2 * extra["iter_count"][active]
            rm_fe = np.take(wl, np.flatnonzero(rem))
            if rm_fe.size:
                batch.edge_rounds.reshape(-1)[rm_fe] = round_index
                batch.edge_values.reshape(-1)[mt_fe] = True
                deg = scratch["deg"]
                np.subtract.at(deg, slot_u[rm_fe], 1)
                np.subtract.at(deg, slot_v[rm_fe], 1)
                # Compact the worklist down to the surviving undecided
                # edges (keep = ¬removed) into the idle buffer.
                keep = np.flatnonzero(np.logical_not(rem, out=rem))
                counts[:] = np.diff(np.searchsorted(keep, offsets))
                extra["wl"] = np.take(wl, keep, out=idle[: keep.size], mode="clip")
                extra["idle"] ^= 1
        else:
            # Announcement (4k): no first-time commits.  A trial that
            # completed at round 4k−1 is done before this round, so its
            # messages stay untouched.
            batch.messages[active] += (
                2 * extra["iter_count"][active] - 2 * extra["iter_matched"][active]
            )

    def _step_faulted(
        self,
        round_index: int,
        batch: BatchState,
        t: int,
        network: Network,
        rng: np.random.Generator,
        faults: RoundFaults,
    ) -> None:
        """Round ``round_index`` of trial row ``t`` under ``faults``.

        A chunk runs faulted or fault-free for its whole run, so the
        per-row undecided edge masks are built here, on first use: the
        fault-free kernel tracks undecided edges by its worklist alone.
        """
        if "undecided" not in batch.extra:
            batch.extra["undecided"] = np.ones((batch.trials, network.m), dtype=bool)
        extra = batch.extra["fault_rows"][t]
        undecided = batch.extra["undecided"][t]
        us, vs = network.edge_endpoints()
        alive = faults.alive
        phase = round_index % 4
        if phase == 1:
            # Degree exchange (4k−3): snapshot the iteration's undecided
            # edge set and per-node undecided degrees.  Participation needs
            # both exchange directions through; messages are still charged
            # per alive sender and undecided incident edge (sends happen
            # whether or not they arrive).
            every = np.flatnonzero(undecided)
            live = np.flatnonzero(undecided & faults.deliver_uv & faults.deliver_vu)
            batch.messages[t] += int(alive[us[every]].sum() + alive[vs[every]].sum())
            # Degrees over *all* undecided edges: each node reports its own
            # undecided degree, which message faults cannot alter.
            extra["iter_edges"] = live
            extra["iter_degrees"] = np.bincount(
                us[every], minlength=network.n
            ) + np.bincount(vs[every], minlength=network.n)
        elif phase == 2:
            # Marking (4k−2): one uniform per participating edge, edge-slot
            # order — the documented seed schedule.
            live = extra["iter_edges"]
            degrees = extra["iter_degrees"]
            rate = 1.0 / (
                self.marking_factor * (degrees[us[live]] + degrees[vs[live]])
            )
            marked = rng.random(live.size) < rate
            marked &= alive[us[live]] & alive[vs[live]]
            # Void marks whose marker → other notification was dropped
            # (marker = lower-identifier endpoint), keeping mark knowledge
            # symmetric.
            ids = network.identifier_array
            marker_is_u = ids[us[live]] < ids[vs[live]]
            notified = np.where(
                marker_is_u, faults.deliver_uv[live], faults.deliver_vu[live]
            )
            extra["marked"] = marked & notified
            batch.messages[t] += 2 * live.size
        elif phase == 3:
            # Matching commits (4k−1): a marked edge with no other marked
            # edge at either endpoint joins; its endpoints commit every
            # undecided incident edge.
            live = extra["iter_edges"]
            marked = live[extra["marked"] & alive[us[live]] & alive[vs[live]]]
            mark_count = np.bincount(us[marked], minlength=network.n) + np.bincount(
                vs[marked], minlength=network.n
            )
            isolated = (mark_count[us[marked]] == 1) & (mark_count[vs[marked]] == 1)
            # The mutual "no other marks" confirmation needs both
            # directions delivered this round.
            isolated &= faults.deliver_uv[marked] & faults.deliver_vu[marked]
            matched = marked[isolated]
            matched_node = np.zeros(network.n, dtype=bool)
            matched_node[us[matched]] = True
            matched_node[vs[matched]] = True
            # A matched node commits *all* its undecided edges, not just the
            # iteration's participating ones (edges to crashed or silenced
            # neighbours included) — coroutine semantics.
            removed = np.flatnonzero(undecided & (matched_node[us] | matched_node[vs]))
            batch.edge_rounds[t][removed] = round_index
            batch.edge_values[t][matched] = True
            undecided[removed] = False
            extra["iter_matched"] = int(matched.size)
            batch.messages[t] += 2 * live.size
        else:
            # Announcement (4k): matched nodes tell their remaining
            # neighbours and retire; no first-time commits happen here.
            batch.messages[t] += 2 * extra["iter_edges"].size - 2 * extra["iter_matched"]
