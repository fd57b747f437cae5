"""Self-stabilising variants of Luby MIS and randomized matching.

The plain algorithms of :mod:`repro.algorithms.mis` /
:mod:`repro.algorithms.matching` treat crash-stop faults as *graceful
degradation*: survivors finish, crashed nodes are excused, and the surviving
configuration is scored leniently (a crashed-but-committed MIS member still
covers its neighbours).  The algorithms here go one step further — they
**recover**: when a neighbour crashes, affected survivors revoke their
outputs (:meth:`~repro.local.node.NodeRuntime.revoke` /
:meth:`~repro.local.node.NodeRuntime.revoke_edge`) and locally re-run the
protocol until the configuration is valid *for the survivors alone*.  The
engines record the per-round :class:`~repro.core.metrics.RecoveryTimeline`
(pending outputs and strict induced-subnetwork validity), from which
:func:`repro.core.metrics.measure` derives time-to-restabilise statistics.

Both algorithms are **perpetual** protocols: decided nodes keep participating
(an MIS member beacons its membership forever; a matched node announces its
match forever), because those standing signals are exactly what lets a
neighbour detect, after a crash, whether its own decision is still
justified.  Only nodes that can never interact again halt (isolated nodes).

Self-stabilisation guarantees hold under **crash faults** (any schedule of
crash-stop failures): after the last crash, the configuration re-converges
to a valid solution on the induced survivor subgraph with probability 1.
Under message drops the protocols remain safe in the sense that every run
is validator-checked, but simultaneous adjacent decisions can no longer be
excluded (two mutual bids can both be dropped) — recovery claims are made
for crash schedules only.

Protocol sketches:

* :class:`SelfStabilizingLubyMIS` — one-round bid/beacon Luby.  Undecided
  nodes broadcast a fresh random bid each round; MIS members broadcast an
  ``("in",)`` beacon.  A node hearing a beacon leaves (commits ``False``);
  a node whose bid beats every bid it received joins (commits ``True``).
  ``out`` nodes track their live dominators (the in-neighbours heard last
  round); when the last dominator crashes, the runner's
  ``neighbor_crashed`` hook makes them revoke and rebid.  The array twin
  implements the same rule from the round view's ``newly_crashed``:
  after a crash, every live ``out`` node without a live in-neighbour is
  reset to undecided (``node_rounds`` back to ``-1``).  Once every alive
  node has decided, a round is *quiescent*: members beacon and nothing
  else can happen until the next crash, so the twin only charges the
  beacon messages (and draws no bids).  A busy round works on its *live
  edges* only — those with an undecided endpoint, the only edges whose
  beacons or bids can decide anything.
* :class:`SelfStabilizingMatching` — parity-phased propose/accept.  Free
  nodes coin-flip into proposer/listener roles on odd rounds; listeners
  accept one live proposal on even rounds, and both endpoints commit the
  matched edge ``True`` plus their other incident edges ``False``.  Only
  matched nodes ever commit edges — announcement receivers do not — so a
  widow (a node whose partner crashed) can revoke *its own* commits and
  re-enter the free pool without colliding with standing counterpart
  commits.  Matched nodes broadcast ``("matched",)`` every round; free
  nodes rebuild a ``taken`` estimate of unavailable neighbours from each
  round's announcements (a widow stops announcing, so it reappears as a
  candidate one round after revoking).  This one ships in coroutine form
  only
  (:meth:`SelfStabilizingMatching.as_array_algorithm` returns ``None``):
  revocation makes the per-edge bookkeeping inherently sequential per
  node, and the MIS twin already exercises the array-engine recovery path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.local.algorithm import Broadcast, NodeAlgorithm
from repro.local.engine import ArrayAlgorithm, BatchState, ScratchArena
from repro.local.faults import RoundFaults
from repro.local.network import Network
from repro.local.node import NodeRuntime

__all__ = [
    "SelfStabilizingLubyMIS",
    "SelfStabilizingLubyMISArray",
    "SelfStabilizingMatching",
]

#: Node statuses of the self-stabilising MIS (ints, shared by both forms).
_UNDECIDED, _IN, _OUT = 0, 1, 2


class SelfStabilizingLubyMIS(NodeAlgorithm):
    """Restart-on-crash Luby MIS (one-round bid/beacon protocol).

    Every round, every undecided node broadcasts a fresh ``(uniform, id)``
    bid and every MIS member broadcasts an ``("in",)`` beacon.  On receive,
    an undecided node that heard a beacon commits ``False`` (a neighbour is
    in); otherwise it commits ``True`` iff its own bid beats every bid it
    received (ties broken by identifier, as in plain Luby).  Members never
    revoke — under crash faults no two adjacent nodes can join in the same
    round (both directions of the shared edge are delivered, so exactly one
    bid wins), and a member's validity cannot be broken by a neighbour
    crashing.

    Recovery: ``out`` nodes remember the in-neighbours they heard last
    round (their *dominators* — refreshed every round, since beacons are
    perpetual).  The runner's ``neighbor_crashed`` hook removes the
    casualty; when no dominator remains, the node revokes its ``False`` and
    rebids.  If another member is adjacent its beacon re-covers the node
    one round later; otherwise the node competes to join.
    """

    name = "selfstab-luby-mis"
    randomized = True
    uses_identifiers = True  # bid tie-breaking only
    self_stabilizing = True

    def init(self, node: NodeRuntime) -> None:
        node.state["status"] = _UNDECIDED
        node.state["dominators"] = set()
        if node.degree == 0:
            node.state["status"] = _IN
            node.commit(True)
            node.halt()

    def send(self, node: NodeRuntime) -> Any:
        status = node.state["status"]
        if status == _IN:
            return Broadcast(("in",))
        if status == _UNDECIDED:
            bid = (node.rng.random(), node.identifier)
            node.state["bid"] = bid
            return Broadcast(("bid", bid))
        return {}

    def receive(self, node: NodeRuntime, messages: Dict[int, Any]) -> None:
        status = node.state["status"]
        if status == _IN:
            return
        dominators = {src for src, msg in messages.items() if msg[0] == "in"}
        if status == _OUT:
            # Refresh the dominator view; membership never changes here
            # (only the crash hook can clear the last dominator).
            node.state["dominators"] = dominators
            return
        if dominators:
            node.state["status"] = _OUT
            node.state["dominators"] = dominators
            node.commit(False)
            return
        bid = node.state["bid"]
        rivals = [msg[1] for msg in messages.values() if msg[0] == "bid"]
        if not rivals or bid > max(rivals):
            node.state["status"] = _IN
            node.commit(True)

    def neighbor_crashed(self, node: NodeRuntime, neighbor: int) -> None:
        state = node.state
        if state["status"] != _OUT:
            return
        dominators = state["dominators"]
        dominators.discard(neighbor)
        if not dominators:
            # The last member covering this node died: the standing False
            # is no longer justified on the survivor subgraph.  Revoke and
            # rebid — a surviving member one hop away re-covers the node
            # with its next beacon.
            state["status"] = _UNDECIDED
            node.revoke()

    def as_array_algorithm(self) -> "SelfStabilizingLubyMISArray":
        return SelfStabilizingLubyMISArray()


class SelfStabilizingLubyMISArray(ArrayAlgorithm):
    """Array-engine twin of :class:`SelfStabilizingLubyMIS`.

    Same bid/beacon protocol, vectorised: one uniform block per round over
    the alive undecided nodes (ascending vertex order — the engine's
    documented seed schedule), beacons folded over the delivered directions,
    and joins computed with plain Luby's masked local-maximum kernel.  The
    RNG schedule differs from the coroutine form (block PCG64 vs per-node
    Mersenne), so the two forms produce different — but both validator-
    checked — traces, like every other engine twin in this repository.

    Recovery needs no engine callback: on rounds with fresh casualties the
    step resets every live ``out`` node without a live in-neighbour to
    undecided (``node_rounds`` slot back to ``-1``, which re-pends it for
    the engine's completion check) — exactly the coroutine's
    last-dominator-died rule, since dominator sets refresh from the
    perpetual beacons every round.

    Cost, per trial row (each active row runs the kernel on its own row
    views, drawing from its own generator).  After the orphan reset, a
    round with no alive undecided node is quiescent for that row: it adds
    the members' beacon messages and returns, without touching the edges
    and without a bid block (``rng.random(0)`` would leave the PCG64
    stream untouched, so the seed schedule is the same).  A busy round
    makes one pass over the edge slots to select the edges with an
    undecided endpoint; beacons heard and bid maxima are computed on that
    subset alone, which holds every edge that can affect an undecided
    node.  The kernel is deliberately not flattened over the trial axis:
    its index temporaries would then be ``T · m``-sized.
    """

    name = "selfstab-luby-mis"
    labels_nodes = True
    supports_faults = True
    self_stabilizing = True

    def init_batch(
        self,
        network: Network,
        rngs: Sequence[np.random.Generator],
        scratch: ScratchArena,
    ) -> BatchState:
        # The per-row kernel carves nothing from the engine's arena.
        trials = len(rngs)
        batch = BatchState(trials, network.n, network.m, nodes=True, edges=False)
        status = np.full((trials, network.n), _UNDECIDED, dtype=np.int8)
        isolated = network.degrees == 0
        if isolated.any():
            status[:, isolated] = _IN
            batch.node_rounds[:, isolated] = 0
            batch.node_values[:, isolated] = True
            batch.halted[:, isolated] = True
        batch.extra["status"] = status
        return batch

    def batch_complete(self, batch: BatchState) -> Optional[np.ndarray]:
        # Revocations re-pend committed nodes, so no monotone per-trial
        # counter exists; the engine's reduction decides.
        return None

    def step_batch(
        self,
        round_index: int,
        batch: BatchState,
        network: Network,
        rngs: Sequence[np.random.Generator],
        active: np.ndarray,
        faults: Optional[RoundFaults] = None,
    ) -> None:
        for t in np.flatnonzero(active).tolist():
            self._step_row(round_index, batch, t, network, rngs[t], faults)

    def _step_row(
        self,
        round_index: int,
        batch: BatchState,
        t: int,
        network: Network,
        rng: np.random.Generator,
        faults: Optional[RoundFaults],
    ) -> None:
        """Round ``round_index`` of trial row ``t``."""
        status = batch.extra["status"][t]
        node_rounds, node_values = batch.node_rounds[t], batch.node_values[t]
        n = network.n
        us, vs = network.edge_endpoints()
        if faults is None:
            alive = np.ones(n, dtype=bool)
            deliver_uv = deliver_vu = np.ones(network.m, dtype=bool)
        else:
            alive = faults.alive
            deliver_uv, deliver_vu = faults.deliver_uv, faults.deliver_vu
            if faults.newly_crashed:
                members = (status == _IN) & alive
                covered = np.zeros(n, dtype=bool)
                covered[vs[members[us]]] = True
                covered[us[members[vs]]] = True
                orphaned = (status == _OUT) & alive & ~covered
                if orphaned.any():
                    status[orphaned] = _UNDECIDED
                    node_rounds[orphaned] = -1
                    node_values[orphaned] = False

        undecided = (status == _UNDECIDED) & alive
        members = (status == _IN) & alive
        beacons = int(network.degrees[members].sum())
        bidders = np.flatnonzero(undecided)
        if not bidders.size:
            # Quiescent round: members beacon and nothing else happens.  No
            # bid block either — rng.random(0) would not move the stream.
            batch.messages[t] += beacons
            return
        bids = np.full(n, -1.0)
        bids[bidders] = rng.random(bidders.size)

        # Beacons and rival bids only matter at undecided nodes: one pass
        # selects the live edges (an undecided endpoint), and the rest of
        # the round works on that subset.
        live = np.flatnonzero(undecided[us] | undecided[vs])
        us, vs = us[live], vs[live]
        deliver_uv, deliver_vu = deliver_uv[live], deliver_vu[live]
        heard = np.zeros(n, dtype=bool)
        heard[vs[members[us] & deliver_uv]] = True
        heard[us[members[vs] & deliver_vu]] = True

        # Local bid maxima over the delivered undecided neighbourhood —
        # plain Luby's masked kernel, imported lazily to avoid a cycle at
        # package import time.
        from repro.algorithms.mis.luby import _luby_joins_masked

        joins = (
            _luby_joins_masked(
                bids, undecided, network.identifier_array, us, vs, deliver_uv, deliver_vu
            )
            & ~heard
        )
        newly_out = undecided & heard
        if joins.any():
            status[joins] = _IN
            node_rounds[joins] = round_index
            node_values[joins] = True
        if newly_out.any():
            status[newly_out] = _OUT
            node_rounds[newly_out] = round_index
            node_values[newly_out] = False
        batch.messages[t] += int(network.degrees[bidders].sum()) + beacons


class SelfStabilizingMatching(NodeAlgorithm):
    """Restart-on-crash randomized matching (parity-phased propose/accept).

    Rounds alternate between **propose** (odd) and **accept** (even):

    * Propose round: every free node flips a fair coin; proposers send
      ``("propose",)`` to one uniformly random neighbour believed free
      (not crashed, not ``taken``); listeners stay silent and store the
      proposals they receive.
    * Accept round: a listener holding proposals picks one whose proposer
      is still alive, answers ``("accept",)``, and both endpoints commit —
      the matched edge ``True``, every other incident edge ``False`` —
      during the accept round's receive phase (same round stamp on both
      sides).  Two proposers that proposed to each other simply waste the
      iteration.

    Matched nodes broadcast ``("matched",)`` every round, forever; every
    node rebuilds a ``taken`` view of unavailable neighbours from each
    round's announcements (a widow stops announcing the moment it revokes,
    so it re-enters its neighbours' candidate pools one round later).
    Crucially, **only matched nodes commit edges**:
    announcement receivers never commit the shared edge, so all standing
    ``False`` commits are backed by a live matching and can be revoked
    coherently.

    Recovery: the ``neighbor_crashed`` hook marks the casualty dead and,
    if it was this node's partner, revokes *all* of the node's edge
    commits and re-enters it into the free pool.  The completion tracker
    re-pends exactly the edges no other commitment covers (a live
    counterpart's own commit, or a crash excusal, keeps an edge decided),
    and the run continues until the survivors' matching is maximal again.
    The protocol converges after the last crash with probability 1: two
    adjacent free survivors eventually pick the proposer/listener roles
    and the right candidate in the same iteration.

    Ships in coroutine form only; ``as_array_algorithm`` returns ``None``
    (see the module docstring).
    """

    name = "selfstab-matching"
    randomized = True
    uses_identifiers = False
    self_stabilizing = True

    def init(self, node: NodeRuntime) -> None:
        node.state.update(
            partner=None,
            dead=set(),
            taken=set(),
            proposals=[],
            proposal_to=None,
            accepted=None,
        )
        if node.degree == 0:
            node.halt()

    def send(self, node: NodeRuntime) -> Any:
        state = node.state
        if state["partner"] is not None:
            return Broadcast(("matched",))
        sending_round = node.round + 1  # send() runs before the round stamp
        if sending_round % 2 == 1:
            # Propose round: coin-flip into the proposer role, then pick a
            # uniformly random neighbour believed free.
            state["proposal_to"] = None
            if node.rng.random() < 0.5:
                candidates = [
                    u
                    for u in node.neighbors
                    if u not in state["dead"] and u not in state["taken"]
                ]
                if candidates:
                    target = candidates[node.rng.randrange(len(candidates))]
                    state["proposal_to"] = target
                    return {target: ("propose",)}
            return {}
        # Accept round: listeners answer one live proposal.
        state["accepted"] = None
        if state["proposal_to"] is None and state["proposals"]:
            live = [u for u in state["proposals"] if u not in state["dead"]]
            if live:
                chosen = live[node.rng.randrange(len(live))]
                state["accepted"] = chosen
                return {chosen: ("accept",)}
        return {}

    def receive(self, node: NodeRuntime, messages: Dict[int, Any]) -> None:
        state = node.state
        # ``taken`` is rebuilt from this round's announcements, not
        # accumulated: matched nodes beacon every round, so a fresh view is
        # always available, and a widow silently drops out of everyone's
        # ``taken`` one round after revoking (an accumulated set would let
        # two widows believe each other matched forever — a livelock).
        taken = set()
        proposals = []
        accepted_by = None
        for src, msg in messages.items():
            kind = msg[0]
            if kind == "matched":
                taken.add(src)
            elif kind == "propose":
                proposals.append(src)
            elif kind == "accept":
                accepted_by = src
        state["taken"] = taken
        if state["partner"] is not None:
            return
        if node.round % 2 == 1:
            state["proposals"] = proposals
            return
        state["proposals"] = []
        partner = None
        if state["accepted"] is not None:
            # This node accepted a proposal this round.  The proposer was
            # alive at the round start (checked in send), so it survived
            # the round and received the acceptance — both sides commit.
            partner = state["accepted"]
        elif accepted_by is not None and accepted_by == state["proposal_to"]:
            partner = accepted_by
        if partner is None:
            return
        state["partner"] = partner
        node.commit_edge(partner, True)
        for u in node.neighbors:
            if u != partner:
                node.commit_edge(u, False)

    def neighbor_crashed(self, node: NodeRuntime, neighbor: int) -> None:
        state = node.state
        state["dead"].add(neighbor)
        state["taken"].discard(neighbor)
        if state["partner"] == neighbor:
            # Widowed: withdraw every own edge commit (the tracker re-pends
            # exactly those no counterpart or crash excusal still covers)
            # and re-enter the free pool.
            state["partner"] = None
            state["proposals"] = []
            state["proposal_to"] = None
            state["accepted"] = None
            for u in node.neighbors:
                node.revoke_edge(u)
