"""Deterministic sinkless orientation (Theorem 6, simplified two-stage version).

Theorem 6 gives a deterministic LOCAL algorithm with node-averaged complexity
O(log* n) and worst-case complexity O(log n) on graphs of minimum degree 3.
Its two main ingredients are (i) a *short-cycle stage* — every edge lying on
a short cycle is oriented according to the preferred orientation of the
smallest-identifier short cycle containing it, which gives every node near a
short cycle an outgoing edge after O(1) rounds — and (ii) a clustering /
contraction scheme that handles the locally tree-like residual graph.

We implement stage (i) faithfully and replace the contraction machinery of
stage (ii) with a deterministic *peeling* stage built on the request/grant
consent protocol of :mod:`repro.algorithms.orientation.protocol` (see
DESIGN.md, substitutions): an unsatisfied node requests, in preference order,
an unoriented edge towards an already-satisfied neighbour (such requests are
always granted, so the satisfied region grows by one hop per phase and a node
at distance d from the nearest short cycle finishes after O(d) phases —
min-degree-3 graphs guarantee d = O(log n)), and otherwise round-robins its
requests over its remaining unoriented edges.  The resulting algorithm is
deterministic, correct on the benchmark workloads, finishes in
O(log n)-flavoured worst-case time, and decides the (typically large)
population of nodes near short cycles after a constant number of rounds —
which is the node-averaged-versus-worst-case separation the theorem is
about.  The true O(log* n) node-averaged bound needs the paper's
cluster-contraction recursion, whose constants (cluster radius ≥ 31, girth
≥ 90) are far beyond laptop-scale graphs.

Stage (i) is conflict-free because it uses a single synchronised checkpoint:
for ``flood_rounds`` rounds every node forwards newly learnt edges and
identifiers, after which both endpoints of every edge know *all* short cycles
through that edge and therefore make identical orientation decisions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.algorithms.orientation.protocol import orientation_phases
from repro.local.coroutine import CoroutineAlgorithm
from repro.local.node import NodeRuntime

__all__ = ["DeterministicSinklessOrientation"]

Edge = Tuple[int, int]


class DeterministicSinklessOrientation(CoroutineAlgorithm):
    """Theorem 6 (simplified): short-cycle orientation plus deterministic peeling."""

    name = "deterministic-sinkless-orientation"
    randomized = False
    uses_identifiers = True

    def __init__(self, short_cycle_length: int = 6, min_degree: int = 3) -> None:
        """Configure the algorithm.

        Args:
            short_cycle_length: cycles of at most this length are handled by
                the preferred-orientation stage (the paper's ``6r``).
            min_degree: nodes of smaller degree are exempt from needing an
                outgoing edge.
        """
        if short_cycle_length < 3:
            raise ValueError("short_cycle_length must be at least 3")
        if min_degree < 1:
            raise ValueError("min_degree must be positive")
        self.short_cycle_length = short_cycle_length
        self.min_degree = min_degree

    # ------------------------------------------------------------------ #

    def run(self, node: NodeRuntime):
        unoriented: Set[int] = set(node.neighbors)
        if not unoriented:
            return
        secured = node.degree < self.min_degree

        # ---------------- Stage 1: flooding + short-cycle orientation -----
        known_edges: Set[Edge] = {_canon(node.vertex, u) for u in node.neighbors}
        identifiers: Dict[int, int] = {node.vertex: node.identifier}
        fresh_edges = set(known_edges)
        fresh_ids = dict(identifiers)

        for _ in range(self.short_cycle_length):
            inbox = yield {
                u: ("flood", tuple(fresh_edges), tuple(fresh_ids.items()))
                for u in node.neighbors
            }
            fresh_edges = set()
            fresh_ids = {}
            for _, (_, edges, ids) in inbox.items():
                for edge in edges:
                    if edge not in known_edges:
                        known_edges.add(edge)
                        fresh_edges.add(edge)
                for vertex, identifier in ids:
                    if vertex not in identifiers:
                        identifiers[vertex] = identifier
                        fresh_ids[vertex] = identifier

        # Single synchronised checkpoint: orient every incident edge that lies
        # on a short cycle according to the preferred orientation of the
        # smallest short cycle containing it.  Both endpoints know the same
        # cycles (their knowledge radius exceeds the cycle length), so they
        # commit identical values.
        for u in sorted(unoriented):
            head = self._short_cycle_head(node.vertex, u, known_edges, identifiers)
            if head is None:
                continue
            node.commit_edge(u, head)
            unoriented.discard(u)
            if head == u:
                secured = True

        # ---------------- Stage 2: deterministic peeling -------------------
        yield from orientation_phases(node, unoriented, secured, self._choose_request)

    @staticmethod
    def _choose_request(
        node: NodeRuntime, unoriented: Set[int], neighbor_secured: Dict[int, bool]
    ) -> int:
        """Prefer peeling onto an already-satisfied neighbour, else round-robin."""
        satisfied = sorted(u for u in unoriented if neighbor_secured.get(u))
        if satisfied:
            return satisfied[0]
        choices = sorted(unoriented)
        counter = node.state.get("_so_rr", 0)
        node.state["_so_rr"] = counter + 1
        return choices[counter % len(choices)]

    # ------------------------------------------------------------------ #
    # Stage 1 helpers
    # ------------------------------------------------------------------ #

    def _short_cycle_head(
        self,
        me: int,
        other: int,
        known_edges: Set[Edge],
        identifiers: Dict[int, int],
    ) -> Optional[int]:
        """Head of edge ``{me, other}`` under the preferred-orientation rule.

        Returns ``None`` when the edge lies on no short cycle in the known
        subgraph.
        """
        cycles = _cycles_through_edge(me, other, known_edges, self.short_cycle_length)
        if not cycles:
            return None
        best = min(cycles, key=lambda cycle: _cycle_key(cycle, identifiers))
        return _preferred_head(best, me, other, identifiers)


# ---------------------------------------------------------------------- #
# Pure helpers (module level so they can be unit tested directly)
# ---------------------------------------------------------------------- #


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _cycles_through_edge(
    u: int, v: int, edges: Set[Edge], max_length: int
) -> List[Tuple[int, ...]]:
    """All simple cycles of length ≤ ``max_length`` containing edge ``{u, v}``.

    Cycles are returned as vertex tuples starting with ``u`` and ending with
    ``v`` (the closing edge ``v → u`` is implicit).
    """
    adjacency: Dict[int, Set[int]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    if v not in adjacency.get(u, set()):
        return []

    cycles: List[Tuple[int, ...]] = []

    def extend(path: List[int], seen: Set[int]) -> None:
        last = path[-1]
        if len(path) >= 3 and v in adjacency.get(last, set()) and last != v:
            pass  # closing happens only through v as the final vertex
        for nxt in adjacency.get(last, set()):
            if nxt == v and len(path) >= 2:
                cycles.append(tuple(path + [v]))
                continue
            if nxt in seen or nxt == v:
                continue
            if len(path) + 1 >= max_length:
                continue
            extend(path + [nxt], seen | {nxt})

    # Walk from u avoiding the direct edge u-v so the cycle has length ≥ 3.
    for first in adjacency.get(u, set()):
        if first == v:
            continue
        extend([u, first], {u, first})

    # Deduplicate traversal directions: a cycle and its reverse describe the
    # same cycle; keep a canonical representative.
    unique = {}
    for cycle in cycles:
        key = frozenset(_cycle_edges(cycle))
        current = unique.get(key)
        if current is None or cycle < current:
            unique[key] = cycle
    return list(unique.values())


def _cycle_edges(cycle: Tuple[int, ...]) -> List[Edge]:
    """Edges of a cycle given as a vertex tuple (closing edge included)."""
    edges = []
    for i in range(len(cycle)):
        edges.append(_canon(cycle[i], cycle[(i + 1) % len(cycle)]))
    return edges


def _cycle_key(cycle: Tuple[int, ...], identifiers: Dict[int, int]) -> Tuple:
    """Identifier-based sort key of a cycle (smaller key = preferred cycle)."""
    labelled = sorted(
        tuple(sorted((identifiers.get(a, a), identifiers.get(b, b))))
        for a, b in _cycle_edges(cycle)
    )
    return (len(labelled), tuple(labelled))


def _preferred_head(
    cycle: Tuple[int, ...], me: int, other: int, identifiers: Dict[int, int]
) -> int:
    """Head of edge ``{me, other}`` in the preferred orientation of ``cycle``.

    The preferred orientation (Theorem 6, Appendix B) starts at the cycle edge
    with the smallest identifier pair, directs it from its smaller-identifier
    endpoint to the other, and follows the cycle consistently from there.
    """
    edges = _cycle_edges(cycle)
    anchor = min(edges, key=lambda e: tuple(sorted((identifiers.get(e[0], e[0]), identifiers.get(e[1], e[1])))))
    a, b = anchor
    if identifiers.get(a, a) > identifiers.get(b, b):
        a, b = b, a
    # Orient the cycle in the direction a -> b and propagate around.
    order = list(cycle)
    n = len(order)
    successor: Dict[int, int] = {order[i]: order[(i + 1) % n] for i in range(n)}
    predecessor: Dict[int, int] = {order[(i + 1) % n]: order[i] for i in range(n)}
    if successor[a] == b:
        directed = successor
    elif predecessor[a] == b:
        directed = {vertex: predecessor[vertex] for vertex in predecessor}
    else:  # pragma: no cover - anchor is always a cycle edge
        raise RuntimeError("anchor edge is not on the cycle")
    # The edge {me, other} is oriented me -> directed[me] if that equals other.
    return other if directed.get(me) == other else me
