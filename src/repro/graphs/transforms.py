"""Graph transforms used throughout the paper's arguments.

* :func:`line_graph` — the line graph ``H`` of ``G``.  A maximal matching of
  ``G`` is exactly an MIS of ``H``, and the node-averaged complexity of that
  MIS equals the edge-averaged complexity of the matching (Section 1.1).
* :func:`power_graph` — ``G^k``, connecting nodes at distance ≤ k.  Used by
  the sinkless-orientation clustering step (an MIS of ``G^{2r+1}`` is a
  ``(2r+2, 2r+1)``-ruling set of ``G``).
* :func:`disjoint_union` — union of two graphs with relabelled vertices.
* :func:`two_copies_with_perfect_matching` — the "two copies plus a perfect
  matching between them" operation used by the maximal-matching lower bound
  (Theorem 17).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - each transform imports networkx where it runs
    import networkx as nx

__all__ = [
    "line_graph",
    "power_graph",
    "disjoint_union",
    "two_copies_with_perfect_matching",
]

Edge = Tuple[int, int]


def line_graph(graph: nx.Graph) -> Tuple[nx.Graph, Dict[int, Edge]]:
    """Return the line graph of ``graph`` on integer vertices.

    Returns:
        A pair ``(H, vertex_to_edge)`` where ``H`` is the line graph on
        vertices ``0..m-1`` and ``vertex_to_edge[i]`` is the edge of the
        original graph represented by line-graph vertex ``i``.
    """
    edges: List[Edge] = [tuple(sorted(e)) for e in graph.edges()]
    edges.sort()
    index = {e: i for i, e in enumerate(edges)}
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(len(edges)))
    for v in graph.nodes():
        incident = [tuple(sorted((v, u))) for u in graph.neighbors(v)]
        for i in range(len(incident)):
            for j in range(i + 1, len(incident)):
                h.add_edge(index[incident[i]], index[incident[j]])
    return h, {i: e for e, i in index.items()}


def power_graph(graph: nx.Graph, k: int) -> nx.Graph:
    """The k-th power ``G^k``: an edge between every pair at distance ≤ k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    import networkx as nx

    power = nx.Graph()
    power.add_nodes_from(graph.nodes())
    for source in graph.nodes():
        dist = {source: 0}
        frontier = [source]
        for d in range(1, k + 1):
            nxt = []
            for v in frontier:
                for u in graph.neighbors(v):
                    if u not in dist:
                        dist[u] = d
                        nxt.append(u)
            frontier = nxt
        for target in dist:
            if target != source:
                power.add_edge(source, target)
    return power


def disjoint_union(first: nx.Graph, second: nx.Graph) -> Tuple[nx.Graph, Dict[int, int], Dict[int, int]]:
    """Disjoint union with both parts relabelled to fresh integers.

    Returns the union plus the two relabelling maps (original → new vertex).
    """
    map_first = {v: i for i, v in enumerate(first.nodes())}
    offset = len(map_first)
    map_second = {v: offset + i for i, v in enumerate(second.nodes())}
    import networkx as nx

    union = nx.Graph()
    union.add_nodes_from(range(offset + len(map_second)))
    union.add_edges_from((map_first[u], map_first[v]) for u, v in first.edges())
    union.add_edges_from((map_second[u], map_second[v]) for u, v in second.edges())
    return union, map_first, map_second


def two_copies_with_perfect_matching(
    graph: nx.Graph,
    partner: Optional[Callable[[int], int]] = None,
) -> Tuple[nx.Graph, Dict[int, int], Dict[int, int], List[Edge]]:
    """Two disjoint copies of ``graph`` joined by a perfect matching.

    Copy A keeps each vertex ``v`` as ``map_a[v]`` and copy B as ``map_b[v]``;
    the matching joins ``map_a[v]`` to ``map_b[partner(v)]`` (``partner``
    defaults to the identity, i.e. each node is matched to its own copy, the
    "same cluster" rule of the Theorem 17 construction).

    Returns:
        ``(union, map_a, map_b, matching_edges)``.
    """
    union, map_a, map_b = disjoint_union(graph, graph)
    matching: List[Edge] = []
    used_mates: set = set()
    for v in graph.nodes():
        mate = partner(v) if partner is not None else v
        if mate not in map_b:
            raise ValueError(f"partner({v}) = {mate} is not a vertex of the graph")
        if mate in used_mates:
            # Distinct edges are not enough: a repeated mate shares a copy-B
            # endpoint, so the edge set would not be a perfect matching.
            raise ValueError(
                "partner function must be a bijection to obtain a perfect matching"
            )
        used_mates.add(mate)
        a, b = map_a[v], map_b[mate]
        union.add_edge(a, b)
        matching.append((a, b) if a < b else (b, a))
    return union, map_a, map_b, matching
