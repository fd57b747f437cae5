"""Girth and tree-like views.

The lower-bound machinery of the paper hinges on (almost) high-girth graphs:
a node whose ``k``-hop view is tree-like cannot distinguish the two special
clusters.  This module provides:

* :func:`girth` — exact girth via BFS from every vertex,
* :func:`shortest_cycle_through` — length of the shortest cycle through a
  given vertex (∞ if none),
* :func:`has_cycle_within_distance` — whether a vertex's ``r``-hop view
  contains a cycle,
* :func:`nodes_with_tree_like_view` — the set of nodes whose ``r``-hop view
  contains no cycle.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - the graphs arrive built; no networkx call here
    import networkx as nx

__all__ = [
    "girth",
    "shortest_cycle_through",
    "has_cycle_within_distance",
    "nodes_with_tree_like_view",
]


def shortest_cycle_through(graph: nx.Graph, source: int) -> float:
    """Length of the shortest cycle passing through ``source`` (``inf`` if none).

    BFS from ``source``; a non-tree edge between two visited vertices closes a
    cycle through the source of length ``dist[u] + dist[v] + 1`` only if the
    two BFS branches are distinct, so we track the first-hop ancestor of every
    visited vertex.
    """
    dist = {source: 0}
    branch = {source: source}
    best = math.inf
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if dist[v] * 2 >= best:
            continue
        for u in graph.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                branch[u] = u if v == source else branch[v]
                queue.append(u)
            else:
                if u == source or branch.get(u) == branch.get(v):
                    # Same BFS branch: the walk does not close a cycle through
                    # `source`, unless it is the trivial back edge to source.
                    if u == source and dist[v] >= 2:
                        best = min(best, dist[v] + 1)
                    continue
                best = min(best, dist[u] + dist[v] + 1)
    return best


def girth(graph: nx.Graph) -> float:
    """Exact girth of the graph (``inf`` for forests)."""
    best = math.inf
    for v in graph.nodes():
        best = min(best, _shortest_cycle_from(graph, v, int(best) if best < math.inf else None))
        if best == 3:
            return 3
    return best


def _shortest_cycle_from(graph: nx.Graph, source: int, cap: Optional[int]) -> float:
    """Shortest cycle found by BFS from ``source`` (not necessarily through it)."""
    dist = {source: 0}
    parent = {source: None}
    best = math.inf
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if cap is not None and dist[v] * 2 + 1 > cap:
            break
        for u in graph.neighbors(v):
            if u == parent[v]:
                continue
            if u not in dist:
                dist[u] = dist[v] + 1
                parent[u] = v
                queue.append(u)
            else:
                best = min(best, dist[u] + dist[v] + 1)
    return best


def has_cycle_within_distance(graph: nx.Graph, source: int, radius: int) -> bool:
    """Whether the ``radius``-hop view of ``source`` contains a cycle."""
    # Collect the view's vertex set by BFS, then count edges: a view with
    # |E| >= |V| necessarily contains a cycle, and conversely.
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for u in graph.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    vertices = set(dist)
    edge_count = 0
    for v in vertices:
        for u in graph.neighbors(v):
            if u in vertices and u > v:
                if dist[u] == radius and dist[v] == radius:
                    continue
                edge_count += 1
    return edge_count >= len(vertices)


def nodes_with_tree_like_view(graph: nx.Graph, radius: int) -> Set[int]:
    """All nodes whose ``radius``-hop view is a tree."""
    return {v for v in graph.nodes() if not has_cycle_within_distance(graph, v, radius)}
