"""Sequential (centralised) matching references.

Used by tests and benchmarks as ground truth for matching sizes and as a
baseline when analysing the two-copy lower-bound construction (which contains
a perfect matching that any maximal matching must almost entirely contain).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - maximum_matching_size imports it where it runs
    import networkx as nx

__all__ = ["sequential_greedy_matching", "random_order_matching", "maximum_matching_size"]

Edge = Tuple[int, int]


def sequential_greedy_matching(
    graph: nx.Graph, order: Optional[Sequence[Edge]] = None
) -> Set[Edge]:
    """Greedy maximal matching scanning edges in the given order."""
    if order is None:
        order = sorted(tuple(sorted(e)) for e in graph.edges())
    matched_nodes: Set[int] = set()
    matching: Set[Edge] = set()
    for u, v in order:
        if u in matched_nodes or v in matched_nodes:
            continue
        matching.add((u, v) if u < v else (v, u))
        matched_nodes.add(u)
        matched_nodes.add(v)
    return matching


def random_order_matching(graph: nx.Graph, seed: int = 0) -> Set[Edge]:
    """Greedy maximal matching over a uniformly random edge order."""
    edges: List[Edge] = [tuple(sorted(e)) for e in graph.edges()]
    random.Random(seed).shuffle(edges)
    return sequential_greedy_matching(graph, edges)


def maximum_matching_size(graph: nx.Graph) -> int:
    """Size of a maximum (not just maximal) matching, via networkx."""
    import networkx as nx

    return len(nx.max_weight_matching(graph, maxcardinality=True))
