"""Sequential (centralised) reference constructions for MIS and related sets.

These are not distributed algorithms; they provide ground-truth solutions and
size baselines for tests and benchmarks (e.g. the independence numbers used
when analysing the lower-bound clusters, or a quick check that a distributed
MIS has a sensible size).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Set

if TYPE_CHECKING:  # pragma: no cover - the graphs arrive built; no networkx call here
    import networkx as nx

__all__ = [
    "sequential_greedy_mis",
    "random_order_mis",
    "greedy_independent_set_lower_bound",
    "exact_maximum_independent_set",
]


def sequential_greedy_mis(graph: nx.Graph, order: Optional[Sequence[int]] = None) -> Set[int]:
    """Greedy MIS scanning nodes in the given order (default: sorted order)."""
    if order is None:
        order = sorted(graph.nodes())
    selected: Set[int] = set()
    blocked: Set[int] = set()
    for v in order:
        if v in blocked or v in selected:
            continue
        selected.add(v)
        blocked.update(graph.neighbors(v))
    return selected


def random_order_mis(graph: nx.Graph, seed: int = 0) -> Set[int]:
    """Greedy MIS over a uniformly random node order."""
    order: List[int] = list(graph.nodes())
    random.Random(seed).shuffle(order)
    return sequential_greedy_mis(graph, order)


def greedy_independent_set_lower_bound(graph: nx.Graph, attempts: int = 8, seed: int = 0) -> int:
    """A lower bound on the independence number via repeated greedy runs."""
    best = 0
    for i in range(max(1, attempts)):
        best = max(best, len(random_order_mis(graph, seed=seed + i)))
    # Minimum-degree-first greedy is usually the strongest single heuristic.
    order = sorted(graph.nodes(), key=lambda v: graph.degree(v))
    best = max(best, len(sequential_greedy_mis(graph, order)))
    return best


def exact_maximum_independent_set(graph: nx.Graph, size_limit: int = 30) -> Set[int]:
    """Exact maximum independent set by branch and bound (small graphs only).

    Raises ``ValueError`` if the graph has more than ``size_limit`` nodes, to
    prevent accidental exponential blow-ups; the lower-bound analysis only
    needs exact independence numbers of small cluster subgraphs.
    """
    if graph.number_of_nodes() > size_limit:
        raise ValueError(
            f"exact independent set limited to {size_limit} nodes "
            f"(got {graph.number_of_nodes()}); use the greedy bound instead"
        )
    vertices = list(graph.nodes())
    adjacency = {v: set(graph.neighbors(v)) for v in vertices}
    best: Set[int] = set()

    def branch(candidates: List[int], current: Set[int]) -> None:
        nonlocal best
        if len(current) + len(candidates) <= len(best):
            return
        if not candidates:
            if len(current) > len(best):
                best = set(current)
            return
        # Branch on the highest-degree candidate: either exclude it or include it.
        v = max(candidates, key=lambda u: len(adjacency[u]))
        rest = [u for u in candidates if u != v]
        branch(rest, current)
        allowed = [u for u in rest if u not in adjacency[v]]
        branch(allowed, current | {v})

    branch(vertices, set())
    return best
