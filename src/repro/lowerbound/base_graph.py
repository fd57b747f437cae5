"""The base lower-bound graph ``G_k ∈ G_k`` (Section 4.6) and its cluster structure.

Given a cluster tree skeleton ``CT_k`` and an even parameter ``β``, the base
graph is built cluster by cluster:

* cluster sizes are ``|S(v)| = 2 β^{k+1} (β/2)^{k+1-d(v)}`` where ``d(v)`` is
  the depth of ``v`` in the skeleton,
* ``S(c0)`` is an independent set,
* every other cluster with ``i = ψ(v)`` consists of ``|S(v)| / β^i`` disjoint
  cliques of size ``β^i`` plus a perfect matching between paired cliques, so
  every node has exactly ``β^i`` neighbours inside its own cluster (realising
  the self-loop ``(v, v, β^i)``) and the cluster has no independent set larger
  than ``|S(v)| / β^i`` (Lemma 13),
* for every skeleton tree edge, the two clusters are connected by a disjoint
  union of complete bipartite graphs ``K_{β^{i+1}, 2β^i}`` so that the
  prescribed biregular degrees hold exactly.

The paper requires ``2(k+1)/β < 1/2`` for the lower bound; graphs at those
parameters are astronomically large for ``k ≥ 2``, so the constructor also
supports a ``strict=False`` demo mode that only checks the divisibility
conditions needed for the construction itself (see DESIGN.md, substitutions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.core.errors import ValidationFailed
from repro.lowerbound.cluster_tree import ClusterTreeSkeleton

__all__ = ["ClusterTreeGraph", "build_base_graph"]

Edge = Tuple[int, int]


@dataclass
class ClusterTreeGraph:
    """A member of the graph family ``G_k`` with its cluster bookkeeping.

    Attributes:
        skeleton: the cluster tree skeleton the graph realises.
        beta: the (even) parameter β.
        graph: the actual graph on vertices ``0..n-1``.
        clusters: mapping skeleton-node index → list of graph vertices.
        cluster_of: mapping graph vertex → skeleton-node index.

    Edge labels (Definition 8) are direction dependent — the label of an edge
    as seen from ``u`` is determined by the skeleton edge from ``u``'s cluster
    to ``v``'s cluster — so they are derived from the cluster membership via
    :meth:`edge_label` rather than stored per edge.
    """

    skeleton: ClusterTreeSkeleton
    beta: int
    graph: nx.Graph
    clusters: Dict[int, List[int]]
    cluster_of: Dict[int, int]

    # -------------------------------------------------------------- #

    @property
    def k(self) -> int:
        """The lower-bound parameter ``k``."""
        return self.skeleton.k

    @property
    def n(self) -> int:
        """Number of graph nodes."""
        return self.graph.number_of_nodes()

    def special_cluster(self, which: int) -> List[int]:
        """Vertices of ``S(c0)`` (``which=0``) or ``S(c1)`` (``which=1``)."""
        if which == 0:
            return list(self.clusters[self.skeleton.c0])
        if which == 1:
            return list(self.clusters[self.skeleton.c1])
        raise ValueError("which must be 0 or 1")

    def edge_label(self, u: int, v: int) -> Tuple[int, bool]:
        """Label of the edge ``{u, v}`` *as seen from* ``u``: ``(exponent, is_self_edge)``.

        This is the labelling of Definition 8, consumed by the
        view-isomorphism Algorithm 1: the exponent is the one of the skeleton
        edge from ``u``'s cluster to ``v``'s cluster (the skeleton parent
        reaches its children with ``2β^j``, children reach their parent with
        ``β^{ψ}``, and intra-cluster edges carry ``β^{ψ}`` plus the ``self``
        marker).
        """
        cu, cv = self.cluster_of[u], self.cluster_of[v]
        if cu == cv:
            psi = self.skeleton.psi(cu)
            if psi is None:
                raise ValueError("S(c0) is an independent set and has no internal edges")
            return psi, True
        if self.skeleton.parent(cv) == cu:
            exponent = self.skeleton.node(cv).attach_exponent
            if exponent is None:
                raise ValidationFailed(f"skeleton node {cv} has no attach exponent")
            return exponent, False
        if self.skeleton.parent(cu) == cv:
            psi = self.skeleton.psi(cu)
            if psi is None:
                raise ValidationFailed(f"skeleton node {cu} has no self-loop exponent")
            return psi, False
        raise ValueError(f"vertices {u} and {v} lie in non-adjacent clusters {cu}, {cv}")

    def validate_degrees(self) -> None:
        """Raise ``ValidationFailed`` unless every prescribed biregular degree holds exactly."""
        beta = self.beta
        for u, v, exponent, doubled in self.skeleton.directed_edges():
            required = (2 if doubled else 1) * beta**exponent
            target_cluster = set(self.clusters[v])
            for vertex in self.clusters[u]:
                neighbors = sum(
                    1 for w in self.graph.neighbors(vertex) if w in target_cluster
                )
                if neighbors != required:
                    raise ValidationFailed(
                        f"vertex {vertex} of cluster {u} has {neighbors} neighbours in "
                        f"cluster {v}, expected {required}"
                    )

    def max_degree_bound(self) -> int:
        """The degree bound ``2 β^{k+1}`` of Lemma 13."""
        return 2 * self.beta ** (self.k + 1)


def _cluster_size(beta: int, k: int, depth: int) -> int:
    half = beta // 2
    return 2 * beta ** (k + 1) * half ** (k + 1 - depth)


def build_base_graph(
    k: int,
    beta: int,
    strict: bool = False,
    seed: int = 0,
) -> ClusterTreeGraph:
    """Construct the base graph ``G_k`` for parameters ``k`` and ``β``.

    Args:
        k: the lower-bound parameter (number of indistinguishability rounds).
        beta: the even cluster parameter β ≥ 2.
        strict: when ``True``, additionally require the paper's condition
            ``2(k+1)/β < 1/2`` (Lemma 13); the default demo mode only checks
            the divisibility conditions needed to realise the construction.
        seed: randomness used for the intra-cluster clique pairing (the
            construction is otherwise deterministic).

    Returns:
        The constructed :class:`ClusterTreeGraph`.
    """
    if beta < 2 or beta % 2 != 0:
        raise ValueError("beta must be an even integer ≥ 2")
    if strict and not (2 * (k + 1) / beta < 0.5):
        raise ValueError(
            f"strict mode requires 2(k+1)/β < 1/2; got β={beta}, k={k} "
            f"(need β > {4 * (k + 1)})"
        )

    skeleton = ClusterTreeSkeleton(k)
    skeleton.validate()
    rng = random.Random(seed)

    graph = nx.Graph()
    clusters: Dict[int, List[int]] = {}
    cluster_of: Dict[int, int] = {}

    next_vertex = 0
    for node in skeleton.nodes:
        size = _cluster_size(beta, k, skeleton.depth(node.index))
        members = list(range(next_vertex, next_vertex + size))
        next_vertex += size
        clusters[node.index] = members
        for vertex in members:
            cluster_of[vertex] = node.index
            graph.add_node(vertex)

    def add_edge(a: int, b: int, exponent: int, is_self: bool) -> None:
        del exponent, is_self  # labels are re-derived from cluster membership
        graph.add_edge(a, b)

    # Intra-cluster structure: disjoint cliques of size β^ψ plus a perfect
    # matching between paired cliques (S(c0) stays an independent set).
    for node in skeleton.nodes:
        psi = skeleton.psi(node.index)
        if psi is None:
            continue
        members = clusters[node.index]
        clique_size = beta**psi
        if len(members) % clique_size != 0:
            raise ValueError(
                f"cluster {node.index} of size {len(members)} is not divisible by "
                f"β^ψ = {clique_size}; choose a larger β"
            )
        num_cliques = len(members) // clique_size
        if num_cliques % 2 != 0:
            raise ValueError(
                f"cluster {node.index} splits into an odd number of cliques "
                f"({num_cliques}); choose different parameters"
            )
        cliques = [
            members[i * clique_size : (i + 1) * clique_size] for i in range(num_cliques)
        ]
        for clique in cliques:
            for a_index in range(len(clique)):
                for b_index in range(a_index + 1, len(clique)):
                    add_edge(clique[a_index], clique[b_index], psi, True)
        half = num_cliques // 2
        for j in range(half):
            left, right = cliques[j], cliques[half + j]
            order = list(range(clique_size))
            rng.shuffle(order)
            for a_index, b_index in enumerate(order):
                add_edge(left[a_index], right[b_index], psi, True)

    # Inter-cluster biregular connections along the skeleton tree edges.
    for node in skeleton.nodes:
        if node.parent is None:
            continue
        j = node.attach_exponent
        if j is None:
            raise ValidationFailed(f"skeleton node {node.index} has no attach exponent")
        parent_members = clusters[node.parent]
        child_members = clusters[node.index]
        parent_group = beta ** (j + 1)
        child_group = 2 * beta**j
        if len(parent_members) % parent_group or len(child_members) % child_group:
            raise ValueError(
                f"clusters {node.parent}/{node.index} are not divisible into groups of "
                f"{parent_group}/{child_group}; choose a larger β"
            )
        parent_groups = [
            parent_members[i : i + parent_group]
            for i in range(0, len(parent_members), parent_group)
        ]
        child_groups = [
            child_members[i : i + child_group]
            for i in range(0, len(child_members), child_group)
        ]
        if len(parent_groups) != len(child_groups):
            raise ValueError(
                f"group counts differ for skeleton edge ({node.parent}, {node.index}): "
                f"{len(parent_groups)} vs {len(child_groups)}"
            )
        for parent_part, child_part in zip(parent_groups, child_groups):
            for a in parent_part:
                for b in child_part:
                    add_edge(a, b, j, False)

    return ClusterTreeGraph(
        skeleton=skeleton,
        beta=beta,
        graph=graph,
        clusters=clusters,
        cluster_of=cluster_of,
    )
