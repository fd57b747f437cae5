"""Structural analysis of the lower-bound graphs (Lemma 13, Corollary 15).

These helpers quantify the properties the lower-bound argument relies on and
are used by the tests and by benchmarks E7–E9:

* cluster sizes, degree bound ``2 β^{k+1}`` and total node count (Lemma 13),
* independence numbers of the clusters neighbouring ``S(c0)`` — bounded by
  ``|S(v)| / β^{ψ(v)}`` in the base graph and by
  ``O(|S(v)| · log β^ψ / β^ψ)`` after lifting (Lemma 12 / Corollary 15),
* the fraction of nodes whose radius-``k`` view is tree-like (which the lift
  drives towards 1, Lemma 14),
* how many ``S(c0)`` nodes can be covered by independent sets of the
  neighbouring clusters — the counting step at the heart of Theorem 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import networkx as nx

from repro.algorithms.mis.sequential import greedy_independent_set_lower_bound
from repro.core.errors import ValidationFailed
from repro.graphs.girth import nodes_with_tree_like_view
from repro.lowerbound.base_graph import ClusterTreeGraph

__all__ = [
    "ClusterReport",
    "cluster_reports",
    "tree_like_fraction_of_cluster",
    "max_covered_fraction_of_s0",
]


@dataclass(frozen=True)
class ClusterReport:
    """Structural summary of one cluster of a cluster tree graph."""

    skeleton_node: int
    depth: int
    psi: int | None
    size: int
    independence_upper_bound: int | None
    greedy_independent_set: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "cluster": self.skeleton_node,
            "depth": self.depth,
            "psi": self.psi,
            "size": self.size,
            "alpha_bound": self.independence_upper_bound,
            "greedy_alpha": self.greedy_independent_set,
        }


def cluster_reports(gk: ClusterTreeGraph, attempts: int = 4) -> List[ClusterReport]:
    """Per-cluster structural report (sizes and independence numbers)."""
    reports: List[ClusterReport] = []
    for node in gk.skeleton.nodes:
        members = gk.clusters[node.index]
        induced = gk.graph.subgraph(members)
        psi = gk.skeleton.psi(node.index)
        if psi is None:
            bound = None  # S(c0) is an independent set: alpha = |S(c0)|.
            greedy = len(members)
        else:
            bound = len(members) // (gk.beta**psi)
            greedy = greedy_independent_set_lower_bound(nx.Graph(induced), attempts=attempts)
        reports.append(
            ClusterReport(
                skeleton_node=node.index,
                depth=gk.skeleton.depth(node.index),
                psi=psi,
                size=len(members),
                independence_upper_bound=bound,
                greedy_independent_set=greedy,
            )
        )
    return reports


def tree_like_fraction_of_cluster(
    gk: ClusterTreeGraph, skeleton_node: int, radius: int
) -> float:
    """Fraction of the cluster's vertices whose ``radius``-hop view is a tree."""
    members = gk.clusters[skeleton_node]
    if not members:
        return 1.0
    tree_like = nodes_with_tree_like_view(gk.graph, radius)
    return sum(1 for v in members if v in tree_like) / len(members)


def max_covered_fraction_of_s0(gk: ClusterTreeGraph) -> float:
    """Upper bound on the fraction of ``S(c0)`` coverable by its neighbour clusters.

    Theorem 16's counting argument: each neighbouring cluster ``S_i`` of
    ``S(c0)`` (with ``i = ψ``) can contribute at most ``|S_i| / β^i``
    independent nodes (base graph; Lemma 13), and each of those covers at most
    ``β^i`` nodes of ``S(c0)``, so the neighbouring clusters can cover at most
    ``Σ_i |S_i|`` · (something small) nodes of ``S(c0)``.  The returned value
    is that bound divided by ``|S(c0)|``; when it is below 1, at least a
    ``1 - value`` fraction of ``S(c0)`` must join any maximal independent set.
    """
    skeleton = gk.skeleton
    s0_size = len(gk.clusters[skeleton.c0])
    covered = 0
    for child in skeleton.children(skeleton.c0):
        psi = skeleton.psi(child)
        if psi is None:
            raise ValidationFailed(f"skeleton node {child} has no self-loop exponent")
        cluster_size = len(gk.clusters[child])
        independent_bound = cluster_size // (gk.beta**psi)
        covered += independent_bound * (gk.beta**psi)
        # Each independent node of S_i has exactly β^ψ neighbours in S(c0)
        # (the label of the edge from S_i towards its parent c0 is β^ψ).
    return covered / s0_size if s0_size else 0.0
