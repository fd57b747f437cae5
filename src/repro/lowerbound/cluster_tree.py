"""Cluster tree skeletons ``CT_k`` (Section 4.3, Figure 1).

A cluster tree skeleton is a tree (plus self-loops) that compactly describes
the family ``G_k`` of lower-bound graphs: every skeleton node corresponds to a
cluster of graph nodes, and every directed skeleton edge ``(u, v, x)``
prescribes that each graph node in cluster ``S(u)`` has exactly ``x``
neighbours in cluster ``S(v)``, where ``x`` is either ``β^i`` or ``2·β^i``.

The skeleton is defined inductively:

* ``CT_0`` has an internal node ``c0`` and a leaf ``c1`` with edges
  ``(c0, c1, 2β^0)``, ``(c1, c0, β^1)`` and the self-loop ``(c1, c1, β^1)``.
* ``CT_k`` is obtained from ``CT_{k-1}`` by attaching a new leaf with exponent
  ``k`` to every internal node, and attaching to every (former) leaf ``u``
  with ``ψ(u) = i`` one new leaf for every exponent ``j ∈ {0..k} \\ {i}``;
  ``u`` becomes internal.

The class below materialises the skeleton symbolically (labels are stored as
``(exponent, doubled)`` pairs rather than evaluated powers of β) and verifies
the structural facts the lower bound relies on (Observation 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.errors import ValidationFailed

__all__ = ["SkeletonNode", "ClusterTreeSkeleton"]


@dataclass
class SkeletonNode:
    """One node of a cluster tree skeleton.

    Attributes:
        index: node identifier within the skeleton (0 is always ``c0``).
        parent: parent node index (``None`` for ``c0``).
        attach_exponent: exponent ``j`` such that the parent reaches this node
            with label ``2·β^j`` (``None`` for ``c0``).
        internal: whether the node is internal in the *current* skeleton.
        children: child node indices.
    """

    index: int
    parent: Optional[int]
    attach_exponent: Optional[int]
    internal: bool = False
    children: List[int] = field(default_factory=list)

    @property
    def psi(self) -> Optional[int]:
        """Exponent of the node's self-loop (``ψ(v)``); ``None`` for ``c0``."""
        if self.attach_exponent is None:
            return None
        return self.attach_exponent + 1


class ClusterTreeSkeleton:
    """The cluster tree skeleton ``CT_k``."""

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k
        self._nodes: List[SkeletonNode] = []
        self._build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _add_node(self, parent: Optional[int], attach_exponent: Optional[int]) -> int:
        index = len(self._nodes)
        self._nodes.append(SkeletonNode(index=index, parent=parent, attach_exponent=attach_exponent))
        if parent is not None:
            self._nodes[parent].children.append(index)
        return index

    def _build(self) -> None:
        # CT_0.
        c0 = self._add_node(parent=None, attach_exponent=None)
        self._nodes[c0].internal = True
        self._add_node(parent=c0, attach_exponent=0)

        # Inductive steps CT_{d-1} -> CT_d for d = 1..k.
        for d in range(1, self.k + 1):
            internal_nodes = [n.index for n in self._nodes if n.internal]
            leaf_nodes = [n.index for n in self._nodes if not n.internal]
            for v in internal_nodes:
                self._add_node(parent=v, attach_exponent=d)
            for u in leaf_nodes:
                skip = self._nodes[u].psi
                for j in range(0, d + 1):
                    if j == skip:
                        continue
                    self._add_node(parent=u, attach_exponent=j)
                self._nodes[u].internal = True

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def c0(self) -> int:
        """Index of the root node ``c0``."""
        return 0

    @property
    def c1(self) -> int:
        """Index of the special node ``c1`` (the first child of ``c0``)."""
        return 1

    @property
    def nodes(self) -> List[SkeletonNode]:
        """All skeleton nodes."""
        return list(self._nodes)

    def node(self, index: int) -> SkeletonNode:
        """The skeleton node with the given index."""
        return self._nodes[index]

    def __len__(self) -> int:
        return len(self._nodes)

    def internal_nodes(self) -> List[int]:
        """Indices of the internal nodes of ``CT_k``."""
        return [n.index for n in self._nodes if n.internal]

    def leaves(self) -> List[int]:
        """Indices of the leaves of ``CT_k``."""
        return [n.index for n in self._nodes if not n.internal]

    def psi(self, index: int) -> Optional[int]:
        """``ψ(v)``: the self-loop exponent of node ``v`` (``None`` for ``c0``)."""
        return self._nodes[index].psi

    def parent(self, index: int) -> Optional[int]:
        """Parent of a skeleton node."""
        return self._nodes[index].parent

    def children(self, index: int) -> List[int]:
        """Children of a skeleton node."""
        return list(self._nodes[index].children)

    def depth(self, index: int) -> int:
        """Hop distance from ``c0`` (ignoring self-loops)."""
        d = 0
        current = index
        while self._nodes[current].parent is not None:
            current = self._nodes[current].parent
            d += 1
        return d

    # ------------------------------------------------------------------ #
    # Directed labelled edges
    # ------------------------------------------------------------------ #

    def directed_edges(self) -> List[Tuple[int, int, int, bool]]:
        """All directed labelled edges ``(u, v, exponent, doubled)``.

        ``doubled`` distinguishes labels ``2·β^exponent`` from ``β^exponent``.
        Self-loops appear once as ``(v, v, ψ(v), False)``.
        """
        edges: List[Tuple[int, int, int, bool]] = []
        for node in self._nodes:
            if node.parent is None:
                continue
            j = node.attach_exponent
            if j is None:
                raise ValidationFailed(f"skeleton node {node.index} has no attach exponent")
            edges.append((node.parent, node.index, j, True))
            edges.append((node.index, node.parent, j + 1, False))
            edges.append((node.index, node.index, j + 1, False))
        return edges

    def out_label_counts(self, index: int) -> Dict[int, int]:
        """Number of outgoing graph edges per exponent for a skeleton node.

        For an internal node this realises Observation 9: exactly ``2·β^i``
        outgoing edges with label ``β^i`` for every ``i ∈ {0..k}``; the
        returned dictionary maps ``i`` to the multiplier of ``β^i`` (2 for all
        of them).  For a leaf only ``ψ(v)`` appears, with multiplier 2.
        """
        counts: Dict[int, int] = {}
        node = self._nodes[index]
        for child in node.children:
            j = self._nodes[child].attach_exponent
            if j is None:
                raise ValidationFailed(f"skeleton node {child} has no attach exponent")
            counts[j] = counts.get(j, 0) + 2
        if node.parent is not None:
            psi = node.psi
            if psi is None:
                raise ValidationFailed(f"skeleton node {index} has no self-loop exponent")
            counts[psi] = counts.get(psi, 0) + 1  # edge towards the parent
            counts[psi] = counts.get(psi, 0) + 1  # self-loop
        return counts

    # ------------------------------------------------------------------ #
    # Structural validation (Observation 7)
    # ------------------------------------------------------------------ #

    def _child_exponents(self, node: SkeletonNode) -> List[int]:
        """The attach exponents of ``node``'s children, sorted.

        Raises ``ValidationFailed`` naming a child that has none, which
        ``sorted`` could not compare with the others.
        """
        exponents = []
        for child in node.children:
            j = self._nodes[child].attach_exponent
            if j is None:
                raise ValidationFailed(f"skeleton node {child} has no attach exponent")
            exponents.append(j)
        return sorted(exponents)

    def validate(self) -> None:
        """Raise ``ValidationFailed`` unless the skeleton satisfies Observation 7.

        ``ValidationFailed`` is also an ``AssertionError``; the checks hold
        under ``python -O``.
        """
        k = self.k
        for node in self._nodes:
            if node.index == self.c0:
                if node.parent is not None or node.attach_exponent is not None:
                    raise ValidationFailed("c0 must have no parent and no attach exponent")
                child_exponents = self._child_exponents(node)
                if child_exponents != list(range(k + 1)):
                    raise ValidationFailed(
                        f"c0 must have children for every exponent 0..{k}, got {child_exponents}"
                    )
                continue
            if node.parent is None:
                raise ValidationFailed(f"skeleton node {node.index} has no parent")
            psi = node.psi
            if psi is None or not 1 <= psi <= k + 1:
                raise ValidationFailed(
                    f"skeleton node {node.index} has self-loop exponent {psi}, expected 1..{k + 1}"
                )
            if node.internal:
                if node.attach_exponent > k - 1:
                    raise ValidationFailed(
                        "internal nodes are attached with exponent at most k-1"
                    )
                child_exponents = self._child_exponents(node)
                expected = [j for j in range(k + 1) if j != psi]
                if child_exponents != expected:
                    raise ValidationFailed(
                        f"internal node {node.index} has children {child_exponents}, "
                        f"expected {expected}"
                    )
            elif node.children:
                raise ValidationFailed(f"leaf {node.index} has children {node.children}")

    def summary(self) -> Dict[str, int]:
        """Headline counts (used by the Figure 1 structure benchmark)."""
        return {
            "k": self.k,
            "nodes": len(self._nodes),
            "internal": len(self.internal_nodes()),
            "leaves": len(self.leaves()),
            "directed_edges": len(self.directed_edges()),
            "max_depth": max(self.depth(n.index) for n in self._nodes),
        }
