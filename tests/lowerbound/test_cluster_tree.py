"""Tests for the cluster tree skeleton and the base graph construction (Section 4)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError, ValidationFailed
from repro.lowerbound.base_graph import build_base_graph
from repro.lowerbound.cluster_tree import ClusterTreeSkeleton, SkeletonNode


class TestSkeletonStructure:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_observation7_holds(self, k):
        skeleton = ClusterTreeSkeleton(k)
        skeleton.validate()

    def test_ct0_matches_base_case(self):
        skeleton = ClusterTreeSkeleton(0)
        assert len(skeleton) == 2
        assert skeleton.internal_nodes() == [0]
        assert skeleton.leaves() == [1]
        assert skeleton.psi(skeleton.c1) == 1

    def test_ct1_node_count(self):
        # CT_1: c0, c1, one new leaf on c0, one new leaf on c1 (j ∈ {0,1}\{1}).
        assert len(ClusterTreeSkeleton(1)) == 4

    def test_ct2_node_count_matches_figure1(self):
        # Figure 1 shows CT_2 with 10 skeleton nodes.
        assert len(ClusterTreeSkeleton(2)) == 10

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_c0_has_k_plus_one_children(self, k):
        skeleton = ClusterTreeSkeleton(k)
        assert len(skeleton.children(skeleton.c0)) == k + 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_internal_nodes_have_k_children(self, k):
        skeleton = ClusterTreeSkeleton(k)
        for v in skeleton.internal_nodes():
            if v == skeleton.c0:
                continue
            assert len(skeleton.children(v)) == k

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_observation9_out_label_counts(self, k):
        skeleton = ClusterTreeSkeleton(k)
        for v in skeleton.internal_nodes():
            counts = skeleton.out_label_counts(v)
            if v == skeleton.c0:
                assert counts == {i: 2 for i in range(k + 1)}
            else:
                assert counts == {i: 2 for i in range(k + 1)}
        for leaf in skeleton.leaves():
            counts = skeleton.out_label_counts(leaf)
            psi = skeleton.psi(leaf)
            assert counts == {psi: 2}

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_depth_bounds(self, k):
        skeleton = ClusterTreeSkeleton(k)
        depths = [skeleton.depth(v.index) for v in skeleton.nodes]
        assert min(depths) == 0
        assert max(depths) <= k + 1

    def test_directed_edge_count(self):
        skeleton = ClusterTreeSkeleton(2)
        # Every non-root node contributes three directed edges (to parent, from
        # parent, self-loop).
        assert len(skeleton.directed_edges()) == 3 * (len(skeleton) - 1)

    def test_summary_keys(self):
        summary = ClusterTreeSkeleton(2).summary()
        assert summary["k"] == 2 and summary["nodes"] == 10
        assert summary["internal"] + summary["leaves"] == summary["nodes"]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            ClusterTreeSkeleton(-1)

    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=7, deadline=None)
    def test_skeleton_growth_recurrence(self, k):
        """|CT_k| = |CT_{k-1}| + #internal_{k-1} + k · #leaves_{k-1}."""
        if k == 0:
            assert len(ClusterTreeSkeleton(0)) == 2
            return
        prev = ClusterTreeSkeleton(k - 1)
        current = ClusterTreeSkeleton(k)
        expected = len(prev) + len(prev.internal_nodes()) + k * len(prev.leaves())
        assert len(current) == expected


class TestSkeletonEdgesAndAccessors:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_directed_edges_are_consistent_with_attachment(self, k):
        """Each non-root node yields (parent→v, 2β^j), (v→parent, β^{j+1}), self-loop β^{j+1}."""
        skeleton = ClusterTreeSkeleton(k)
        edges = skeleton.directed_edges()
        by_node = {}
        for u, v, exponent, doubled in edges:
            by_node.setdefault((u, v), []).append((exponent, doubled))
        for node in skeleton.nodes:
            if node.parent is None:
                continue
            j = node.attach_exponent
            assert by_node[(node.parent, node.index)] == [(j, True)]
            assert by_node[(node.index, node.parent)] == [(j + 1, False)]
            assert by_node[(node.index, node.index)] == [(j + 1, False)]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_out_label_counts_match_directed_edge_multiset(self, k):
        """out_label_counts is the per-exponent tally of the directed edge list."""
        skeleton = ClusterTreeSkeleton(k)
        tallies = {v.index: {} for v in skeleton.nodes}
        for u, v, exponent, doubled in skeleton.directed_edges():
            tally = tallies[u]
            tally[exponent] = tally.get(exponent, 0) + (2 if doubled else 1)
        for v in range(len(skeleton)):
            assert skeleton.out_label_counts(v) == tallies[v]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_children_are_born_after_their_parent(self, k):
        skeleton = ClusterTreeSkeleton(k)
        for node in skeleton.nodes:
            assert all(child > node.index for child in node.children)
            if node.parent is not None:
                assert skeleton.depth(node.index) == skeleton.depth(node.parent) + 1

    def test_children_accessor_returns_a_copy(self):
        skeleton = ClusterTreeSkeleton(2)
        children = skeleton.children(skeleton.c0)
        children.append(999)
        assert 999 not in skeleton.children(skeleton.c0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_population_recurrence(self, k):
        """Internal nodes of CT_k are exactly the nodes of CT_{k-1}."""
        prev = ClusterTreeSkeleton(k - 1)
        current = ClusterTreeSkeleton(k)
        assert len(current.internal_nodes()) == len(prev)
        assert len(current.leaves()) == len(prev.internal_nodes()) + k * len(prev.leaves())

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_psi_range_partitions_leaves(self, k):
        """Every leaf's self-loop exponent lies in 1..k+1, and each value occurs."""
        skeleton = ClusterTreeSkeleton(k)
        psis = [skeleton.psi(leaf) for leaf in skeleton.leaves()]
        assert all(1 <= p <= k + 1 for p in psis)
        assert set(psis) == set(range(1, k + 2))


class TestBaseGraph:
    @pytest.mark.parametrize("k,beta", [(0, 2), (0, 4), (1, 4), (1, 6)])
    def test_biregular_degrees_hold_exactly(self, k, beta):
        gk = build_base_graph(k, beta)
        gk.validate_degrees()

    def test_cluster_sizes_follow_lemma13(self):
        gk = build_base_graph(1, 4)
        skeleton = gk.skeleton
        for node in skeleton.nodes:
            depth = skeleton.depth(node.index)
            expected = 2 * 4 ** 2 * 2 ** (2 - depth)
            assert len(gk.clusters[node.index]) == expected

    def test_s0_is_independent_set(self):
        gk = build_base_graph(1, 4)
        s0 = set(gk.special_cluster(0))
        for u, v in gk.graph.edges():
            assert not (u in s0 and v in s0)

    def test_s0_is_the_largest_cluster(self):
        gk = build_base_graph(1, 4)
        sizes = {c: len(members) for c, members in gk.clusters.items()}
        assert sizes[gk.skeleton.c0] == max(sizes.values())

    def test_max_degree_bound_of_lemma13(self):
        gk = build_base_graph(1, 4)
        max_degree = max(dict(gk.graph.degree()).values())
        assert max_degree <= gk.max_degree_bound()

    def test_total_size_order(self):
        """Lemma 13: the total number of nodes is O(β^{2k+2})."""
        for beta in (4, 6):
            gk = build_base_graph(1, beta)
            assert gk.n <= 8 * beta ** 4

    @pytest.mark.parametrize("k,beta", [(0, 4), (1, 4)])
    def test_cluster_independence_bound_of_lemma13(self, k, beta):
        from repro.algorithms.mis.sequential import greedy_independent_set_lower_bound

        gk = build_base_graph(k, beta)
        for node in gk.skeleton.nodes:
            psi = gk.skeleton.psi(node.index)
            if psi is None:
                continue
            induced = nx.Graph(gk.graph.subgraph(gk.clusters[node.index]))
            bound = len(gk.clusters[node.index]) // beta ** psi
            assert greedy_independent_set_lower_bound(induced, attempts=2) <= bound

    def test_edge_labels_directional(self):
        gk = build_base_graph(1, 4)
        skeleton = gk.skeleton
        c1 = skeleton.c1
        some_c1_vertex = gk.clusters[c1][0]
        c0_neighbors = [
            u for u in gk.graph.neighbors(some_c1_vertex)
            if gk.cluster_of[u] == skeleton.c0
        ]
        assert c0_neighbors
        exponent_up, is_self_up = gk.edge_label(some_c1_vertex, c0_neighbors[0])
        exponent_down, is_self_down = gk.edge_label(c0_neighbors[0], some_c1_vertex)
        assert (exponent_up, is_self_up) == (1, False)  # child → parent: β^ψ = β^1
        assert (exponent_down, is_self_down) == (0, False)  # parent → child: 2β^0

    def test_edge_label_self_edges(self):
        gk = build_base_graph(1, 4)
        c1 = gk.skeleton.c1
        members = set(gk.clusters[c1])
        vertex = gk.clusters[c1][0]
        internal_neighbors = [u for u in gk.graph.neighbors(vertex) if u in members]
        assert internal_neighbors
        exponent, is_self = gk.edge_label(vertex, internal_neighbors[0])
        assert is_self and exponent == gk.skeleton.psi(c1)

    def test_odd_beta_rejected(self):
        with pytest.raises(ValueError):
            build_base_graph(1, 5)

    def test_strict_mode_enforces_paper_condition(self):
        with pytest.raises(ValueError):
            build_base_graph(1, 4, strict=True)
        # β = 10 > 4(k+1) = 8 satisfies the condition for k = 1.
        gk = build_base_graph(1, 10, strict=True)
        assert gk.n > 0

    def test_special_cluster_arguments(self):
        gk = build_base_graph(0, 4)
        assert gk.special_cluster(0) and gk.special_cluster(1)
        with pytest.raises(ValueError):
            gk.special_cluster(2)


def _dangling_node(skeleton, attach_exponent, internal=False):
    """Append a node under the first leaf without listing it as a child.

    The leaf keeps no children, so ``validate()`` reaches the new node's own
    checks, which come last in index order.
    """
    node = SkeletonNode(
        index=len(skeleton),
        parent=skeleton.leaves()[0],
        attach_exponent=attach_exponent,
        internal=internal,
    )
    skeleton._nodes.append(node)
    return node


def _c0_with_a_parent(skeleton):
    skeleton.node(skeleton.c0).parent = skeleton.c1


def _c0_missing_an_exponent(skeleton):
    skeleton.node(skeleton.c0).children.pop()


def _orphan(skeleton):
    skeleton.node(skeleton.leaves()[0]).parent = None


def _self_loop_exponent_out_of_range(skeleton):
    _dangling_node(skeleton, attach_exponent=skeleton.k + 1)


def _internal_attached_too_high(skeleton):
    _dangling_node(skeleton, attach_exponent=skeleton.k, internal=True)


def _leaf_with_a_child(skeleton):
    skeleton._add_node(parent=skeleton.leaves()[0], attach_exponent=0)


def _wrong_child_exponent(skeleton):
    v = next(v for v in skeleton.internal_nodes() if v != skeleton.c0)
    skeleton.node(skeleton.children(v)[0]).attach_exponent = skeleton.psi(v)


def _child_without_an_exponent(skeleton):
    # c0 is checked before its children, so c0's own check must name the child.
    skeleton.node(skeleton.children(skeleton.c0)[1]).attach_exponent = None


#: One malformed skeleton per check of ``validate()``, with the message it raises.
OBSERVATION7_VIOLATIONS = [
    (_c0_with_a_parent, "c0 must have no parent"),
    (_c0_missing_an_exponent, "c0 must have children for every exponent"),
    (_orphan, "has no parent"),
    (_self_loop_exponent_out_of_range, "self-loop exponent 4, expected 1..3"),
    (_internal_attached_too_high, "attached with exponent at most k-1"),
    (_leaf_with_a_child, "leaf .* has children"),
    (_wrong_child_exponent, "internal node .* has children"),
    (_child_without_an_exponent, r"skeleton node \d+ has no attach exponent"),
]


class TestObservation7Violations:
    """Each Observation 7 check of ``validate()`` raises ``ValidationFailed``."""

    @pytest.mark.parametrize(
        "break_skeleton,message",
        OBSERVATION7_VIOLATIONS,
        ids=[case.__name__.strip("_") for case, _ in OBSERVATION7_VIOLATIONS],
    )
    def test_violation_raises_validation_failed(self, break_skeleton, message):
        skeleton = ClusterTreeSkeleton(2)
        break_skeleton(skeleton)
        with pytest.raises(ValidationFailed, match=message) as excinfo:
            skeleton.validate()
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, AssertionError)

    def test_directed_edges_refuse_a_node_without_attach_exponent(self):
        skeleton = ClusterTreeSkeleton(1)
        node = _dangling_node(skeleton, attach_exponent=None)
        with pytest.raises(ValidationFailed, match=f"node {node.index} has no attach exponent"):
            skeleton.directed_edges()

    def test_out_label_counts_refuse_a_child_without_attach_exponent(self):
        skeleton = ClusterTreeSkeleton(1)
        child = skeleton.children(skeleton.c0)[0]
        skeleton.node(child).attach_exponent = None
        with pytest.raises(ValidationFailed, match=f"node {child} has no attach exponent"):
            skeleton.out_label_counts(skeleton.c0)


#: Malformed lower-bound structures, each built and checked in a
#: ``python -O`` interpreter, where ``assert`` statements are stripped.
BROKEN_STRUCTURES = {
    "leaf-with-a-child": """
        skeleton = ClusterTreeSkeleton(1)
        skeleton._add_node(parent=skeleton.leaves()[0], attach_exponent=0)
        skeleton.validate()
    """,
    "wrong-child-exponent": """
        skeleton = ClusterTreeSkeleton(2)
        v = next(v for v in skeleton.internal_nodes() if v != skeleton.c0)
        skeleton.node(skeleton.children(v)[0]).attach_exponent = skeleton.psi(v)
        skeleton.validate()
    """,
    "wrong-cluster-degree": """
        gk = build_base_graph(k=0, beta=2)
        u = gk.clusters[gk.skeleton.c0][0]
        gk.graph.remove_edge(u, next(iter(gk.graph.neighbors(u))))
        gk.validate_degrees()
    """,
}


@pytest.mark.parametrize("case", sorted(BROKEN_STRUCTURES))
def test_checks_survive_python_O(case):
    """Observation 7 and the biregular degrees are checked under ``-O`` too."""
    script = (
        "import sys\n"
        "from repro.core.errors import ValidationFailed\n"
        "from repro.lowerbound.base_graph import build_base_graph\n"
        "from repro.lowerbound.cluster_tree import ClusterTreeSkeleton\n"
        "print('optimize', sys.flags.optimize)\n"
        "try:\n"
        + textwrap.indent(textwrap.dedent(BROKEN_STRUCTURES[case]).strip(), "    ")
        + "\nexcept AssertionError as error:\n"
        "    print(type(error).__name__, isinstance(error, ValidationFailed))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["optimize 1", "ValidationFailed True"]
