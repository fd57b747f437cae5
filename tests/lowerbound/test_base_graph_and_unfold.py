"""Construction-invariant tests for repro.lowerbound.base_graph and unfold.

The base graph ``G_k`` (Section 4.6) and the tree unfoldings (Theorem 16's
tree instances) were previously only exercised indirectly through the
isomorphism tests; these tests pin the constructions themselves — cluster
sizes, prescribed biregular degrees, edge labels, divisibility errors — plus
a small end-to-end lift of a base graph (``lift_cluster_graph``), which must
preserve the cluster structure and every biregular degree requirement.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.lowerbound.base_graph import ClusterTreeGraph, build_base_graph
from repro.lowerbound.lift import lift_cluster_graph
from repro.lowerbound.unfold import tree_view_instance, unfold_view


class TestBuildBaseGraph:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="even integer"):
            build_base_graph(k=0, beta=3)
        with pytest.raises(ValueError, match="even integer"):
            build_base_graph(k=0, beta=0)

    def test_strict_mode_enforces_the_papers_condition(self):
        # 2(k+1)/beta < 1/2 needs beta > 4(k+1): beta=4 fails at k=0.
        with pytest.raises(ValueError, match="strict"):
            build_base_graph(k=0, beta=4, strict=True)
        gk = build_base_graph(k=0, beta=6, strict=True)
        assert gk.beta == 6

    @pytest.mark.parametrize("k,beta", [(0, 2), (0, 4), (1, 2)])
    def test_cluster_sizes_follow_the_formula(self, k, beta):
        gk = build_base_graph(k=k, beta=beta)
        half = beta // 2
        for node in gk.skeleton.nodes:
            depth = gk.skeleton.depth(node.index)
            expected = 2 * beta ** (k + 1) * half ** (k + 1 - depth)
            assert len(gk.clusters[node.index]) == expected
        assert gk.n == sum(len(members) for members in gk.clusters.values())
        assert gk.n == gk.graph.number_of_nodes()

    def test_cluster_bookkeeping_is_a_partition(self):
        gk = build_base_graph(k=0, beta=4)
        seen = set()
        for cluster, members in gk.clusters.items():
            for vertex in members:
                assert gk.cluster_of[vertex] == cluster
                assert vertex not in seen
                seen.add(vertex)
        assert seen == set(range(gk.n))

    def test_s_c0_is_an_independent_set(self):
        gk = build_base_graph(k=0, beta=4)
        s0 = set(gk.special_cluster(0))
        for u, v in gk.graph.edges():
            assert not (u in s0 and v in s0)
        with pytest.raises(ValueError):
            gk.special_cluster(2)

    @pytest.mark.parametrize("k,beta", [(0, 2), (0, 4), (1, 2)])
    def test_prescribed_biregular_degrees_hold(self, k, beta):
        gk = build_base_graph(k=k, beta=beta)
        gk.validate_degrees()  # raises AssertionError on any violation
        assert max(d for _, d in gk.graph.degree()) <= gk.max_degree_bound()

    def test_edge_labels_are_direction_dependent(self):
        gk = build_base_graph(k=0, beta=4)
        c0, c1 = gk.skeleton.c0, gk.skeleton.c1
        u = gk.clusters[c0][0]
        neighbor = next(
            v for v in gk.graph.neighbors(u) if gk.cluster_of[v] == c1
        )
        # c0 reaches its child with 2*beta^0; the child reaches back with beta^psi.
        assert gk.edge_label(u, neighbor) == (0, False)
        assert gk.edge_label(neighbor, u) == (1, False)
        # Intra-cluster edges of S(c1) carry the self marker with exponent psi.
        v = gk.clusters[c1][0]
        internal = next(
            w for w in gk.graph.neighbors(v) if gk.cluster_of[w] == c1
        )
        assert gk.edge_label(v, internal) == (1, True)

    def test_edge_label_rejects_non_adjacent_clusters_and_s0_self_edges(self):
        gk = build_base_graph(k=1, beta=2)
        a, b = gk.clusters[gk.skeleton.c0][:2]
        with pytest.raises(ValueError, match="independent set"):
            gk.edge_label(a, b)

    def test_seed_changes_matchings_not_structure(self):
        first = build_base_graph(k=0, beta=4, seed=0)
        second = build_base_graph(k=0, beta=4, seed=1)
        assert first.n == second.n
        assert first.graph.number_of_edges() == second.graph.number_of_edges()
        second.validate_degrees()

    def test_k_property(self):
        assert build_base_graph(k=1, beta=2).k == 1


class TestUnfoldView:
    def test_unfolding_is_a_tree_rooted_at_the_center(self):
        gk = build_base_graph(k=0, beta=4)
        center = gk.special_cluster(0)[0]
        tree, origin, root = unfold_view(gk, center, radius=2)
        assert nx.is_tree(tree)
        assert origin[root] == center
        assert tree.degree(root) == gk.graph.degree(center)

    def test_origin_maps_tree_edges_to_graph_edges(self):
        gk = build_base_graph(k=0, beta=4)
        center = gk.special_cluster(1)[0]
        tree, origin, _ = unfold_view(gk, center, radius=2)
        for a, b in tree.edges():
            assert gk.graph.has_edge(origin[a], origin[b])

    def test_radius_zero_is_a_single_node(self):
        gk = build_base_graph(k=0, beta=4)
        tree, origin, root = unfold_view(gk, 0, radius=0)
        assert tree.number_of_nodes() == 1 and origin == {root: 0}

    def test_children_never_step_back_to_the_parent_copy(self):
        gk = build_base_graph(k=0, beta=4)
        center = gk.special_cluster(0)[0]
        tree, origin, root = unfold_view(gk, center, radius=2)
        for child in tree.neighbors(root):
            for grandchild in tree.neighbors(child):
                if grandchild == root:
                    continue
                assert origin[grandchild] != origin[root]


class TestTreeViewInstance:
    def test_instance_is_a_forest_of_the_two_views(self):
        gk = build_base_graph(k=0, beta=4)
        v0 = gk.special_cluster(0)[0]
        v1 = gk.special_cluster(1)[0]
        instance, root0, root1 = tree_view_instance(gk, v0, v1)
        assert isinstance(instance, ClusterTreeGraph)
        assert nx.is_forest(instance.graph)
        assert nx.number_connected_components(instance.graph) == 2
        assert instance.cluster_of[root0] == gk.skeleton.c0
        assert instance.cluster_of[root1] == gk.skeleton.c1

    def test_cluster_membership_is_inherited_from_origins(self):
        gk = build_base_graph(k=0, beta=4)
        v0 = gk.special_cluster(0)[0]
        v1 = gk.special_cluster(1)[0]
        instance, _, _ = tree_view_instance(gk, v0, v1, radius=1)
        for cluster, members in instance.clusters.items():
            for vertex in members:
                assert instance.cluster_of[vertex] == cluster
        assert set(instance.cluster_of) == set(instance.graph.nodes())

    def test_explicit_radius_bounds_the_views(self):
        gk = build_base_graph(k=0, beta=4)
        v0 = gk.special_cluster(0)[0]
        v1 = gk.special_cluster(1)[0]
        small, _, _ = tree_view_instance(gk, v0, v1, radius=1)
        large, _, _ = tree_view_instance(gk, v0, v1, radius=2)
        assert small.graph.number_of_nodes() < large.graph.number_of_nodes()


class TestEndToEndLift:
    def test_lifted_base_graph_keeps_biregular_degrees(self):
        """Small end-to-end lift: G_0 -> order-3 lift, still a member of G_0."""
        base = build_base_graph(k=0, beta=2, seed=1)
        lifted = lift_cluster_graph(base, order=3, seed=2)
        assert lifted.n == 3 * base.n
        assert lifted.beta == base.beta
        assert lifted.skeleton is base.skeleton
        # Fibers stay inside their base vertex's cluster...
        for cluster, members in lifted.clusters.items():
            assert len(members) == 3 * len(base.clusters[cluster])
        # ...so every prescribed biregular degree still holds exactly.
        lifted.validate_degrees()
        # And the lift's views unfold like the base graph's: same root degree.
        v0 = lifted.special_cluster(0)[0]
        tree, _, root = unfold_view(lifted, v0, radius=1)
        assert tree.degree(root) == lifted.graph.degree(v0)
