"""Tests for graph generators, girth utilities, and transforms."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.graphs import girth as gi
from repro.graphs import transforms as tr


class TestGenerators:
    @pytest.mark.parametrize("n", [3, 5, 12, 30])
    def test_cycle(self, n):
        g = gen.cycle_graph(n)
        assert g.number_of_nodes() == n and g.number_of_edges() == n
        assert all(d == 2 for _, d in g.degree())

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            gen.cycle_graph(2)

    @pytest.mark.parametrize("degree,n", [(3, 10), (4, 20), (5, 16)])
    def test_random_regular(self, degree, n):
        g = gen.random_regular_graph(degree, n, seed=1)
        assert all(d == degree for _, d in g.degree())

    def test_random_regular_parity_check(self):
        with pytest.raises(ValueError):
            gen.random_regular_graph(3, 9)

    def test_erdos_renyi_degree_target(self):
        g = gen.erdos_renyi_graph(200, 6.0, seed=2)
        average = 2 * g.number_of_edges() / 200
        assert 4.0 < average < 8.0

    def test_erdos_renyi_single_node(self):
        g = gen.erdos_renyi_graph(1, 3.0)
        assert g.number_of_nodes() == 1 and g.number_of_edges() == 0

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_random_tree(self, n):
        g = gen.random_tree(n, seed=5)
        assert g.number_of_nodes() == n
        assert nx.is_tree(g)

    def test_grid(self):
        g = gen.grid_graph(4, 5)
        assert g.number_of_nodes() == 20
        assert set(g.nodes()) == set(range(20))

    def test_star(self):
        g = gen.star_graph(7)
        assert g.degree(0) == 7


class TestGirth:
    def test_tree_has_infinite_girth(self):
        assert gi.girth(nx.balanced_tree(2, 3)) == math.inf

    def test_cycle_girth(self):
        assert gi.girth(nx.cycle_graph(9)) == 9

    def test_complete_graph_girth(self):
        assert gi.girth(nx.complete_graph(5)) == 3

    def test_petersen_girth(self):
        assert gi.girth(nx.petersen_graph()) == 5

    def test_shortest_cycle_through_vertex(self):
        g = nx.cycle_graph(8)
        g.add_edge(0, 4)  # chord creating 5-cycles through 0 and 4
        assert gi.shortest_cycle_through(g, 0) == 5
        assert gi.shortest_cycle_through(g, 2) == 5

    def test_shortest_cycle_through_acyclic(self):
        assert gi.shortest_cycle_through(nx.path_graph(5), 2) == math.inf

    def test_has_cycle_within_distance(self):
        g = nx.cycle_graph(10)
        assert not gi.has_cycle_within_distance(g, 0, 4)
        assert gi.has_cycle_within_distance(g, 0, 10)

    def test_tree_like_nodes_of_lollipop(self):
        # Triangle with a long tail: tail nodes far from the triangle are tree-like.
        g = nx.cycle_graph(3)
        g.add_edges_from([(2, 3), (3, 4), (4, 5), (5, 6)])
        tree_like = gi.nodes_with_tree_like_view(g, 2)
        assert 6 in tree_like and 0 not in tree_like

    def test_tree_like_views_of_a_random_regular_graph(self):
        g = nx.random_regular_graph(3, 30, seed=1)
        tree_like = gi.nodes_with_tree_like_view(g, 2)
        assert tree_like <= set(g.nodes())
        assert all(not gi.has_cycle_within_distance(g, v, 2) for v in tree_like)


class TestTransforms:
    def test_line_graph_of_path(self):
        h, vertex_to_edge = tr.line_graph(nx.path_graph(5))
        assert h.number_of_nodes() == 4
        assert h.number_of_edges() == 3
        assert set(vertex_to_edge.values()) == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_line_graph_of_star_is_clique(self):
        h, _ = tr.line_graph(nx.star_graph(4))
        assert h.number_of_edges() == 6  # K4

    def test_matching_in_g_is_mis_in_line_graph(self):
        from repro.algorithms.matching.sequential import sequential_greedy_matching
        from repro.core.problems import is_maximal_independent_set

        g = nx.gnp_random_graph(20, 0.2, seed=9)
        matching = sequential_greedy_matching(g)
        h, vertex_to_edge = tr.line_graph(g)
        selected = {i: vertex_to_edge[i] in matching for i in h.nodes()}
        assert is_maximal_independent_set(h, selected)

    def test_power_graph_of_path(self):
        p2 = tr.power_graph(nx.path_graph(5), 2)
        assert p2.has_edge(0, 2) and not p2.has_edge(0, 3)

    def test_power_graph_k_one_is_identity(self):
        g = nx.gnp_random_graph(15, 0.2, seed=10)
        p1 = tr.power_graph(g, 1)
        assert set(p1.edges()) == {tuple(sorted(e)) for e in g.edges()}

    def test_power_graph_invalid_k(self):
        with pytest.raises(ValueError):
            tr.power_graph(nx.path_graph(3), 0)

    def test_disjoint_union_sizes(self):
        union, map_a, map_b = tr.disjoint_union(nx.path_graph(3), nx.cycle_graph(4))
        assert union.number_of_nodes() == 7
        assert union.number_of_edges() == 6
        assert set(map_a.values()).isdisjoint(set(map_b.values()))

    def test_two_copies_with_perfect_matching(self):
        g = nx.cycle_graph(6)
        union, map_a, map_b, matching = tr.two_copies_with_perfect_matching(g)
        assert union.number_of_nodes() == 12
        assert len(matching) == 6
        assert union.number_of_edges() == 2 * 6 + 6
        for a, b in matching:
            assert union.has_edge(a, b)

    def test_two_copies_custom_partner(self):
        g = nx.path_graph(4)
        union, _, _, matching = tr.two_copies_with_perfect_matching(g, partner=lambda v: (v + 1) % 4)
        assert len(matching) == 4

    def test_two_copies_partner_must_be_vertex(self):
        with pytest.raises(ValueError):
            tr.two_copies_with_perfect_matching(nx.path_graph(3), partner=lambda v: v + 10)


class TestPropertyBased:
    @given(st.integers(min_value=3, max_value=25))
    @settings(max_examples=20, deadline=None)
    def test_line_graph_degree_sum_identity(self, n):
        g = nx.cycle_graph(n)
        h, _ = tr.line_graph(g)
        # For a cycle the line graph is again a cycle of the same length.
        assert h.number_of_nodes() == n and h.number_of_edges() == n

    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_power_graph_contains_original(self, n, k):
        g = nx.path_graph(n)
        pk = tr.power_graph(g, k)
        for u, v in g.edges():
            assert pk.has_edge(u, v)
