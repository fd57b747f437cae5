"""Tests for ``repro.graphs.transforms``: line graphs, powers, unions, and
the two-copies-plus-perfect-matching operation of Theorem 17, including
round-trips through small :class:`Network` objects."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs import transforms
from repro.local.network import Network


class TestLineGraph:
    def test_path_line_graph_is_shorter_path(self):
        h, vertex_to_edge = transforms.line_graph(nx.path_graph(5))
        assert h.number_of_nodes() == 4
        assert nx.is_isomorphic(h, nx.path_graph(4))
        assert sorted(vertex_to_edge.values()) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_cycle_line_graph_is_cycle(self):
        h, _ = transforms.line_graph(nx.cycle_graph(6))
        assert nx.is_isomorphic(h, nx.cycle_graph(6))

    def test_star_line_graph_is_complete(self):
        h, _ = transforms.line_graph(nx.star_graph(4))
        assert nx.is_isomorphic(h, nx.complete_graph(4))

    def test_matches_networkx_line_graph(self):
        g = nx.gnp_random_graph(15, 0.3, seed=2)
        h, vertex_to_edge = transforms.line_graph(g)
        assert nx.is_isomorphic(h, nx.line_graph(g))
        # The vertex ↔ edge mapping is a bijection onto the original edges.
        assert sorted(vertex_to_edge.values()) == sorted(tuple(sorted(e)) for e in g.edges())

    def test_mis_of_line_graph_is_matching(self):
        """The Section 1.1 correspondence on a concrete graph."""
        g = nx.cycle_graph(7)
        h, vertex_to_edge = transforms.line_graph(g)
        mis = nx.maximal_independent_set(h, seed=3)
        matching = [vertex_to_edge[i] for i in mis]
        endpoints = [v for e in matching for v in e]
        assert len(endpoints) == len(set(endpoints))  # no shared endpoint

    def test_round_trip_through_network(self):
        g = nx.cycle_graph(5)
        h, _ = transforms.line_graph(g)
        network = Network.from_graph(h)
        assert network.n == 5
        assert network.m == h.number_of_edges()
        assert nx.is_isomorphic(network.to_networkx(), h)


class TestPowerGraph:
    def test_square_of_path(self):
        p2 = transforms.power_graph(nx.path_graph(5), 2)
        expected = {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}
        assert {tuple(sorted(e)) for e in p2.edges()} == expected

    def test_k_at_least_diameter_gives_complete(self):
        g = nx.path_graph(6)
        p = transforms.power_graph(g, 5)
        assert nx.is_isomorphic(p, nx.complete_graph(6))

    def test_power_one_is_identity(self):
        g = nx.gnp_random_graph(12, 0.25, seed=4)
        p1 = transforms.power_graph(g, 1)
        assert set(map(tuple, map(sorted, p1.edges()))) == set(
            map(tuple, map(sorted, g.edges()))
        )

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            transforms.power_graph(nx.path_graph(3), 0)


class TestDisjointUnion:
    def test_sizes_and_maps(self):
        a, b = nx.cycle_graph(4), nx.path_graph(3)
        union, map_a, map_b = transforms.disjoint_union(a, b)
        assert union.number_of_nodes() == 7
        assert union.number_of_edges() == a.number_of_edges() + b.number_of_edges()
        assert set(map_a.values()) | set(map_b.values()) == set(range(7))
        assert set(map_a.values()).isdisjoint(set(map_b.values()))

    def test_components_preserved(self):
        union, _, _ = transforms.disjoint_union(nx.cycle_graph(4), nx.cycle_graph(5))
        components = sorted(len(c) for c in nx.connected_components(union))
        assert components == [4, 5]

    def test_round_trip_through_network(self):
        union, _, _ = transforms.disjoint_union(nx.cycle_graph(3), nx.path_graph(4))
        network = Network.from_graph(union)
        assert network.n == 7
        assert network.m == union.number_of_edges()


class TestTwoCopiesWithPerfectMatching:
    def test_identity_partner(self):
        g = nx.cycle_graph(5)
        union, map_a, map_b, matching = transforms.two_copies_with_perfect_matching(g)
        assert union.number_of_nodes() == 10
        assert union.number_of_edges() == 2 * g.number_of_edges() + 5
        assert len(matching) == 5
        matched = [v for e in matching for v in e]
        assert sorted(matched) == list(range(10))  # perfect: every vertex once
        for v in g.nodes():
            e = tuple(sorted((map_a[v], map_b[v])))
            assert e in {tuple(sorted(x)) for x in matching}

    def test_permutation_partner(self):
        g = nx.path_graph(4)
        partner = lambda v: (v + 1) % 4  # noqa: E731 - a bijection
        union, map_a, map_b, matching = transforms.two_copies_with_perfect_matching(g, partner)
        matched = [v for e in matching for v in e]
        assert sorted(matched) == list(range(8))
        assert tuple(sorted((map_a[0], map_b[1]))) in {tuple(sorted(e)) for e in matching}

    def test_non_bijective_partner_raises(self):
        with pytest.raises(ValueError):
            transforms.two_copies_with_perfect_matching(nx.path_graph(3), lambda v: 0)

    def test_partner_outside_graph_raises(self):
        with pytest.raises(ValueError):
            transforms.two_copies_with_perfect_matching(nx.path_graph(3), lambda v: v + 10)

    def test_matching_is_valid_on_network(self):
        """The construction's matching validates as a matching of the union."""
        from repro.core import problems

        g = nx.cycle_graph(4)
        union, _, _, matching = transforms.two_copies_with_perfect_matching(g)
        network = Network.from_graph(union)
        edge_outputs = {e: (e in set(matching)) for e in network.edges}
        # A perfect matching is in particular a maximal one.
        assert problems.MAXIMAL_MATCHING.validate_network(network, None, edge_outputs)
