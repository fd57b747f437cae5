"""Tests for ``repro.graphs.girth`` (previously the only untested module
alongside ``transforms``): exact girth, per-vertex shortest cycles and
tree-like views."""

from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.graphs import girth as girth_mod


class TestGirth:
    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_cycle_girth_is_n(self, n):
        assert girth_mod.girth(gen.cycle_graph(n)) == n

    def test_tree_girth_is_infinite(self):
        assert girth_mod.girth(nx.balanced_tree(2, 3)) == math.inf
        assert girth_mod.girth(nx.path_graph(10)) == math.inf

    def test_grid_girth_is_four(self):
        assert girth_mod.girth(gen.grid_graph(4, 5)) == 4

    def test_complete_graph_girth_is_three(self):
        assert girth_mod.girth(nx.complete_graph(5)) == 3

    def test_two_cycles_take_the_shorter(self):
        g = nx.disjoint_union(nx.cycle_graph(9), nx.cycle_graph(5))
        assert girth_mod.girth(g) == 5

    def test_chorded_cycle(self):
        """C_8 plus the chord {0, 3} creates a 4-cycle."""
        g = nx.cycle_graph(8)
        g.add_edge(0, 3)
        assert girth_mod.girth(g) == 4

    def test_empty_and_isolated(self):
        assert girth_mod.girth(nx.empty_graph(4)) == math.inf


class TestShortestCycleThrough:
    def test_on_cycle_every_vertex_sees_n(self):
        g = nx.cycle_graph(6)
        for v in g.nodes():
            assert girth_mod.shortest_cycle_through(g, v) == 6

    def test_vertex_off_the_cycle(self):
        """A pendant path hanging off a triangle: its tip lies on no cycle."""
        g = nx.cycle_graph(3)
        g.add_edge(0, 3)
        g.add_edge(3, 4)
        assert girth_mod.shortest_cycle_through(g, 0) == 3
        assert girth_mod.shortest_cycle_through(g, 4) == math.inf

    def test_two_nested_cycles(self):
        """Vertex on the long cycle only reports the long cycle."""
        g = nx.cycle_graph(10)
        g.add_edge(0, 3)  # creates a 4-cycle 0-1-2-3
        assert girth_mod.shortest_cycle_through(g, 1) == 4
        assert girth_mod.shortest_cycle_through(g, 6) == 8  # 3-4-5-6-7-8-9-0 via chord


class TestTreeLikeViews:
    def test_tree_views_always_tree_like(self):
        g = nx.balanced_tree(2, 4)
        for radius in (1, 2, 5):
            assert girth_mod.nodes_with_tree_like_view(g, radius) == set(g.nodes())

    def test_cycle_views_flip_at_half_girth(self):
        g = nx.cycle_graph(12)
        assert girth_mod.nodes_with_tree_like_view(g, 5) == set(g.nodes())
        assert girth_mod.nodes_with_tree_like_view(g, 6) == set()

    def test_has_cycle_within_distance_localises(self):
        """Triangle with a long tail: only vertices near the triangle see it."""
        g = nx.cycle_graph(3)
        prev = 0
        for i in range(3, 9):
            g.add_edge(prev, i)
            prev = i
        # The radius-r view contains the edges incident to vertices at
        # distance ≤ r−1: a triangle vertex sees the closing edge only at
        # radius 2, not radius 1.
        assert not girth_mod.has_cycle_within_distance(g, 0, 1)
        assert girth_mod.has_cycle_within_distance(g, 0, 2)
        assert not girth_mod.has_cycle_within_distance(g, 8, 3)
        # The triangle's far vertices sit at distance 7 from the tail tip,
        # and an edge between two radius-boundary vertices is not part of
        # the radius-r view — the cycle only becomes visible at radius 8.
        assert not girth_mod.has_cycle_within_distance(g, 8, 7)
        assert girth_mod.has_cycle_within_distance(g, 8, 8)

    def test_empty_graph_has_no_views(self):
        assert girth_mod.nodes_with_tree_like_view(nx.empty_graph(0), 2) == set()

    @pytest.mark.parametrize("n", range(3, 11))
    def test_cycle_view_closes_once_twice_the_radius_reaches_n(self, n):
        # Odd n: the two antipodal vertices both sit at distance (n - 1) / 2,
        # so the edge between them joins the view only one radius later.
        g = gen.cycle_graph(n)
        for radius in range(n + 2):
            assert girth_mod.has_cycle_within_distance(g, 0, radius) == (2 * radius >= n)

    def test_radius_zero_view_is_the_vertex_alone(self):
        g = nx.complete_graph(5)
        assert girth_mod.nodes_with_tree_like_view(g, 0) == set(g.nodes())

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_complete_graph_radius_one_view_is_a_star(self, n):
        # Edges between two distance-1 vertices lie outside the radius-1
        # view; at radius 2 they close triangles.
        g = nx.complete_graph(n)
        assert girth_mod.nodes_with_tree_like_view(g, 1) == set(g.nodes())
        assert girth_mod.nodes_with_tree_like_view(g, 2) == set()

    def test_radius_past_the_diameter_sees_the_whole_component(self):
        path = nx.path_graph(4)
        assert girth_mod.nodes_with_tree_like_view(path, 10) == set(path.nodes())
        g = nx.disjoint_union(nx.path_graph(4), nx.cycle_graph(5))
        assert girth_mod.nodes_with_tree_like_view(g, 10) == {0, 1, 2, 3}


def view_oracle(graph: nx.Graph, source: int, radius: int) -> nx.Graph:
    """The ``radius``-hop view built with networkx: every vertex within
    distance ``radius`` and every edge with an endpoint closer than that."""
    dist = nx.single_source_shortest_path_length(graph, source, cutoff=radius)
    view = nx.Graph()
    view.add_nodes_from(dist)
    view.add_edges_from(
        (u, v)
        for u, v in graph.edges(dist)
        if u in dist and v in dist and min(dist[u], dist[v]) < radius
    )
    return view


def _lollipop() -> nx.Graph:
    g = nx.cycle_graph(3)
    g.add_edges_from([(2, 3), (3, 4), (4, 5), (5, 6)])
    return g


def _chorded_cycle() -> nx.Graph:
    g = nx.cycle_graph(10)
    g.add_edge(0, 3)
    return g


ORACLE_GRAPHS = {
    "petersen": nx.petersen_graph,
    "grid-4x5": lambda: gen.grid_graph(4, 5),
    "k33": lambda: nx.complete_bipartite_graph(3, 3),
    "k5": lambda: nx.complete_graph(5),
    "lollipop": _lollipop,
    "chorded-cycle": _chorded_cycle,
    "two-cycles": lambda: nx.disjoint_union(nx.cycle_graph(9), nx.cycle_graph(5)),
    "balanced-tree": lambda: nx.balanced_tree(2, 3),
    "regular3-20": lambda: gen.random_regular_graph(3, 20, seed=4),
    "gnp-30": lambda: gen.erdos_renyi_graph(30, 3.0, seed=5),
}


class TestViewOracle:
    """``has_cycle_within_distance`` counts the view's edges instead of
    building it; a view built explicitly must agree on every vertex."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_matches_the_explicit_view(self, name):
        g = ORACLE_GRAPHS[name]()
        for radius in range(5):
            for v in g.nodes():
                explicit = not nx.is_forest(view_oracle(g, v, radius))
                assert girth_mod.has_cycle_within_distance(g, v, radius) == explicit

    @given(
        n=st.integers(min_value=1, max_value=16),
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
        radius=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_view_is_tree_like_iff_twice_the_radius_is_below_the_girth(
        self, n, p, seed, radius
    ):
        # A view holding a cycle holds one of length at most 2 * radius, and
        # a vertex on a shortest cycle sees it once 2 * radius >= girth.
        g = nx.gnp_random_graph(n, p, seed=seed)
        tree_like = girth_mod.nodes_with_tree_like_view(g, radius)
        assert (tree_like == set(g.nodes())) == (2 * radius < girth_mod.girth(g))

    @given(
        n=st.integers(min_value=1, max_value=16),
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
        radius=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_tree_like_views_shrink_as_the_radius_grows(self, n, p, seed, radius):
        g = nx.gnp_random_graph(n, p, seed=seed)
        wider = girth_mod.nodes_with_tree_like_view(g, radius + 1)
        assert wider <= girth_mod.nodes_with_tree_like_view(g, radius)

