"""Direct edge-list generators must equal their networkx counterparts.

Every ``*_edges`` generator in :mod:`repro.graphs.generators` promises to be
a **stream-exact** twin of its networkx-backed sibling: for a matching seed
it emits exactly the same edge set (it replays the counterpart's RNG
consumption call for call), just without ever building a ``networkx.Graph``.
These tests pin that contract for the deterministic families and, via
hypothesis-driven seeds, for the randomized ones.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.local.network import Network


def _canon(edges):
    return {(u, v) if u < v else (v, u) for u, v in edges}


def _assert_twin(edge_list, graph):
    n, edges = edge_list
    assert n == graph.number_of_nodes()
    assert len(edges) == graph.number_of_edges()
    assert _canon(edges) == _canon(graph.edges())


class TestDeterministicFamilies:
    @pytest.mark.parametrize("n", [3, 4, 5, 12, 100])
    def test_cycle(self, n):
        _assert_twin(gen.cycle_edges(n), gen.cycle_graph(n))

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_path(self, n):
        _assert_twin(gen.path_edges(n), gen.path_graph(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 9])
    def test_complete(self, n):
        _assert_twin(gen.complete_edges(n), gen.complete_graph(n))

    @pytest.mark.parametrize("leaves", [1, 2, 7, 20])
    def test_star(self, leaves):
        _assert_twin(gen.star_edges(leaves), gen.star_graph(leaves))

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 6), (6, 1), (3, 4), (5, 5)])
    def test_grid(self, rows, cols):
        _assert_twin(gen.grid_edges(rows, cols), gen.grid_graph(rows, cols))

    def test_validation_errors_match(self):
        for direct, legacy, args in [
            (gen.cycle_edges, gen.cycle_graph, (2,)),
            (gen.path_edges, gen.path_graph, (0,)),
            (gen.complete_edges, gen.complete_graph, (0,)),
            (gen.star_edges, gen.star_graph, (0,)),
            (gen.grid_edges, gen.grid_graph, (0, 3)),
        ]:
            with pytest.raises(ValueError):
                direct(*args)
            with pytest.raises(ValueError):
                legacy(*args)


class TestRandomizedFamilies:
    @pytest.mark.parametrize("degree,n", [(3, 10), (4, 20), (5, 16), (2, 9)])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_regular_stream_exact(self, degree, n, seed):
        _assert_twin(
            gen.random_regular_edges(degree, n, seed=seed),
            gen.random_regular_graph(degree, n, seed=seed),
        )

    def test_random_regular_degree_zero_and_errors(self):
        assert gen.random_regular_edges(0, 5) == (5, [])
        with pytest.raises(ValueError):
            gen.random_regular_edges(3, 9)
        with pytest.raises(ValueError):
            gen.random_regular_edges(5, 4)

    @pytest.mark.parametrize("n,deg", [(1, 3.0), (2, 1.0), (30, 4.0), (60, 0.0), (5, 100.0)])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_erdos_renyi_stream_exact(self, n, deg, seed):
        _assert_twin(
            gen.erdos_renyi_edges(n, deg, seed=seed),
            gen.erdos_renyi_graph(n, deg, seed=seed),
        )


class TestNetworkIntegration:
    def test_from_edge_list_equals_from_graph(self):
        """A graph and its (n, edges) twin yield identical networks."""
        import random

        for scheme in ("sequential", "permuted", "random", "adversarial"):
            n, edges = gen.random_regular_edges(4, 30, seed=2)
            direct = Network.from_edge_list(
                n, edges, id_scheme=scheme, rng=random.Random(5)
            )
            via_nx = Network.from_graph(
                gen.random_regular_graph(4, 30, seed=2),
                id_scheme=scheme,
                rng=random.Random(5),
            )
            assert direct.n == via_nx.n and direct.m == via_nx.m
            assert direct.edges == via_nx.edges
            assert direct.identifiers == via_nx.identifiers

    def test_network_from_accepts_all_workload_forms(self):
        from repro.analysis.sweep import network_from

        n, edges = gen.cycle_edges(12)
        from_pair = network_from((n, edges), seed=3)
        from_graph = network_from(gen.cycle_graph(12), seed=3)
        assert from_pair.edges == from_graph.edges
        assert from_pair.identifiers == from_graph.identifiers
        ready = Network.from_edges(n, edges)
        assert network_from(ready, seed=3) is ready

    def test_to_networkx_is_cached(self):
        net = Network.from_edges(*gen.cycle_edges(8))
        assert net.to_networkx() is net.to_networkx()
        exported = net.to_networkx()
        assert exported.number_of_nodes() == 8
        assert _canon(exported.edges()) == _canon(net.edges)


class TestAsArraysTwins:
    """``as_arrays=True`` must emit the exact same edge list as tuple mode.

    The deterministic families build their arrays natively in numpy, so this
    pins that the vectorised constructions reproduce the Python loops
    element for element (same order, not just the same set); the randomized
    families replay the same RNG stream either way.
    """

    CASES = [
        ("cycle_edges", (3,)),
        ("cycle_edges", (17,)),
        ("path_edges", (1,)),
        ("path_edges", (23,)),
        ("complete_edges", (1,)),
        ("complete_edges", (9,)),
        ("star_edges", (1,)),
        ("star_edges", (12,)),
        ("grid_edges", (1, 1)),
        ("grid_edges", (1, 7)),
        ("grid_edges", (5, 1)),
        ("grid_edges", (4, 6)),
        ("random_regular_edges", (3, 18, 4)),
        ("random_regular_edges", (0, 5, 0)),
        ("erdos_renyi_edges", (25, 4.0, 2)),
        ("erdos_renyi_edges", (1, 3.0, 0)),
        ("erdos_renyi_edges", (4, 0.0, 0)),
        ("erdos_renyi_edges", (4, 99.0, 0)),
    ]

    @pytest.mark.parametrize("name,args", CASES)
    def test_array_twin_matches_tuple_twin_exactly(self, name, args):
        from repro.graphs.edgelist import EdgeArrays

        generator = getattr(gen, name)
        n, edges = generator(*args)
        arrays = generator(*args, as_arrays=True)
        assert isinstance(arrays, EdgeArrays)
        assert arrays.n == n
        assert arrays.as_pairs() == [tuple(e) for e in edges]

    def test_provenance_metadata_names_the_family(self):
        assert gen.cycle_edges(5, as_arrays=True).meta["family"] == "cycle"
        assert gen.grid_edges(2, 3, as_arrays=True).meta == {
            "family": "grid",
            "rows": 2,
            "cols": 3,
        }
        regular = gen.random_regular_edges(4, 10, seed=3, as_arrays=True)
        assert regular.meta["family"] == "random_regular"
        assert regular.meta["seed"] == 3

    def test_network_from_edge_arrays_equals_tuple_network(self):
        arrays = gen.grid_edges(6, 5, as_arrays=True)
        n, edges = gen.grid_edges(6, 5)
        a = Network.from_edge_arrays(arrays)
        b = Network.from_edge_list(n, edges)
        assert a.edges == b.edges
        assert [a.neighbors(v) for v in a.vertices] == [b.neighbors(v) for v in b.vertices]
