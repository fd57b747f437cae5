"""Direct edge-list generators must equal their networkx counterparts.

Every ``*_edges`` generator in :mod:`repro.graphs.generators` promises to be
a **stream-exact** twin of its networkx-backed sibling: for a matching seed
it emits exactly the same edge set (it replays the counterpart's RNG
consumption call for call), just without ever building a ``networkx.Graph``.
These tests pin that contract for the deterministic families and, via
hypothesis-driven seeds, for the randomized ones, comparing the returned
:class:`EdgeArrays` through :meth:`EdgeArrays.as_pairs`.  They also pin the
order each generator documents for its edges, entry for entry.
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.graphs.edgelist import EdgeArrays
from repro.local.network import Network


def _canon(edges):
    return {(u, v) if u < v else (v, u) for u, v in edges}


def _assert_twin(arrays, graph):
    assert isinstance(arrays, EdgeArrays)
    edges = arrays.as_pairs()
    assert arrays.n == graph.number_of_nodes()
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
        empty = gen.random_regular_edges(0, 5)
        assert (empty.n, empty.m) == (5, 0)
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
    def test_pairs_and_arrays_equal_from_graph(self):
        """A graph, its edge arrays and their pairs yield identical networks."""
        import random

        for scheme in ("sequential", "permuted", "random", "adversarial"):
            arrays = gen.random_regular_edges(4, 30, seed=2)
            via_nx = Network.from_graph(
                gen.random_regular_graph(4, 30, seed=2),
                id_scheme=scheme,
                rng=random.Random(5),
            )
            for direct in (
                Network.from_edge_arrays(arrays, id_scheme=scheme, rng=random.Random(5)),
                Network.from_edge_arrays(
                    EdgeArrays.from_pairs(arrays.n, arrays.as_pairs()),
                    id_scheme=scheme,
                    rng=random.Random(5),
                ),
            ):
                assert direct.n == via_nx.n and direct.m == via_nx.m
                assert direct.edges == via_nx.edges
                assert direct.identifiers == via_nx.identifiers

    def test_resolve_network_accepts_all_workload_forms(self):
        from repro.core.experiment import resolve_network

        arrays = gen.cycle_edges(12)
        from_arrays = resolve_network(arrays, seed=3)
        from_graph = resolve_network(gen.cycle_graph(12), seed=3)
        assert from_arrays.edges == from_graph.edges
        assert from_arrays.identifiers == from_graph.identifiers
        ready = Network.from_edge_arrays(arrays)
        assert resolve_network(ready, seed=3) is ready

    def test_network_canonicalises_the_grid_block_order(self):
        """The grid lists its right-going block before its down-going one;
        every construction path sorts that into the same network."""
        arrays = gen.grid_edges(6, 5)
        via_arrays = Network.from_edge_arrays(arrays)
        via_pairs = Network.from_edge_arrays(
            EdgeArrays.from_pairs(arrays.n, arrays.as_pairs())
        )
        via_nx = Network.from_graph(gen.grid_graph(6, 5))
        assert via_arrays.edges == tuple(sorted(arrays.as_pairs()))
        assert via_arrays.edges == via_pairs.edges == via_nx.edges
        assert [via_arrays.neighbors(v) for v in via_arrays.vertices] == [
            via_nx.neighbors(v) for v in via_nx.vertices
        ]

    def test_to_networkx_is_cached(self):
        net = Network.from_edge_arrays(gen.cycle_edges(8))
        assert net.to_networkx() is net.to_networkx()
        exported = net.to_networkx()
        assert exported.number_of_nodes() == 8
        assert _canon(exported.edges()) == _canon(net.edges)


class TestProvenance:
    def test_provenance_metadata_names_the_family(self):
        assert gen.cycle_edges(5).meta["family"] == "cycle"
        assert gen.grid_edges(2, 3).meta == {
            "family": "grid",
            "rows": 2,
            "cols": 3,
        }
        regular = gen.random_regular_edges(4, 10, seed=3)
        assert regular.meta["family"] == "random_regular"
        assert regular.meta["seed"] == 3


def _documented_order(name, args):
    """``(n, pairs)`` in the edge order ``name``'s docstring gives.

    Plain loops spell out the deterministic families; the randomized ones
    list their networkx twin's edge set in lexicographic order, which is
    the sorted pairing of ``random_regular_edges`` and the pair loop of
    ``erdos_renyi_edges``.
    """
    if name == "cycle_edges":
        (n,) = args
        return n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if name == "path_edges":
        (n,) = args
        return n, [(i, i + 1) for i in range(n - 1)]
    if name == "complete_edges":
        (n,) = args
        return n, list(itertools.combinations(range(n), 2))
    if name == "star_edges":
        (leaves,) = args
        return leaves + 1, [(0, i) for i in range(1, leaves + 1)]
    if name == "grid_edges":
        rows, cols = args
        right = [
            (i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)
        ]
        down = [
            (i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)
        ]
        return rows * cols, right + down
    twin = {
        "random_regular_edges": gen.random_regular_graph,
        "erdos_renyi_edges": gen.erdos_renyi_graph,
    }[name](*args)
    return twin.number_of_nodes(), sorted(_canon(twin.edges()))


class TestDocumentedEdgeOrder:
    """Each direct generator returns read-only int64 :class:`EdgeArrays`
    listing its edges in the documented order, at the degenerate sizes too
    (one vertex, a single row or column, degree 0, ``p`` of 0 and past 1)."""

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
    def test_edges_follow_the_documented_order(self, name, args):
        arrays = getattr(gen, name)(*args)
        n, pairs = _documented_order(name, args)
        assert isinstance(arrays, EdgeArrays)
        assert arrays.n == n
        assert arrays.src.dtype == arrays.dst.dtype == np.int64
        assert not (arrays.src.flags.writeable or arrays.dst.flags.writeable)
        assert arrays.as_pairs() == pairs
