"""Tests for the static network topology and identifier handling."""

from __future__ import annotations

import json
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.edgelist import EdgeArrays
from repro.graphs.generators import cycle_edges
from repro.local import ids
from repro.local.network import Network, canonical_edge


def from_pairs(n, pairs, **kwargs) -> Network:
    """A network on ``(u, v)`` pairs, through ``EdgeArrays.from_pairs``."""
    return Network.from_edge_arrays(EdgeArrays.from_pairs(n, pairs), **kwargs)


@st.composite
def pair_lists(draw):
    """``(n, pairs)``: random pairs without self-loops on ``n ≤ 16`` vertices
    (often leaving some isolated), then some of them again, reversed or not."""
    n = draw(st.integers(0, 16))
    if n < 2:
        return n, []
    vertex = st.integers(0, n - 1)
    pairs = draw(
        st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=2 * n)
    )
    if not pairs:
        return n, pairs
    again = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=n))
    return n, pairs + [(v, u) if flip else (u, v) for (u, v), flip in again]


class TestCanonicalEdge:
    def test_orders_endpoints(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            canonical_edge(3, 3)


class TestNetworkConstruction:
    def test_basic_counts(self):
        net = Network.from_graph(nx.cycle_graph(10))
        assert net.n == 10
        assert net.m == 10
        assert net.max_degree() == 2
        assert net.min_degree() == 2

    def test_neighbors_are_sorted_and_symmetric(self):
        net = Network.from_graph(nx.gnp_random_graph(30, 0.2, seed=1))
        for v in net.vertices:
            assert list(net.neighbors(v)) == sorted(net.neighbors(v))
            for u in net.neighbors(v):
                assert v in net.neighbors(u)

    def test_edges_are_canonical_and_indexed(self):
        net = Network.from_graph(nx.gnp_random_graph(25, 0.2, seed=2))
        for i, (u, v) in enumerate(net.edges):
            assert u < v
            assert net.edge_index(u, v) == i
            assert net.edge_index(v, u) == i
            assert net.has_edge(u, v)

    def test_has_edge_negative(self):
        net = Network.from_graph(nx.path_graph(5))
        assert not net.has_edge(0, 4)
        assert not net.has_edge(2, 2)

    def test_rejects_directed_graph(self):
        with pytest.raises(ValueError):
            Network.from_graph(nx.DiGraph([(0, 1)]))

    def test_rejects_self_loops(self):
        g = nx.Graph()
        g.add_edge(0, 0)
        with pytest.raises(ValueError, match="self-loops"):
            Network.from_graph(g)

    def test_from_pairs(self):
        net = from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        assert net.n == 4
        assert net.m == 3

    def test_pairs_out_of_range_are_refused(self):
        with pytest.raises(ValueError, match="outside 0"):
            from_pairs(3, [(0, 5)])

    @pytest.mark.parametrize(
        "args",
        [(nx.path_graph(3),), (3, [(0, 1)]), ()],
        ids=["graph", "pairs", "nothing"],
    )
    def test_calling_the_class_is_refused(self, args):
        with pytest.raises(TypeError, match="from_edge_arrays"):
            Network(*args)

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 2)],
            (3, [(0, 1), (1, 2)]),
            np.array([[0, 1], [1, 2]]),
            nx.path_graph(3),
            type("Duck", (), {"n": 3, "src": np.array([0, 1]), "dst": np.array([1, 2])})(),
        ],
        ids=["pairs", "n-and-pairs", "pair-array", "networkx", "duck-typed"],
    )
    def test_from_edge_arrays_refuses_anything_but_edge_arrays(self, edges):
        with pytest.raises(TypeError, match="EdgeArrays"):
            Network.from_edge_arrays(edges)

    @pytest.mark.parametrize(
        "pair, edge",
        [
            ((np.int64(0), np.int64(2)), (0, 2)),
            ((True, 2), (1, 2)),
            ((0.0, 1.0), None),
        ],
        ids=["numpy-int64", "bool", "float"],
    )
    def test_pairs_are_stored_as_plain_ints(self, pair, edge):
        if edge is None:
            with pytest.raises(ValueError, match="integer"):
                from_pairs(3, [pair])
            return
        net = from_pairs(3, [pair])
        assert net.edges == (edge,)
        endpoints = net.edges[0] + sum((net.neighbors(v) for v in net.vertices), ())
        assert all(type(x) is int for x in endpoints)
        assert json.loads(json.dumps(net.edges)) == [list(edge)]

    def test_non_integer_labels_are_relabelled(self):
        g = nx.Graph([("a", "b"), ("b", "c")])
        net = Network.from_graph(g)
        assert set(net.vertices) == {0, 1, 2}
        assert net.edges == ((0, 1), (1, 2))  # sorted labels a, b, c

    @pytest.mark.parametrize("v", [-1, 3])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: from_pairs(3, [(0, 1)]),
            lambda: Network.from_graph(nx.Graph([("a", "b"), ("b", "c")])),
            # No edge names vertex 2: the range comes from n, not the edges.
            lambda: from_pairs(3, []),
        ],
        ids=["edges", "networkx", "edgeless"],
    )
    @pytest.mark.parametrize(
        "accessor",
        [
            "identifier",
            "neighbors",
            "degree",
            "incident_edge_indices",
        ],
    )
    def test_vertex_outside_the_network_raises(self, accessor, build, v):
        # A negative index must not wrap to the last vertex's data.
        query = getattr(build(), accessor)
        query(2)
        with pytest.raises(IndexError, match=rf"vertex {v} outside 0\.\.2"):
            query(v)

    def test_to_networkx_round_trip(self):
        g = nx.gnp_random_graph(20, 0.3, seed=5)
        net = Network.from_graph(g)
        exported = net.to_networkx()
        assert exported.number_of_nodes() == g.number_of_nodes()
        assert exported.number_of_edges() == g.number_of_edges()

    def test_degrees_and_rows_describe_the_adjacency(self):
        graph = nx.gnp_random_graph(25, 0.25, seed=4)
        net = Network.from_graph(graph)
        assert int(net.degrees.sum()) == 2 * net.m
        for v in net.vertices:
            row = list(net.neighbors(v))
            assert row == sorted(graph.adj[v])
            assert len(row) == net.degree(v) == net.degrees[v]

    def test_cached_degree_statistics_match_adjacency(self):
        net = Network.from_graph(nx.gnp_random_graph(30, 0.2, seed=6))
        degrees = [net.degree(v) for v in net.vertices]
        assert net.max_degree() == max(degrees)
        assert net.min_degree() == min(degrees)
        assert net.id_bit_length() == max(int(i).bit_length() for i in net.identifiers)

    def test_empty_graph(self):
        net = Network.from_graph(nx.empty_graph(5))
        assert net.m == 0
        assert net.max_degree() == 0


class TestIdentifierSchemes:
    @pytest.mark.parametrize("scheme", ["sequential", "random", "permuted", "adversarial"])
    def test_schemes_give_unique_ids(self, scheme):
        net = Network.from_graph(
            nx.cycle_graph(20), id_scheme=scheme, rng=random.Random(1)
        )
        assert len(set(net.identifiers)) == 20

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            Network.from_graph(nx.cycle_graph(4), id_scheme="nope")

    def test_sequential_scheme_is_the_vertex_order(self):
        assert ids.scheme_ids(4, "sequential").tolist() == [0, 1, 2, 3]
        assert from_pairs(3, [(0, 1)]).identifiers == (0, 1, 2)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 50])
    def test_random_scheme_is_the_seeded_sample(self, n, seed):
        # The draw is ``rng.sample(range(8n²), n)``, and the caller's
        # generator is left where that sample leaves it.
        reference = random.Random(seed)
        expected = reference.sample(range(max(1, 8 * n * n)), n)
        rng = random.Random(seed)
        net = from_pairs(n, [], id_scheme="random", rng=rng)
        assert net.identifiers == tuple(expected)
        assert rng.getstate() == reference.getstate()

    def test_permuted_scheme_is_a_permutation(self):
        net = Network.from_edge_arrays(
            cycle_edges(30), id_scheme="permuted", rng=random.Random(4)
        )
        assert sorted(net.identifiers) == list(range(30))

    def test_adversarial_scheme_spacing(self):
        net = Network.from_edge_arrays(cycle_edges(5), id_scheme="adversarial")
        assert net.identifiers == (0, 1 << 16, 2 << 16, 3 << 16, 4 << 16)
        assert net.id_bit_length() == 19


class TestIdentifierStorage:
    """Identifiers are one read-only int64 array in vertex order; explicit
    values are one integer per vertex, refused outside ``[0, 2**63 - 1]``."""

    @staticmethod
    def build(identifiers, **kwargs) -> Network:
        return from_pairs(3, [(0, 1), (1, 2)], identifiers=identifiers, **kwargs)

    @pytest.mark.parametrize("too_big", [2**63, 2**64])
    def test_identifiers_past_int64_are_refused(self, too_big):
        # The array engine and the graph-cache store hold identifiers as
        # int64, so the build refuses these up front instead of letting
        # those layers overflow.
        with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
            self.build([too_big, 5, 7])

    def test_largest_int64_identifier_is_accepted(self):
        net = self.build([2**63 - 1, 5, 7])
        assert net.identifiers == (2**63 - 1, 5, 7)
        assert net.id_bit_length() == 63
        assert net.identifier(0) == ids.MAX_ID and type(net.identifier(0)) is int

    def test_array_engine_runs_on_the_largest_identifier(self):
        from repro.algorithms.mis.luby import LubyMISArray
        from repro.core import problems
        from repro.local.engine import ArrayEngine

        net = self.build([2**63 - 1, 5, 7])
        trace = ArrayEngine().run(LubyMISArray(), net, problems.MIS, seed=1)
        assert trace.validate()

    @pytest.mark.parametrize(
        "identifiers, message",
        [
            ([-(2**64), 5, 7], "non-negative"),
            ([-1, 5, 7], "non-negative"),
            ([1.5, 5, 7], "integers"),
            (["a", 5, 7], "integers"),
            ([2**64, 5, 7], r"2\*\*63 - 1"),
            ([1, 5, 1], "unique"),
            ([1, 5], "expected 3 identifiers"),
            ([1, 5, 7, 9], "expected 3 identifiers"),
        ],
        ids=[
            "below-int64",
            "negative",
            "float",
            "string",
            "past-int64",
            "duplicate",
            "too-few",
            "too-many",
        ],
    )
    def test_explicit_identifiers_name_the_fault(self, identifiers, message):
        with pytest.raises(ValueError, match=message):
            self.build(identifiers)

    def test_a_mapping_is_refused(self):
        # Iterating a mapping would read its keys as the identifiers.
        with pytest.raises(TypeError, match="one integer per vertex"):
            self.build({0: 9, 1: 8, 2: 7})

    @pytest.mark.parametrize(
        "scheme",
        [{"id_scheme": "permuted"}, {"id_scheme": "random"}, {"rng": random.Random(1)}],
        ids=["permuted", "random", "rng"],
    )
    def test_identifiers_and_id_scheme_are_mutually_exclusive(self, scheme):
        with pytest.raises(ValueError, match="not both"):
            self.build([0, 1, 2], **scheme)

    def test_numpy_and_bool_identifiers_are_stored_as_ints(self):
        net = from_pairs(
            3, [(0, 1)], identifiers=[np.uint64(9), True, np.int32(4)]
        )
        assert net.identifiers == (9, 1, 4)
        assert all(type(i) is int for i in net.identifiers)

    @pytest.mark.parametrize("scheme", ["sequential", "random", "permuted", "adversarial"])
    def test_storage_is_one_read_only_int64_array(self, scheme):
        net = Network.from_edge_arrays(
            cycle_edges(20), id_scheme=scheme, rng=random.Random(1)
        )
        array = net.identifier_array
        assert array.dtype == np.int64 and array.shape == (20,)
        assert not array.flags.writeable
        # The tuple view is built on first use only, as plain ints.
        assert net._ids_cache is None
        assert net.identifier(3) == int(array[3])
        assert net.id_bit_length() == int(array.max()).bit_length()
        assert net._ids_cache is None
        assert net.identifiers == tuple(array.tolist())
        assert net.identifiers is net.identifiers


class TestIdentifierSeedSchedule:
    """The permuted scheme is ``random.Random(seed).shuffle(list(range(n)))``.

    The runner digests pin traces that depend on these identifiers, so the
    schedule is part of contract (1): the identifiers, and the state the
    caller's generator is left in, match a plain shuffle exactly.
    """

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 5_000])
    def test_permuted_identifiers_are_the_seeded_shuffle(self, n, seed):
        reference = random.Random(seed)
        expected = list(range(n))
        reference.shuffle(expected)

        rng = random.Random(seed)
        path = [(v, v + 1) for v in range(n - 1)]
        net = from_pairs(n, path, id_scheme="permuted", rng=rng)
        assert net.identifiers == tuple(expected)
        assert all(type(i) is int for i in net.identifiers)
        assert rng.getstate() == reference.getstate()


class TestFromEdgeArrays:
    """The one vectorised numpy build (Network.from_edge_arrays)."""

    def _assert_indistinguishable(self, a: Network, b: Network) -> None:
        assert (a.n, a.m) == (b.n, b.m)
        assert a.edges == b.edges
        assert [a.neighbors(v) for v in a.vertices] == [b.neighbors(v) for v in b.vertices]
        assert a.identifiers == b.identifiers
        assert (a.max_degree(), a.min_degree()) == (b.max_degree(), b.min_degree())
        assert a.id_bit_length() == b.id_bit_length()
        assert np.array_equal(a.degrees, b.degrees)
        ea, eb = a.edge_endpoints(), b.edge_endpoints()
        assert np.array_equal(ea[0], eb[0]) and np.array_equal(ea[1], eb[1])

    def test_graph_pairs_and_arrays_build_one_network(self):
        from repro.graphs.generators import random_regular_edges

        arrays = random_regular_edges(4, 200, seed=1)
        graph = nx.Graph(arrays.as_pairs())
        builds = [
            Network.from_edge_arrays(arrays, "permuted", random.Random(7)),
            from_pairs(
                arrays.n, arrays.as_pairs()[::-1], id_scheme="permuted", rng=random.Random(7)
            ),
            Network.from_graph(graph, "permuted", random.Random(7)),
        ]
        for other in builds[1:]:
            self._assert_indistinguishable(builds[0], other)

    def test_endpoint_orientation_is_free(self):
        swapped = Network.from_edge_arrays(EdgeArrays(4, [1, 3, 2], [0, 2, 1]))
        assert swapped.edges == ((0, 1), (1, 2), (2, 3))

    def test_duplicate_edges_removed(self):
        net = Network.from_edge_arrays(EdgeArrays(3, [0, 1, 1, 0], [1, 0, 2, 1]))
        assert net.m == 2
        assert net.edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Network.from_edge_arrays(EdgeArrays(4, [0, 1, 2], [1, 2, 3])),
            lambda: from_pairs(4, [(0, 1), (1, 2), (2, 3)]),
            lambda: Network.from_graph(nx.path_graph(4)),
        ],
        ids=["from_edge_arrays", "from_pairs", "from_graph"],
    )
    def test_rows_and_edges_are_lazy_until_asked(self, build):
        net = build()
        assert net._rows is None and net._edges_cache is None
        # flat consumers never materialise them
        assert int(net.degrees.sum()) == 2 * net.m
        degrees = [net.degree(v) for v in net.vertices]
        assert all(type(d) is int for d in degrees)
        assert net._rows is None and net._edges_cache is None
        # a per-node consumer derives them on demand, as plain-int tuples
        assert net.neighbors(1) == (0, 2)
        assert all(type(u) is int for u in net.neighbors(1))
        assert net.edges[0] == (0, 1)
        assert all(type(x) is int for x in net.edges[0])
        assert degrees == [len(net.neighbors(v)) for v in net.vertices]

    @settings(max_examples=80, deadline=None)
    @given(pair_lists())
    def test_rows_are_the_sorted_networkx_adjacency(self, case):
        n, pairs = case
        net = from_pairs(n, pairs)
        graph = nx.empty_graph(n)
        graph.add_edges_from(pairs)
        assert [net.neighbors(v) for v in net.vertices] == [
            tuple(sorted(graph.adj[v])) for v in range(n)
        ]
        assert net.degrees.tolist() == [graph.degree(v) for v in range(n)]
        assert net.edges == tuple(sorted(canonical_edge(u, v) for u, v in graph.edges()))

    @pytest.mark.parametrize(
        "identifiers",
        [{"id_scheme": "no-such-scheme"}, {"identifiers": {}}],
        ids=["scheme", "explicit"],
    )
    def test_vertex_counts_from_3e9_are_refused_first(self, identifiers):
        # Packed edge keys u·n + v need n² < 2⁶³ (n below about 3.04·10⁹).
        # The refusal comes before the identifiers: each identifier source
        # here would raise otherwise, at once and without allocating.
        with pytest.raises(ValueError, match="too large"):
            Network.from_edge_arrays(EdgeArrays(3_000_000_000, [], []), **identifiers)

    def test_self_loops_rejected_with_canonical_error(self):
        with pytest.raises(ValueError, match="self-loops"):
            Network.from_edge_arrays(EdgeArrays(3, [0, 1], [1, 1]))

    def test_empty_and_edgeless_graphs(self):
        empty = from_pairs(0, [])
        assert empty.n == 0 and empty.m == 0 and empty.edges == ()
        edgeless = from_pairs(5, [])
        assert edgeless.m == 0
        assert edgeless.max_degree() == 0 and edgeless.min_degree() == 0
        assert [edgeless.neighbors(v) for v in edgeless.vertices] == [()] * 5

    def test_sequential_default_matches_explicit_sequential(self):
        default = from_pairs(4, [(0, 1), (1, 2)])
        explicit = from_pairs(4, [(0, 1), (1, 2)], identifiers=range(4))
        assert default.identifiers == explicit.identifiers == (0, 1, 2, 3)
        assert default.id_bit_length() == explicit.id_bit_length() == 2

    def test_from_edge_arrays_consumes_the_interchange(self):
        from repro.graphs.edgelist import EdgeArrays

        arrays = EdgeArrays(n=4, src=[0, 1, 2], dst=[1, 2, 3])
        net = Network.from_edge_arrays(arrays)
        assert net.edges == ((0, 1), (1, 2), (2, 3))
        assert net.identifiers == (0, 1, 2, 3)

    def test_traces_identical_across_construction_paths(self):
        """Seed-for-seed trace identity: the acceptance invariant of the array path."""
        from repro.algorithms.mis.luby import LubyMIS
        from repro.core import problems
        from repro.graphs.generators import random_regular_edges
        from repro.local.runner import Runner

        arrays = random_regular_edges(4, 120, seed=2)
        graph_net = Network.from_graph(
            nx.Graph(arrays.as_pairs()), "permuted", random.Random(9)
        )
        array_net = Network.from_edge_arrays(arrays, "permuted", random.Random(9))
        runner = Runner(max_rounds=500)
        for seed in (0, 1):
            a = runner.run(LubyMIS(), graph_net, problems.MIS, seed=seed)
            b = runner.run(LubyMIS(), array_net, problems.MIS, seed=seed)
            assert a.node_outputs == b.node_outputs
            assert a.node_commit_round == b.node_commit_round
            assert a.rounds == b.rounds
            assert a.total_messages == b.total_messages


class TestHotPathLaziness:
    """Array-built networks must not materialise their lazy per-edge or
    per-row tuple views on the edge-index paths."""

    def _gnp_array_network(self, n=200, seed=3):
        from repro.graphs.generators import fast_gnp_edges

        return Network.from_edge_arrays(fast_gnp_edges(n, 6.0 / (n - 1), seed=seed))

    def test_packed_edge_index_avoids_the_tuple_views(self):
        net = self._gnp_array_network()
        us, vs = net.edge_endpoints()
        u, v = int(us[0]), int(vs[0])
        assert net.has_edge(u, v) and net.has_edge(v, u)
        assert net.edge_index(u, v) == 0
        with pytest.raises(KeyError):
            net.edge_index(u, u + 1 if not net.has_edge(u, u + 1) else u + 2)
        # Resolving edge slots went through the packed int index: the tuple
        # edge view was not built.
        assert net._edges_cache is None

    def test_out_of_range_lookups_do_not_alias_packed_keys(self):
        # n=5: the out-of-range pair (0, 7) packs to 0*5+7 == 1*5+2, the
        # key of the real edge (1, 2) — the lookup must range-check first.
        net = from_pairs(5, [(1, 2), (0, 3)])
        assert not net.has_edge(0, 7)
        assert not net.has_edge(-5, 3)
        with pytest.raises(KeyError):
            net.edge_index(0, 7)
        assert net.has_edge(1, 2) and net.edge_index(1, 2) == 1


def _cache_hit(tmp_path, network: Network) -> Network:
    from repro.service.store import ResultStore

    with ResultStore(str(tmp_path / "cache.db")) as store:
        assert store.claim_graph_build("key", {"family": "test"})
        store.store_network("key", network)
        return store.cached_network("key")


class TestDegrees:
    """``Network.degrees``: the endpoint counts, read-only int64, kept on
    every network however it was made."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda tmp: Network.from_edge_arrays(cycle_edges(12)),
            lambda tmp: from_pairs(6, [(0, 1), (0, 2), (0, 3), (4, 3)]),
            lambda tmp: Network.from_graph(nx.gnp_random_graph(30, 0.2, seed=6)),
            lambda tmp: Network.from_graph(nx.empty_graph(4)),
            lambda tmp: from_pairs(0, []),
            lambda tmp: from_pairs(7, [(5, 1), (1, 5), (3, 1), (1, 3)]),
            lambda tmp: from_pairs(5, [(0, 1)]),
            lambda tmp: _cache_hit(
                tmp, Network.from_edge_arrays(cycle_edges(9), "permuted", random.Random(3))
            ),
        ],
        ids=[
            "from_edge_arrays",
            "from_pairs",
            "from_graph",
            "edgeless",
            "empty",
            "duplicated-reversed",
            "isolated-tail",
            "cache-hit",
        ],
    )
    def test_degrees_are_the_read_only_row_lengths(self, build, tmp_path):
        net = build(tmp_path)
        degrees = net.degrees
        assert degrees.dtype == np.int64 and degrees.shape == (net.n,)
        assert not degrees.flags.writeable
        with pytest.raises(ValueError):
            degrees[:1] = 7
        counted = [0] * net.n
        for u, v in net.edges:
            counted[u] += 1
            counted[v] += 1
        assert degrees.tolist() == counted
        assert [net.degree(v) for v in net.vertices] == degrees.tolist()
        assert net.max_degree() == (int(degrees.max()) if net.n else 0)
        assert net.min_degree() == (int(degrees.min()) if net.n else 0)
        assert net._rows is None

    def test_cache_hit_computes_the_degrees_once(self, tmp_path):
        network = Network.from_edge_arrays(cycle_edges(9))
        cached = _cache_hit(tmp_path, network)
        assert cached.degrees is cached.degrees
        assert not np.shares_memory(cached.degrees, network.degrees)
        assert np.array_equal(cached.degrees, network.degrees)
