"""Network validation must agree with the networkx reference validators.

Every problem in :mod:`repro.core.problems` validates in two ways: the seed
networkx functions (the executable specification, run on a ``nx.Graph``)
and a numpy kernel run by :meth:`ProblemSpec.validate_network` on a
:class:`Network`.  These property tests drive both over random graphs with
**valid** outputs (produced by simple sequential solvers) and **deliberately
corrupted** outputs (flipped memberships, dropped entries, stray edges,
palette violations, re-oriented edges) and assert that the two paths always
reach the same verdict; they also pin the input forms ``validate_network``
accepts (mappings, ``MISSING``-marked slot sequences).
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import problems
from repro.local.network import Network

# Verdict agreement matters; failure *reasons* may name different witnesses.


def _random_graph(n: int, p_numerator: int, seed: int) -> nx.Graph:
    p = p_numerator / 100.0
    return nx.gnp_random_graph(n, p, seed=seed)


def _network(graph: nx.Graph) -> Network:
    return Network.from_graph(graph)


def _greedy_mis(graph: nx.Graph, rng: random.Random) -> dict:
    order = list(graph.nodes())
    rng.shuffle(order)
    selected = set()
    for v in order:
        if not any(u in selected for u in graph.neighbors(v)):
            selected.add(v)
    return {v: v in selected for v in graph.nodes()}


def _greedy_matching(graph: nx.Graph, rng: random.Random) -> dict:
    edges = [(u, v) if u < v else (v, u) for u, v in graph.edges()]
    rng.shuffle(edges)
    matched = set()
    outputs = {}
    for u, v in sorted(edges, key=lambda e: rng.random()):
        take = u not in matched and v not in matched
        if take:
            matched.add(u)
            matched.add(v)
        outputs[(u, v)] = take
    return outputs


def _greedy_coloring(graph: nx.Graph) -> dict:
    colors = {}
    for v in sorted(graph.nodes()):
        used = {colors[u] for u in graph.neighbors(v) if u in colors}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def _orientation(graph: nx.Graph, rng: random.Random, valid: bool) -> dict:
    """Orient every edge; when ``valid``, guarantee every node an out-edge.

    The valid construction anchors each connected component on a cycle
    (every component of a min-degree-≥2 graph has one): cycle edges are
    oriented around the cycle, and every off-cycle vertex orients its
    BFS-discovery edge away from itself towards the cycle, so no vertex is
    a sink.  Leftover edges are oriented randomly.
    """
    outputs = {}
    if valid:
        for component in nx.connected_components(graph):
            sub = graph.subgraph(component)
            cycle = nx.find_cycle(sub)
            on_cycle = [u for u, _ in cycle]
            for u, v in cycle:  # u -> v along the cycle: u gets an out-edge
                outputs[(u, v) if u < v else (v, u)] = v
            seen = set(on_cycle)
            frontier = list(on_cycle)
            while frontier:
                parent = frontier.pop()
                for w in sub.neighbors(parent):
                    if w not in seen:
                        seen.add(w)
                        # w -> parent: the discovered vertex points rootward.
                        outputs[(w, parent) if w < parent else (parent, w)] = parent
                        frontier.append(w)
    for u, v in ((min(e), max(e)) for e in graph.edges()):
        if (u, v) not in outputs:
            outputs[(u, v)] = rng.choice((u, v))
    return outputs


def _agree(spec: problems.ProblemSpec, graph: nx.Graph, node_out, edge_out) -> bool:
    """Assert the reference and kernel paths agree; return the shared verdict."""
    network = _network(graph)
    reference = spec.validate(graph, node_out, edge_out)
    fast = spec.validate_network(network, node_out, edge_out)
    assert bool(reference) == bool(fast), (
        f"{spec.name}: nx={reference} csr={fast} on n={graph.number_of_nodes()}"
    )
    # The Network overload of validate() must dispatch to the same fast path.
    assert bool(spec.validate(network, node_out, edge_out)) == bool(fast)
    return bool(fast)


graph_params = given(
    n=st.integers(min_value=1, max_value=32),
    p=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestMISAgreement:
    @graph_params
    @settings(max_examples=60, deadline=None)
    def test_valid_and_corrupted(self, n, p, seed):
        graph = _random_graph(n, p, seed)
        rng = random.Random(seed)
        outputs = _greedy_mis(graph, rng)
        assert _agree(problems.MIS, graph, outputs, {})

        if n >= 2:
            # Corruption 1: flip one node's membership.
            v = rng.randrange(n)
            flipped = dict(outputs)
            flipped[v] = not flipped[v]
            _agree(problems.MIS, graph, flipped, {})
            # Corruption 2: drop one node's output entirely (missing check).
            dropped = dict(outputs)
            del dropped[v]
            assert not _agree(problems.MIS, graph, dropped, {})
            # Corruption 3: select everything (independence must fail if any edge).
            all_in = {u: True for u in graph.nodes()}
            _agree(problems.MIS, graph, all_in, {})
            # Corruption 4: select nothing (maximality must fail if any node).
            none_in = {u: False for u in graph.nodes()}
            _agree(problems.MIS, graph, none_in, {})


class TestRulingSetAgreement:
    @graph_params
    @settings(max_examples=40, deadline=None)
    def test_mis_is_2_1_ruling_set(self, n, p, seed):
        graph = _random_graph(n, p, seed)
        rng = random.Random(seed)
        outputs = _greedy_mis(graph, rng)
        spec = problems.ruling_set(2, 1)
        assert _agree(spec, graph, outputs, {})
        if n >= 2:
            v = rng.randrange(n)
            flipped = dict(outputs)
            flipped[v] = not flipped[v]
            _agree(spec, graph, flipped, {})

    @pytest.mark.parametrize("alpha,beta", [(2, 1), (2, 2), (3, 2), (3, 3), (1, 1)])
    def test_path_spacings(self, alpha, beta):
        graph = nx.path_graph(13)
        for spacing in (1, 2, 3, 4):
            outputs = {v: v % spacing == 0 for v in graph.nodes()}
            _agree(problems.ruling_set(alpha, beta), graph, outputs, {})

    def test_empty_set_agrees(self):
        graph = nx.cycle_graph(6)
        outputs = {v: False for v in graph.nodes()}
        assert not _agree(problems.ruling_set(2, 2), graph, outputs, {})


class TestMatchingAgreement:
    @graph_params
    @settings(max_examples=60, deadline=None)
    def test_valid_and_corrupted(self, n, p, seed):
        graph = _random_graph(n, p, seed)
        rng = random.Random(seed)
        outputs = _greedy_matching(graph, rng)
        assert _agree(problems.MAXIMAL_MATCHING, graph, {}, outputs)

        edges = list(outputs)
        if edges:
            # Corruption 1: un-match one matched edge (maximality may break).
            e = rng.choice(edges)
            toggled = dict(outputs)
            toggled[e] = not toggled[e]
            _agree(problems.MAXIMAL_MATCHING, graph, {}, toggled)
            # Corruption 2: drop an edge entry (missing check).
            dropped = dict(outputs)
            del dropped[e]
            assert not _agree(problems.MAXIMAL_MATCHING, graph, {}, dropped)
            # Corruption 3: match every edge (conflicts unless m <= ...).
            all_in = {e2: True for e2 in outputs}
            _agree(problems.MAXIMAL_MATCHING, graph, {}, all_in)

    def test_stray_edge_agreement(self):
        graph = nx.path_graph(4)  # edges (0,1),(1,2),(2,3)
        base = {(0, 1): True, (1, 2): False, (2, 3): True}
        assert _agree(problems.MAXIMAL_MATCHING, graph, {}, base)
        # A truthy entry for a non-edge must invalidate on both paths.
        truthy_stray = dict(base)
        truthy_stray[(0, 3)] = True
        assert not _agree(problems.MAXIMAL_MATCHING, graph, {}, truthy_stray)
        # A falsy stray entry is ignored on both paths.
        falsy_stray = dict(base)
        falsy_stray[(0, 3)] = False
        assert _agree(problems.MAXIMAL_MATCHING, graph, {}, falsy_stray)


class TestColoringAgreement:
    @graph_params
    @settings(max_examples=60, deadline=None)
    def test_valid_and_corrupted(self, n, p, seed):
        graph = _random_graph(n, p, seed)
        rng = random.Random(seed)
        colors = _greedy_coloring(graph)
        palette = max(colors.values(), default=0) + 1
        spec = problems.coloring(palette)
        assert _agree(spec, graph, colors, {})

        if n >= 2:
            # Corruption 1: copy a neighbour's colour (monochromatic edge).
            if graph.number_of_edges():
                u, v = next(iter(graph.edges()))
                clash = dict(colors)
                clash[u] = clash[v]
                assert not _agree(spec, graph, clash, {})
            # Corruption 2: colour outside the palette.
            v = rng.randrange(n)
            out_of_palette = dict(colors)
            out_of_palette[v] = palette + 3
            _agree(spec, graph, out_of_palette, {})
            # Corruption 3: unbounded palette accepts any distinct labels.
            assert _agree(problems.coloring(None), graph, colors, {})


class TestSinklessOrientationAgreement:
    @given(
        n=st.integers(min_value=4, max_value=24),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_valid_and_corrupted(self, n, seed):
        if (n * 3) % 2:
            n += 1
        graph = nx.random_regular_graph(3, n, seed=seed)
        rng = random.Random(seed)
        outputs = _orientation(graph, rng, valid=True)
        assert _agree(problems.SINKLESS_ORIENTATION, graph, {}, outputs)

        # Corruption 1: random orientation (may create a sink; both agree).
        _agree(problems.SINKLESS_ORIENTATION, graph, {}, _orientation(graph, rng, False))
        # Corruption 2: point every edge at its smaller endpoint → the
        # largest vertex is a sink.
        sink = {e: min(e) for e in outputs}
        assert not _agree(problems.SINKLESS_ORIENTATION, graph, {}, sink)
        # Corruption 3: head is not an endpoint.
        bad_head = dict(outputs)
        e = next(iter(bad_head))
        bad_head[e] = n + 5
        assert not _agree(problems.SINKLESS_ORIENTATION, graph, {}, bad_head)
        # Corruption 4: drop an entry (missing check).
        dropped = dict(outputs)
        del dropped[e]
        assert not _agree(problems.SINKLESS_ORIENTATION, graph, {}, dropped)

    def test_low_degree_nodes_exempt(self):
        graph = nx.path_graph(3)  # all degrees < 3: nothing can be a sink
        outputs = {(0, 1): 0, (1, 2): 1}
        assert _agree(problems.SINKLESS_ORIENTATION, graph, {}, outputs)


class TestSlotSequenceInputs:
    """validate_network accepts flat per-slot sequences with MISSING."""

    def test_node_slots(self):
        graph = nx.cycle_graph(5)
        network = _network(graph)
        outputs = _greedy_mis(graph, random.Random(0))
        slots = [outputs[v] for v in range(5)]
        assert problems.MIS.validate_network(network, slots, None)
        slots_missing = list(slots)
        slots_missing[2] = problems.MISSING
        result = problems.MIS.validate_network(network, slots_missing, None)
        assert not result and "missing node outputs" in result.reason

    def test_edge_slots(self):
        graph = nx.path_graph(4)
        network = _network(graph)
        slots = [True, False, True]  # edges (0,1),(1,2),(2,3)
        assert problems.MAXIMAL_MATCHING.validate_network(network, None, slots)
        slots_missing = [True, problems.MISSING, True]
        result = problems.MAXIMAL_MATCHING.validate_network(network, None, slots_missing)
        assert not result and "missing edge outputs" in result.reason

    def test_wrong_length_rejected(self):
        network = _network(nx.cycle_graph(4))
        with pytest.raises(ValueError):
            problems.MIS.validate_network(network, [True, False], None)

    def test_fallback_without_kernel(self):
        """Custom specs without a kernel route through the nx path."""
        spec = problems.ProblemSpec(
            name="custom-mis",
            labels_nodes=True,
            labels_edges=False,
            validator=lambda g, nodes, edges: problems.is_maximal_independent_set(g, nodes),
        )
        graph = nx.cycle_graph(6)
        network = _network(graph)
        outputs = _greedy_mis(graph, random.Random(1))
        assert spec.validate_network(network, outputs, None)
        outputs[0] = outputs[1] = True
        assert not spec.validate_network(network, outputs, None)


class TestValidateNetworkEdgeCases:
    """Regressions for ISSUE 3: short slot sequences and explicit MISSING.

    The MISSING sentinel means "never committed", so an explicit
    ``{key: MISSING}`` mapping entry must behave exactly like an absent key
    on *both* validator paths.  Before PR 3 the nx reference path treated
    the (truthy) sentinel object as a real committed value — an explicit
    MISSING membership flag counted as "selected" for MIS — while the CSR
    path reported a missing output: a verdict disagreement.  ``validate``
    now strips sentinel entries before consulting the reference validators.
    """

    def test_node_sequence_shorter_than_n_raises(self):
        network = _network(nx.cycle_graph(6))
        with pytest.raises(ValueError, match="node output slots"):
            problems.MIS.validate_network(network, [True] * 5, None)

    def test_node_sequence_longer_than_n_raises(self):
        network = _network(nx.cycle_graph(6))
        with pytest.raises(ValueError, match="node output slots"):
            problems.MIS.validate_network(network, [True] * 7, None)

    def test_edge_sequence_wrong_length_raises(self):
        network = _network(nx.path_graph(4))  # m = 3
        with pytest.raises(ValueError, match="edge output slots"):
            problems.MAXIMAL_MATCHING.validate_network(network, None, [True, False])

    def test_mapping_with_explicit_missing_node_agrees_with_reference(self):
        graph = nx.cycle_graph(5)
        network = _network(graph)
        outputs = _greedy_mis(graph, random.Random(3))
        outputs[0] = problems.MISSING  # explicitly "never committed"
        csr = problems.MIS.validate_network(network, outputs, None)
        ref = problems.MIS.validate(graph, outputs, None)
        assert bool(csr) == bool(ref) == False  # noqa: E712 - verdict agreement
        assert "missing node outputs" in csr.reason
        assert "missing node outputs" in ref.reason

    def test_mapping_with_explicit_missing_edge_agrees_with_reference(self):
        graph = nx.path_graph(4)
        network = _network(graph)
        outputs = {(0, 1): True, (1, 2): problems.MISSING, (2, 3): True}
        csr = problems.MAXIMAL_MATCHING.validate_network(network, None, outputs)
        ref = problems.MAXIMAL_MATCHING.validate(graph, None, outputs)
        assert bool(csr) == bool(ref) == False  # noqa: E712
        assert "missing edge outputs" in csr.reason
        assert "missing edge outputs" in ref.reason

    def test_stray_edge_with_missing_value_is_ignored_on_both_paths(self):
        """A non-edge key carrying the sentinel is not a stray matched edge."""
        graph = nx.path_graph(4)
        network = _network(graph)
        outputs = {(0, 1): True, (1, 2): False, (2, 3): True, (0, 3): problems.MISSING}
        csr = problems.MAXIMAL_MATCHING.validate_network(network, None, outputs)
        ref = problems.MAXIMAL_MATCHING.validate(graph, None, outputs)
        assert bool(csr) == bool(ref) == True  # noqa: E712

    def test_stray_edge_with_real_value_still_fails_on_both_paths(self):
        graph = nx.path_graph(4)
        network = _network(graph)
        outputs = {(0, 1): True, (1, 2): False, (2, 3): True, (0, 3): True}
        csr = problems.MAXIMAL_MATCHING.validate_network(network, None, outputs)
        ref = problems.MAXIMAL_MATCHING.validate(graph, None, outputs)
        assert bool(csr) == bool(ref) == False  # noqa: E712
        assert "not in the graph" in csr.reason

    def test_explicit_missing_everywhere_reads_as_empty(self):
        """All-sentinel mappings behave like empty mappings on both paths."""
        graph = nx.cycle_graph(4)
        network = _network(graph)
        node_out = {v: problems.MISSING for v in range(4)}
        csr = problems.MIS.validate_network(network, node_out, None)
        ref = problems.MIS.validate(graph, node_out, None)
        assert bool(csr) == bool(ref) == False  # noqa: E712
        assert "missing node outputs" in csr.reason and "missing node outputs" in ref.reason
