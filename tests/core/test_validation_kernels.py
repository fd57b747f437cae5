"""Differential acceptance suite for the problems' validation kernels.

Every problem's numpy ``kernel`` runs through the three entry points —
strict (``validate_network``), surviving (``validate_surviving``) and induced
(``validate_induced``) — on random G(n, p) instances with random crash sets,
on valid outputs and on outputs corrupted in one of three ways: flip one
value, drop one commitment, or plant a violation (an adjacent pair of
members, a doubly matched node, a monochromatic edge, a sink).  Oracles:

* strict: the networkx reference validator on ``G``;
* induced: the reference validator on ``G.subgraph(survivors)`` — networkx
  keeps the vertex labels, so orientation heads stay meaningful — given the
  outputs that touch no crashed vertex;
* surviving: the crash-stop rules transcribed below as plain per-vertex
  Python (the hand-pinned cases in ``tests/local/test_faults.py`` pin the
  rules themselves); with nobody crashed it is the strict oracle.

Every verdict is also checked through the array form the engines use (a
value array plus a committed mask).
"""

from __future__ import annotations

import pickle
import random
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from repro.core import problems
from repro.graphs.edgelist import EdgeArrays
from repro.local.network import Network

PROBLEMS = ("mis", "ruling-set", "matching", "coloring", "sinkless")
MODES = ("strict", "surviving", "induced")
CASES = ("valid", "flip", "drop", "plant")
INSTANCES = 25


def canon(u, v):
    return (u, v) if u < v else (v, u)


def random_graph(rng: random.Random) -> nx.Graph:
    n = rng.randint(2, 30)
    degree = rng.uniform(1.0, 6.0)
    return nx.gnp_random_graph(n, min(1.0, degree / (n - 1)), seed=rng.randrange(10**6))


def spec_for(name: str, graph: nx.Graph) -> problems.ProblemSpec:
    if name == "coloring":
        return problems.coloring(max((d for _, d in graph.degree()), default=0) + 1)
    return {
        "mis": problems.MIS,
        "ruling-set": problems.ruling_set(3, 2),
        "matching": problems.MAXIMAL_MATCHING,
        "sinkless": problems.SINKLESS_ORIENTATION,
    }[name]


# ---------------------------------------------------------------------- #
# Valid outputs on the whole graph, then one corruption
# ---------------------------------------------------------------------- #


def greedy_members(graph: nx.Graph, rng: random.Random, spacing: int) -> dict:
    """Members pairwise ≥ ``spacing`` apart, maximal (an MIS for 2)."""
    order = list(graph)
    rng.shuffle(order)
    members = set()
    for v in order:
        near = nx.single_source_shortest_path_length(graph, v, cutoff=spacing - 1)
        if not members.intersection(near):
            members.add(v)
    return {v: v in members for v in graph}


def greedy_matching(graph: nx.Graph, rng: random.Random) -> dict:
    edges = [canon(u, v) for u, v in graph.edges()]
    rng.shuffle(edges)
    matched, outputs = set(), {}
    for u, v in edges:
        outputs[(u, v)] = u not in matched and v not in matched
        if outputs[(u, v)]:
            matched.update((u, v))
    return outputs


def greedy_coloring(graph: nx.Graph) -> dict:
    colours = {}
    for v in sorted(graph):
        used = {colours[u] for u in graph[v] if u in colours}
        colours[v] = min(c for c in range(len(used) + 1) if c not in used)
    return colours


def sinkless_orientation(graph: nx.Graph, rng: random.Random) -> dict:
    """Every vertex gets an out-edge, except one leaf root per tree component."""
    heads = {}
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        try:
            cycle = nx.find_cycle(sub)
        except nx.NetworkXNoCycle:
            roots = [min(component, key=sub.degree)]  # degree ≤ 1: exempt
        else:
            roots = [u for u, _ in cycle]
            for u, v in cycle:
                heads[canon(u, v)] = v
        seen, frontier = set(roots), list(roots)
        while frontier:
            parent = frontier.pop()
            for w in sub[parent]:
                if w not in seen:
                    seen.add(w)
                    heads[canon(w, parent)] = parent
                    frontier.append(w)
    for u, v in graph.edges():
        heads.setdefault(canon(u, v), rng.choice((u, v)))
    return heads


def valid_outputs(name: str, graph: nx.Graph, rng: random.Random):
    if name == "mis":
        return greedy_members(graph, rng, 2), {}
    if name == "ruling-set":
        return greedy_members(graph, rng, 3), {}
    if name == "matching":
        return {}, greedy_matching(graph, rng)
    if name == "coloring":
        return greedy_coloring(graph), {}
    return {}, sinkless_orientation(graph, rng)


def corrupt(name: str, case: str, graph: nx.Graph, nodes: dict, edges: dict, rng):
    outputs = edges if name in ("matching", "sinkless") else nodes
    if case == "valid" or not outputs:
        return nodes, edges
    key = rng.choice(sorted(outputs))
    if case == "drop":
        del outputs[key]
    elif case == "flip":
        if name == "coloring":
            outputs[key] += 1
        elif name == "sinkless":
            outputs[key] = key[0] if outputs[key] == key[1] else key[1]
        else:
            outputs[key] = not outputs[key]
    elif graph.number_of_edges():  # plant a violation
        u, v = rng.choice(sorted(canon(a, b) for a, b in graph.edges()))
        if name in ("mis", "ruling-set"):
            nodes[u] = nodes[v] = True
        elif name == "coloring":
            nodes[u] = nodes[v]
        elif name == "matching":
            for w in (u, v):
                for x in list(graph[w])[:2]:
                    edges[canon(w, x)] = True
        else:
            hub = max(graph, key=graph.degree)
            for x in graph[hub]:
                edges[canon(hub, x)] = hub
    return nodes, edges


# ---------------------------------------------------------------------- #
# Oracles
# ---------------------------------------------------------------------- #


def surviving_mis(graph, nodes, edges, dead, params):
    selected = {v for v, x in nodes.items() if x}
    for u, v in graph.edges():
        if u in selected and v in selected and u not in dead and v not in dead:
            return False
    return all(
        v in dead or v in selected or any(u in selected for u in graph[v]) for v in graph
    )


def surviving_ruling_set(graph, nodes, edges, dead, params):
    alpha, beta = params["alpha"], params["beta"]
    if all(v in dead for v in graph):
        return True
    members = {v for v, x in nodes.items() if x}
    if not members:
        return False
    # A crashed ruler's commitment stands; only alive vertices relay.
    reached, frontier = set(members), list(members)
    for _ in range(beta):
        nxt = []
        for v in frontier:
            for u in graph[v]:
                if u not in reached:
                    reached.add(u)
                    if u not in dead:
                        nxt.append(u)
        frontier = nxt
    if any(v not in reached for v in graph if v not in dead):
        return False
    alive_graph = graph.subgraph([v for v in graph if v not in dead])
    for s in members - dead:
        near = nx.single_source_shortest_path_length(alive_graph, s, cutoff=alpha - 1)
        if any(u != s and u in members for u in near):
            return False
    return True


def surviving_matching(graph, nodes, edges, dead, params):
    matched = Counter()
    for (u, v), x in edges.items():
        if x:
            matched[u] += 1
            matched[v] += 1
    if any(count > 1 for count in matched.values()):
        return False
    return all(
        u in dead or v in dead or matched[u] or matched[v] for u, v in graph.edges()
    )


def surviving_coloring(graph, nodes, edges, dead, params):
    for u, v in graph.edges():
        if u not in dead and v not in dead and nodes[u] == nodes[v]:
            return False
    palette = params["num_colors"]
    used = {nodes[v] for v in graph if v not in dead}
    return all(isinstance(c, int) and 0 <= c < palette for c in used)


def surviving_sinkless(graph, nodes, edges, dead, params):
    tails = set()
    for (u, v), head in edges.items():
        if head not in (u, v):
            return False
        tails.add(u if head == v else v)
    # The original degree counts, and an edge towards a corpse still leaves.
    return not any(
        v not in dead and graph.degree(v) >= 3 and v not in tails for v in graph
    )


SURVIVING = {
    "mis": surviving_mis,
    "ruling-set": surviving_ruling_set,
    "matching": surviving_matching,
    "coloring": surviving_coloring,
    "sinkless": surviving_sinkless,
}


def oracle(name, spec, mode, graph, nodes, edges, dead) -> bool:
    if mode == "strict" or not dead:
        return bool(spec.validate(graph, nodes, edges))
    alive = [v for v in graph if v not in dead]
    if mode == "induced":
        return bool(
            spec.validate(
                graph.subgraph(alive),
                {v: x for v, x in nodes.items() if v not in dead},
                {e: x for e, x in edges.items() if e[0] not in dead and e[1] not in dead},
            )
        )
    if spec.labels_nodes and any(v not in nodes for v in alive):
        return False
    live_edges = [canon(u, v) for u, v in graph.edges() if u not in dead and v not in dead]
    if spec.labels_edges and any(e not in edges for e in live_edges):
        return False
    return SURVIVING[name](graph, nodes, edges, dead, spec.params)


# ---------------------------------------------------------------------- #
# The suite
# ---------------------------------------------------------------------- #


def score(spec, mode, network, nodes, edges, dead, **committed):
    if mode == "strict":
        return spec.validate_network(network, nodes, edges, **committed)
    if mode == "surviving":
        return spec.validate_surviving(network, nodes, edges, dead, **committed)
    return spec.validate_induced(network, nodes, edges, dead, **committed)


def as_arrays(network: Network, nodes: dict, edges: dict):
    """The engine form: value arrays plus committed masks."""
    node_values = np.array([nodes.get(v, 0) for v in range(network.n)])
    edge_values = np.array([edges.get(e, 0) for e in network.edges], dtype=np.int64)
    committed = {
        "node_committed": np.array([v in nodes for v in range(network.n)], dtype=bool),
        "edge_committed": np.array([e in edges for e in network.edges], dtype=bool),
    }
    return node_values, edge_values, committed


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", PROBLEMS)
def test_kernel_agrees_with_the_oracle(name, mode, case):
    rng = random.Random(f"{name}/{mode}/{case}")
    verdicts = []
    for _ in range(INSTANCES):
        graph = random_graph(rng)
        network = Network.from_graph(graph)
        spec = spec_for(name, graph)
        nodes, edges = corrupt(name, case, graph, *valid_outputs(name, graph, rng), rng)
        dead = set() if mode == "strict" else {v for v in graph if rng.random() < 0.25}
        want = oracle(name, spec, mode, graph, nodes, edges, dead)
        got = score(spec, mode, network, nodes, edges, dead)
        assert bool(got) == want, (
            f"{spec.name} {mode}/{case}: kernel={got!r} oracle={want} on "
            f"edges={sorted(graph.edges())} nodes={nodes} edge_outputs={edges} dead={dead}"
        )
        node_values, edge_values, committed = as_arrays(network, nodes, edges)
        arrays = score(spec, mode, network, node_values, edge_values, dead, **committed)
        assert bool(arrays) == want
        verdicts.append(want)
    if case == "valid" and mode == "strict":
        assert all(verdicts)


class TestSinklessOrientationUnderCrashes:
    def test_induced_keeps_the_vertex_labels(self):
        """Induced validation once relabelled the survivors to 0..k-1 but
        left the heads (vertex ids) as they were."""
        graph = nx.complete_graph(5)
        heads = {(u, v): v if (v - u) % 2 else u for u, v in graph.edges()}
        alive_heads = {e: h for e, h in heads.items() if 0 not in e}
        assert problems.is_sinkless_orientation(graph.subgraph([1, 2, 3, 4]), alive_heads)
        network = Network.from_graph(graph)
        spec = problems.SINKLESS_ORIENTATION
        assert spec.validate_induced(network, None, heads, [0])
        assert spec.validate_surviving(network, None, heads, [0])
        assert spec.validate_network(network, None, heads)

    def test_degree_basis_differs_between_surviving_and_induced(self):
        """A star's centre loses a neighbour and its only out-edge: the
        surviving problem still poses it at degree 3, the induced one at 2."""
        network = Network.from_edge_arrays(EdgeArrays.from_pairs(4, [(0, 1), (0, 2), (0, 3)]))
        heads = {(0, 2): 0, (0, 3): 0}
        spec = problems.SINKLESS_ORIENTATION
        assert not spec.validate_surviving(network, None, heads, [1])
        assert spec.validate_induced(network, None, heads, [1])


def test_alive_mask_and_crashed_ids_agree():
    network = Network.from_edge_arrays(EdgeArrays.from_pairs(4, [(0, 1), (1, 2), (2, 3)]))
    alive = np.array([True, False, True, True])
    validate = problems.MIS.validate_induced
    for values in ([True, False, False, True], [False, False, True, False]):
        assert bool(validate(network, values, None, [1])) == bool(
            validate(network, values, None, alive=alive)
        )
    with pytest.raises(ValueError, match="not both"):
        validate(network, [True, False, False, True], None, [1], alive=alive)


@pytest.mark.parametrize(
    "spec", [problems.MIS, problems.MAXIMAL_MATCHING, problems.SINKLESS_ORIENTATION]
)
def test_constant_specs_pickle(spec):
    """Traces carry their spec, so it must survive a spawn-based process pool."""
    assert pickle.loads(pickle.dumps(spec)) == spec
