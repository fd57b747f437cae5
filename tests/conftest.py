"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from repro.core.trace import ExecutionTrace
from repro.local.network import Network
from repro.local.runner import Runner


@pytest.fixture
def runner() -> Runner:
    """A strict runner with a generous round limit."""
    return Runner(max_rounds=20_000)


@pytest.fixture
def small_graphs() -> dict:
    """A small zoo of workload graphs covering the paper's graph families."""
    return {
        "cycle": nx.cycle_graph(24),
        "path": nx.path_graph(17),
        "star": nx.star_graph(12),
        "grid": nx.convert_node_labels_to_integers(nx.grid_2d_graph(5, 5)),
        "gnp": nx.gnp_random_graph(40, 0.1, seed=3),
        "regular4": nx.random_regular_graph(4, 30, seed=4),
        "tree": nx.bfs_tree(nx.balanced_tree(2, 4), 0).to_undirected(),
        "two_triangles": nx.disjoint_union(nx.complete_graph(3), nx.complete_graph(3)),
        "isolated": nx.empty_graph(6),
    }


def make_network(graph: nx.Graph, seed: int = 0) -> Network:
    """Wrap a graph with permuted identifiers (the tests' default scheme)."""
    return Network.from_graph(graph, id_scheme="permuted", rng=random.Random(seed))


@pytest.fixture
def network_factory():
    """Factory fixture building networks with permuted identifiers."""
    return make_network


def make_trace(
    network: Network,
    problem,
    node_outputs=None,
    node_commit_round=None,
    edge_outputs=None,
    edge_commit_round=None,
    **fields,
) -> ExecutionTrace:
    """A hand-made trace: commit dicts turned into the rows a trace stores.

    Every vertex in ``node_commit_round`` and canonical edge in
    ``edge_commit_round`` committed in that round, with its value from
    ``node_outputs`` / ``edge_outputs``; every other slot never committed.
    ``fields`` are the trace's keyword arguments (``rounds``, ...).
    """
    node_rounds = np.full(network.n, -1, dtype=np.int64)
    node_values = [None] * network.n
    for v, r in (node_commit_round or {}).items():
        node_rounds[v] = r
        node_values[v] = node_outputs[v]
    edge_rounds = np.full(network.m, -1, dtype=np.int64)
    edge_values = [None] * network.m
    for (u, v), r in (edge_commit_round or {}).items():
        slot = network.edge_index(u, v)
        edge_rounds[slot] = r
        edge_values[slot] = edge_outputs[(u, v)]
    return ExecutionTrace(
        network, problem, node_values, node_rounds, edge_values, edge_rounds, **fields
    )


@pytest.fixture
def trace_factory():
    """Factory fixture building hand-made traces from commit dicts."""
    return make_trace
