"""Differential tests for induced-survivor validation.

For any network, output configuration, and crash set,
``ProblemSpec.validate_induced`` (the numpy kernel behind the commitment
mask) must return the verdict of the networkx reference validator on the
induced survivor subgraph — which is what a spec without a ``kernel`` runs.
These tests fuzz random configurations through both paths (and through the
array-mask input form the engines use) and require verdict agreement
everywhere.
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core import problems
from repro.core.problems import MISSING
from repro.graphs.edgelist import EdgeArrays
from repro.local.network import Network


def random_network(rng: random.Random) -> Network:
    n = rng.randrange(2, 25)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < rng.choice((0.1, 0.3, 0.6))
    ]
    return Network.from_edge_arrays(EdgeArrays.from_pairs(n, edges))


def random_crashed(rng: random.Random, n: int) -> list:
    return [v for v in range(n) if rng.random() < 0.25]


def slots_and_arrays(rng: random.Random, count: int):
    """Random outputs in both interchange forms: MISSING-marked slots and
    (values, committed) bool arrays describing the same configuration."""
    slots = []
    values = np.zeros(count, dtype=bool)
    committed = np.zeros(count, dtype=bool)
    for i in range(count):
        pick = rng.random()
        if pick < 0.25:
            slots.append(MISSING)
        else:
            value = pick < 0.7
            slots.append(value)
            values[i] = value
            committed[i] = True
    return slots, values, committed


@pytest.mark.parametrize("seed", range(8))
class TestVerdictAgreement:
    def check(self, spec, fallback_spec, nodes: bool, seed: int) -> None:
        rng = random.Random(seed)
        agreements = 0
        for _ in range(40):
            network = random_network(rng)
            crashed = random_crashed(rng, network.n)
            count = network.n if nodes else network.m
            slots, values, committed = slots_and_arrays(rng, count)
            kwargs = {"node_outputs": slots} if nodes else {"edge_outputs": slots}
            want = fallback_spec.validate_induced(network, crashed=crashed, **kwargs)
            got = spec.validate_induced(network, crashed=crashed, **kwargs)
            assert bool(got) == bool(want), (
                f"verdict drift on n={network.n}, m={network.m}, "
                f"crashed={crashed}: fast={got!r} fallback={want!r}"
            )
            if nodes:
                masked = spec.validate_induced(
                    network,
                    node_outputs=values,
                    crashed=crashed,
                    node_committed=committed,
                )
            else:
                masked = spec.validate_induced(
                    network,
                    edge_outputs=values,
                    crashed=crashed,
                    edge_committed=committed,
                )
            assert bool(masked) == bool(want)
            agreements += 1
        assert agreements == 40

    def test_mis_fast_path_agrees_with_fallback(self, seed):
        spec = problems.MIS
        assert spec.kernel is not None
        self.check(spec, replace(spec, kernel=None), nodes=True, seed=seed)

    def test_matching_fast_path_agrees_with_fallback(self, seed):
        spec = problems.MAXIMAL_MATCHING
        assert spec.kernel is not None
        self.check(spec, replace(spec, kernel=None), nodes=False, seed=seed + 100)


def induced(spec, network, crashed, nodes=None, edges=None, **committed):
    return spec.validate_induced(network, nodes, edges, crashed, **committed)


class TestInducedSemantics:
    def test_induced_mis_accepts_a_valid_survivor_configuration(self):
        # Path 0-1-2-3 with node 1 crashed: survivors 0,2,3; selecting {0, 3}
        # leaves 2 covered by 3 and independent.
        network = Network.from_edge_arrays(EdgeArrays.from_pairs(4, [(0, 1), (1, 2), (2, 3)]))
        values = np.array([True, True, False, True])  # crashed node's value ignored
        committed = np.ones(4, dtype=bool)
        result = induced(problems.MIS, network, [1], values, node_committed=committed)
        assert bool(result)

    def test_induced_mis_rejects_uncovered_survivors(self):
        network = Network.from_edge_arrays(EdgeArrays.from_pairs(4, [(0, 1), (1, 2), (2, 3)]))
        values = np.array([False, False, False, False])
        committed = np.ones(4, dtype=bool)
        result = induced(problems.MIS, network, [1], values, node_committed=committed)
        assert not bool(result)
        assert "uncovered" in result.reason

    def test_induced_mis_rejects_missing_survivor_outputs(self):
        network = Network.from_edge_arrays(EdgeArrays.from_pairs(3, [(0, 1), (1, 2)]))
        values = np.zeros(3, dtype=bool)
        committed = np.array([True, True, False])
        result = induced(problems.MIS, network, [0], values, node_committed=committed)
        assert not bool(result)
        assert "missing node outputs" in result.reason

    def test_induced_matching_rejects_addable_edges(self):
        # Triangle with no crash on the relevant edge: nothing selected but
        # the surviving edge (1, 2) could be added.
        network = Network.from_edge_arrays(EdgeArrays.from_pairs(3, [(0, 1), (0, 2), (1, 2)]))
        values = np.zeros(3, dtype=bool)
        committed = np.ones(3, dtype=bool)
        result = induced(
            problems.MAXIMAL_MATCHING, network, [0], edges=values, edge_committed=committed
        )
        assert not bool(result)
        assert "added" in result.reason

    def test_induced_matching_rejects_non_matchings(self):
        network = Network.from_edge_arrays(EdgeArrays.from_pairs(3, [(0, 1), (0, 2), (1, 2)]))
        values = np.ones(3, dtype=bool)
        committed = np.ones(3, dtype=bool)
        result = induced(
            problems.MAXIMAL_MATCHING, network, [], edges=values, edge_committed=committed
        )
        assert not bool(result)
        assert "matching" in result.reason
