"""Tests for completion-time semantics (Definition 1) and complexity metrics."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core import metrics, problems
from repro.local.network import Network


def _trace_for_node_problem(make_trace, node_outputs=None, node_commit_round=None):
    """A hand-built trace: path 0-1-2, commits at rounds 0, 2, 4."""
    return make_trace(
        Network.from_graph(nx.path_graph(3)),
        problems.MIS,
        node_outputs=node_outputs or {0: True, 1: False, 2: True},
        node_commit_round=node_commit_round or {0: 0, 1: 2, 2: 4},
        rounds=4,
        algorithm_name="manual",
    )


@pytest.fixture
def node_trace(trace_factory):
    return _trace_for_node_problem(trace_factory)


@pytest.fixture
def edge_trace(trace_factory):
    """Path 0-1-2-3 with a matching on (0,1); edges decided at rounds 1 and 3."""
    return trace_factory(
        Network.from_graph(nx.path_graph(4)),
        problems.MAXIMAL_MATCHING,
        edge_outputs={(0, 1): True, (1, 2): False, (2, 3): True},
        edge_commit_round={(0, 1): 1, (1, 2): 1, (2, 3): 3},
        rounds=3,
        algorithm_name="manual",
    )


class TestCompletionSemantics:
    def test_node_problem_node_completion_is_own_commit(self, node_trace):
        assert node_trace.node_completion_times() == [0, 2, 4]

    def test_node_problem_edge_completion_is_max_of_endpoints(self, node_trace):
        # Edges (0,1) and (1,2): completion = max of endpoint commits.
        assert node_trace.edge_completion_times() == [2, 4]

    def test_edge_problem_edge_completion_is_own_commit(self, edge_trace):
        assert edge_trace.edge_completion_times() == [1, 1, 3]

    def test_edge_problem_node_completion_is_max_incident_edge(self, edge_trace):
        # Node 0 waits for edge (0,1); node 2 waits for edges (1,2) and (2,3).
        assert edge_trace.node_completion_times() == [1, 1, 3, 3]

    def test_worst_case_is_global_max(self, node_trace, edge_trace):
        assert node_trace.worst_case_rounds() == 4
        assert edge_trace.worst_case_rounds() == 3

    def test_validation_passes_for_consistent_outputs(self, node_trace, edge_trace):
        assert node_trace.validate()
        assert edge_trace.validate()

    def test_require_valid_raises_on_bad_solution(self, trace_factory):
        # 0 and 1 are adjacent and both selected.
        trace = _trace_for_node_problem(trace_factory, node_outputs={0: True, 1: True, 2: True})
        with pytest.raises(AssertionError):
            trace.require_valid()

    def test_selected_accessors(self, node_trace, edge_trace):
        assert node_trace.selected_nodes() == [0, 2]
        assert edge_trace.selected_edges() == [(0, 1), (2, 3)]

    def test_summary_contains_headline_numbers(self, node_trace):
        summary = node_trace.summary()
        assert summary["n"] == 3 and summary["worst_case"] == 4
        assert summary["node_averaged"] == pytest.approx(2.0)


class TestMetrics:
    def test_node_averaged_single_trace(self, node_trace):
        assert metrics.node_averaged_complexity(node_trace) == pytest.approx(2.0)

    def test_edge_averaged_single_trace(self, edge_trace):
        assert metrics.edge_averaged_complexity(edge_trace) == pytest.approx(5 / 3)

    def test_expectation_over_trials(self, node_trace, trace_factory):
        b = _trace_for_node_problem(trace_factory, node_commit_round={0: 0, 1: 0, 2: 0})
        assert metrics.node_averaged_complexity([node_trace, b]) == pytest.approx(1.0)

    def test_node_expected_is_max_over_nodes(self, node_trace):
        assert metrics.node_expected_complexity(node_trace) == pytest.approx(4.0)

    def test_weighted_default_equals_expected(self, node_trace):
        expected = metrics.node_expected_complexity(node_trace)
        assert metrics.weighted_node_averaged_complexity(node_trace) == expected

    def test_weighted_with_explicit_weights(self, node_trace):
        value = metrics.weighted_node_averaged_complexity(node_trace, {0: 1.0, 1: 0.0, 2: 1.0})
        assert value == pytest.approx(2.0)

    def test_weighted_rejects_zero_mass(self, node_trace):
        with pytest.raises(ValueError):
            metrics.weighted_node_averaged_complexity(node_trace, {0: 0.0})

    def test_hierarchy_is_monotone(self, node_trace):
        chain = metrics.complexity_hierarchy(node_trace)
        assert chain["avg"] <= chain["weighted_avg"] <= chain["expected"] <= chain["worst"]

    def test_measure_bundles_everything(self, node_trace):
        m = metrics.measure(node_trace)
        assert m.n == 3 and m.m == 2 and m.trials == 1
        assert m.node_averaged <= m.node_expected <= m.worst_case
        assert "node_averaged" in m.as_dict()

    def test_empty_trace_list_rejected(self):
        with pytest.raises(ValueError):
            metrics.node_averaged_complexity([])

    def test_mismatched_networks_rejected(self, node_trace, trace_factory):
        b = trace_factory(Network.from_graph(nx.path_graph(7)), problems.MIS, rounds=0)
        with pytest.raises(ValueError):
            metrics.node_averaged_complexity([node_trace, b])


class TestMeasuredAlgorithmsSatisfyHierarchy:
    @pytest.mark.parametrize("algorithm_name", ["luby", "ruling", "matching"])
    def test_hierarchy_on_real_executions(self, runner, algorithm_name, network_factory):
        from repro.algorithms.mis.luby import LubyMIS
        from repro.algorithms.ruling_set.randomized import RandomizedTwoTwoRulingSet
        from repro.algorithms.matching.randomized import RandomizedMaximalMatching
        from repro.core.experiment import run_trials

        net = network_factory(nx.gnp_random_graph(40, 0.15, seed=8), seed=1)
        if algorithm_name == "luby":
            factory, problem = LubyMIS, problems.MIS
        elif algorithm_name == "ruling":
            factory, problem = RandomizedTwoTwoRulingSet, problems.ruling_set(2, 2)
        else:
            factory, problem = RandomizedMaximalMatching, problems.MAXIMAL_MATCHING
        traces = run_trials(factory, net, problem, trials=3, seed=0, runner=runner)
        chain = metrics.complexity_hierarchy(traces)
        assert chain["avg"] <= chain["weighted_avg"] + 1e-9
        assert chain["weighted_avg"] <= chain["expected"] + 1e-9
        assert chain["expected"] <= chain["worst"] + 1e-9
