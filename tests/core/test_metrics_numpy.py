"""Differential tests: numpy metric reductions vs Definition 1 per entity.

``repro.core.metrics`` (and the completion-time computation in
``repro.core.trace``, the only one in the library) reduce over numpy
float64/int64 arrays.  The oracle here is the paper's Definition 1
transcribed one entity at a time from the dict views: a node's time is the
latest commit among its own output and its incident edges' outputs, an
edge's among its own output and its endpoints' outputs (only the kinds the
problem labels count), an uncommitted entity counts as the full execution
length, and a problem that labels neither costs nothing.  The scalars are
``statistics.mean`` and ``max`` over those per-entity times.  These tests
drive both over randomized traces:

* hand-built traces (commit dicts turned into rows by the ``make_trace``
  test helper) with random commit rounds and random gaps (uncommitted
  entities, the −1 sentinel),
* **runner-produced traces**, which keep the rows the runner hands over,
* node-labelled, edge-labelled and node+edge-labelled problems (the latter
  exercises the scatter/gather fusion of Definition 1's completion rule),
* edge cases: empty outputs, all-halted executions, empty graphs.

Completion-time *vectors*, and the per-entity accessors
``node_completion_time`` / ``edge_completion_time``, must agree exactly
(they are integer-valued); the scalar reductions to ≤ 1e-12 (numpy's
pairwise-summed means may differ from ``statistics.mean`` in the last ulp).
"""

from __future__ import annotations

import dataclasses
import random
from array import array
from statistics import mean

import numpy as np
import pytest

from repro.algorithms.matching.randomized import RandomizedMaximalMatching
from repro.algorithms.mis.luby import LubyMIS
from repro.core import metrics, problems
from repro.core.experiment import run_trials
from repro.core.trace import ExecutionTrace
from repro.graphs import generators as gen
from repro.graphs.edgelist import EdgeArrays
from repro.local.network import Network
from repro.local.runner import Runner

RTOL = 1e-12

#: A problem that labels both nodes and edges (no built-in does), so the
#: completion rule's edge→node scatter and node→edge gather both fire.
BOTH_LABELS = problems.ProblemSpec(
    name="node-and-edge-labels",
    labels_nodes=True,
    labels_edges=True,
    validator=lambda graph, nodes, edges: problems.ValidationResult(True),
)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def _random_network(rng: random.Random) -> Network:
    n = rng.randint(2, 40)
    p = rng.uniform(0.05, 0.4)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Network.from_edge_arrays(EdgeArrays.from_pairs(n, edges))


def _random_trace(make_trace, network: Network, problem, rng: random.Random) -> ExecutionTrace:
    """A hand-built trace with random commit rounds and random gaps."""
    rounds = rng.randint(0, 12)
    node_outputs, node_commit_round, edge_outputs, edge_commit_round = {}, {}, {}, {}
    if problem.labels_nodes:
        node_outputs = {v: rng.randint(0, 1) for v in range(network.n) if rng.random() < 0.9}
        node_commit_round = {v: rng.randint(0, rounds) for v in node_outputs}
    if problem.labels_edges:
        edge_outputs = {e: rng.randint(0, 1) for e in network.edges if rng.random() < 0.9}
        edge_commit_round = {e: rng.randint(0, rounds) for e in edge_outputs}
    return make_trace(
        network,
        problem,
        node_outputs,
        node_commit_round,
        edge_outputs,
        edge_commit_round,
        rounds=rounds,
        completed=False,  # gaps are allowed; validation is not the point here
        algorithm_name="random",
    )


def _node_time(trace, v: int) -> int:
    """Definition 1 for node ``v``: the latest commit among ``v`` and its edges."""
    never = trace.rounds
    times = []
    if trace.problem.labels_nodes:
        times.append(trace.node_commit_round.get(v, never))
    if trace.problem.labels_edges:
        times.extend(
            trace.edge_commit_round.get((min(u, v), max(u, v)), never)
            for u in trace.network.neighbors(v)
        )
    return max(times, default=0)


def _edge_time(trace, u: int, v: int) -> int:
    """Definition 1 for edge ``{u, v}``: the latest commit among it and its endpoints."""
    never = trace.rounds
    times = []
    if trace.problem.labels_edges:
        times.append(trace.edge_commit_round.get((u, v), never))
    if trace.problem.labels_nodes:
        times.extend(trace.node_commit_round.get(w, never) for w in (u, v))
    return max(times, default=0)


def _assert_agreement(traces) -> None:
    """Every metric of the numpy path agrees with the Definition 1 oracle."""
    node_times = [[_node_time(t, v) for v in t.network.vertices] for t in traces]
    edge_times = [[_edge_time(t, u, v) for u, v in t.network.edges] for t in traces]
    for trace, nodes, edges in zip(traces, node_times, edge_times):
        assert trace.node_completion_times() == nodes
        assert trace.edge_completion_times() == edges
        assert [trace.node_completion_time(v) for v in trace.network.vertices] == nodes
        assert [trace.edge_completion_time(u, v) for u, v in trace.network.edges] == edges
    # Per-entity expectation over the trials, then the four scalars.
    expected_nodes = [mean(column) for column in zip(*node_times)]
    expected_edges = [mean(column) for column in zip(*edge_times)]
    first = traces[0]
    new = metrics.measure(traces)
    assert (new.algorithm, new.problem, new.n, new.m, new.trials) == (
        first.algorithm_name,
        first.problem.name,
        first.network.n,
        first.network.m,
        len(traces),
    )
    assert new.worst_case == max(
        max([0, *nodes, *edges]) for nodes, edges in zip(node_times, edge_times)
    )
    assert _close(new.node_averaged, mean(expected_nodes) if expected_nodes else 0.0)
    assert _close(new.edge_averaged, mean(expected_edges) if expected_edges else 0.0)
    assert _close(new.node_expected, max(expected_nodes, default=0.0))
    assert _close(new.edge_expected, max(expected_edges, default=0.0))


class TestRandomizedDictTraces:
    @pytest.mark.parametrize("problem_key", ["nodes", "edges", "both"])
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_traces_agree(self, problem_key, seed, trace_factory):
        problem = {
            "nodes": problems.MIS,
            "edges": problems.MAXIMAL_MATCHING,
            "both": BOTH_LABELS,
        }[problem_key]
        rng = random.Random(1000 * seed + {"nodes": 1, "edges": 2, "both": 3}[problem_key])
        network = _random_network(rng)
        trials = rng.randint(1, 4)
        _assert_agreement(
            [_random_trace(trace_factory, network, problem, rng) for _ in range(trials)]
        )

    def test_quantiles_match_numpy_reference(self, trace_factory):
        rng = random.Random(7)
        network = _random_network(rng)
        traces = [_random_trace(trace_factory, network, problems.MIS, rng) for _ in range(3)]
        qs = metrics.completion_time_quantiles(traces, quantiles=(0.0, 0.5, 1.0))
        expected = np.zeros(network.n)
        for t in traces:
            expected += np.asarray(t.node_completion_times())
        expected /= len(traces)
        assert qs[0.0] == pytest.approx(float(expected.min()))
        assert qs[0.5] == pytest.approx(float(np.median(expected)))
        assert qs[1.0] == pytest.approx(float(expected.max()))
        measured = metrics.measure(traces, quantiles=(0.5,))
        assert measured.node_quantiles == ((0.5, qs[0.5]),)
        # Quantile fields never participate in equality.
        assert measured == metrics.measure(traces)


class TestCompletionTotals:
    """The running totals that ``measure`` and the sweep fold trials into:
    integer reductions divided once, so arrival order cannot matter."""

    @staticmethod
    def _folded(rows, quantiles=None):
        totals = metrics.CompletionTotals("random", BOTH_LABELS.name)
        for node_times, edge_times, timeline in rows:
            totals.add(node_times, edge_times, timeline)
        return totals.measurement(quantiles)

    def test_two_fold_orders_give_identical_floats(self, trace_factory):
        rng = random.Random(11)
        network = _random_network(rng)
        traces = [_random_trace(trace_factory, network, BOTH_LABELS, rng) for _ in range(7)]
        # Rows as a sweep ships them: narrow where they fit, some left int64.
        rows = [
            (
                t.node_completion_array().astype(np.uint16 if i % 2 else np.int64),
                t.edge_completion_array().astype(np.uint16 if i % 3 else np.int64),
                metrics.RecoveryTimeline(
                    crash_rounds=(1, 4),
                    pending=tuple(rng.randint(0, 1) for _ in range(6)),
                    valid=tuple(rng.random() < 0.5 for _ in range(6)),
                ),
            )
            for i, t in enumerate(traces)
        ]
        forward = self._folded(rows, quantiles=(0.1, 0.5, 0.9))
        backward = self._folded(rows[::-1], quantiles=(0.1, 0.5, 0.9))
        assert forward == backward
        # Every field, the compare-excluded quantiles and recovery included.
        assert dataclasses.astuple(forward) == dataclasses.astuple(backward)
        assert forward.recovery_epochs == 2 * len(rows)

    def test_folded_rows_measure_like_their_traces(self, trace_factory):
        rng = random.Random(12)
        network = _random_network(rng)
        traces = [_random_trace(trace_factory, network, BOTH_LABELS, rng) for _ in range(5)]
        rows = [
            (t.node_completion_array().astype(np.uint16), t.edge_completion_array(), None)
            for t in traces
        ]
        assert dataclasses.astuple(self._folded(rows[::-1], (0.5,))) == dataclasses.astuple(
            metrics.measure(traces, quantiles=(0.5,))
        )

    def test_rows_of_another_network_are_refused(self):
        totals = metrics.CompletionTotals("luby", "mis")
        totals.add(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError, match="same network"):
            totals.add(np.zeros(5, dtype=np.int64), np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError, match="at least one"):
            metrics.CompletionTotals("luby", "mis").measurement()


class TestRunnerArrayTraces:
    def test_luby_traces_agree(self, network_factory):
        import networkx as nx

        network = network_factory(nx.gnp_random_graph(60, 0.1, seed=5), seed=2)
        traces = run_trials(
            LubyMIS, network, problems.MIS, trials=3, seed=4, runner=Runner(max_rounds=200)
        )
        _assert_agreement(traces)

    def test_matching_traces_agree(self, network_factory):
        import networkx as nx

        network = network_factory(nx.random_regular_graph(4, 40, seed=6), seed=3)
        traces = run_trials(
            RandomizedMaximalMatching,
            network,
            problems.MAXIMAL_MATCHING,
            trials=3,
            seed=5,
            runner=Runner(max_rounds=200),
        )
        _assert_agreement(traces)

    def test_direct_edge_list_workload_agrees(self):
        network = Network.from_edge_arrays(gen.fast_gnp_edges(500, 8 / 499, seed=9))
        traces = run_trials(
            LubyMIS, network, problems.MIS, trials=2, seed=1, runner=Runner(max_rounds=200)
        )
        _assert_agreement(traces)


class TestEdgeCases:
    def test_empty_outputs_trace(self, trace_factory):
        """No entity ever committed: every completion time is the full length."""
        network = Network.from_edge_arrays(gen.cycle_edges(5))
        trace = trace_factory(network, problems.MIS, rounds=9, completed=False)
        assert trace.node_completion_times() == [9] * 5
        _assert_agreement([trace])

    def test_all_halted_at_round_zero(self, trace_factory):
        """Everyone commits immediately: all-zero vectors, zero averages."""
        network = Network.from_edge_arrays(gen.cycle_edges(6))
        trace = trace_factory(
            network,
            problems.MIS,
            node_outputs={v: v % 2 for v in range(6)},
            node_commit_round={v: 0 for v in range(6)},
            rounds=0,
        )
        assert metrics.node_averaged_complexity(trace) == 0.0
        assert metrics.worst_case_complexity(trace) == 0
        _assert_agreement([trace])

    def test_minus_one_sentinel_array_trace(self):
        """Array-built trace with explicit −1 slots (never committed)."""
        network = Network.from_edge_arrays(gen.path_edges(4))
        node_rounds = array("q", [0, -1, 2, -1])
        trace = ExecutionTrace(
            network,
            problems.MIS,
            [True, None, True, None],
            node_rounds,
            [None] * network.m,
            array("q", [-1]) * network.m,
            rounds=5,
            completed=False,
        )
        # Uncommitted nodes are charged the full execution length.
        assert trace.node_completion_times() == [0, 5, 2, 5]
        _assert_agreement([trace])

    def test_edgeless_network(self, trace_factory):
        network = Network.from_edge_arrays(EdgeArrays.from_pairs(3, []))
        trace = trace_factory(
            network,
            problems.MIS,
            node_outputs={0: 1, 1: 1, 2: 1},
            node_commit_round={0: 0, 1: 1, 2: 2},
            rounds=2,
        )
        assert metrics.edge_averaged_complexity(trace) == 0.0
        assert metrics.measure(trace).edge_expected == 0.0
        assert metrics.completion_time_quantiles(trace, entity="edge") == {
            0.5: 0.0,
            0.9: 0.0,
            0.99: 0.0,
        }
        _assert_agreement([trace])

    def test_quantiles_reject_bad_input(self, trace_factory):
        network = Network.from_edge_arrays(gen.cycle_edges(4))
        trace = trace_factory(network, problems.MIS, rounds=0)
        with pytest.raises(ValueError):
            metrics.completion_time_quantiles(trace, quantiles=(1.5,))
        with pytest.raises(ValueError):
            metrics.completion_time_quantiles(trace, entity="faces")


def test_measure_quantiles_validate_levels(trace_factory):
    """measure() and completion_time_quantiles share one validated helper."""
    network = Network.from_edge_arrays(gen.cycle_edges(4))
    trace = trace_factory(
        network,
        problems.MIS,
        node_outputs={v: 1 for v in range(4)},
        node_commit_round={v: 0 for v in range(4)},
        rounds=0,
    )
    with pytest.raises(ValueError):
        metrics.measure(trace, quantiles=(1.5,))
