"""E10 — Theorem 17: maximal matching on the two-copy lower-bound construction.

On the two-copy KMW construction almost all nodes lie in the two copies of
``S(c0)`` and any maximal matching must contain almost all of the cross
perfect-matching edges joining them.  The measurable shape: the node-averaged
complexity of maximal matching on this instance is dominated by the S(c0)
twins (they decide late), and clearly exceeds the edge-averaged complexity of
the same algorithm on an ordinary graph of comparable size (Theorem 4's O(1)).
"""

from __future__ import annotations

from statistics import mean

import networkx as nx

from repro.algorithms.matching import RandomizedMaximalMatching
from repro.analysis import format_table
from repro.core import problems
from repro.core.experiment import resolve_network, run_trials
from repro.core.metrics import measure
from repro.local.runner import Runner
from repro.lowerbound.matching_construction import build_matching_lower_bound_graph

from _bench_utils import emit


def run_e10():
    runner = Runner(max_rounds=50_000)
    rows = []

    # k = 0, β = 12: the two copies of S(c1) hold only a third of |S(c0)|,
    # so at least two thirds of the S(c0) twin pairs must use their cross edge.
    instance = build_matching_lower_bound_graph(0, 12)
    network = resolve_network(instance.graph, seed=5)
    s0_nodes = set(instance.s0_copy_a) | set(instance.s0_copy_b)
    cross_s0 = set(instance.cross_matching_between_s0())

    traces = run_trials(
        RandomizedMaximalMatching, network, problems.MAXIMAL_MATCHING,
        trials=2, seed=3, runner=runner,
    )
    measurement = measure(traces)
    s0_average = mean(
        mean(trace.node_completion_time(v) for v in s0_nodes) for trace in traces
    )
    cross_used = mean(
        sum(1 for e in trace.selected_edges() if e in cross_s0) for trace in traces
    )
    rows.append(
        {
            "instance": "two-copy G_0 (Theorem 17)",
            "n": network.n,
            "s0_fraction": round(instance.s0_fraction(), 3),
            "node_averaged": round(measurement.node_averaged, 3),
            "s0_node_averaged": round(s0_average, 3),
            "edge_averaged": round(measurement.edge_averaged, 3),
            "cross_s0_edges_used": round(cross_used, 1),
            "cross_s0_edges_total": len(cross_s0),
        }
    )

    # Ordinary-graph baseline of comparable size for the edge-averaged O(1).
    baseline_graph = nx.random_regular_graph(6, network.n, seed=9)
    baseline_network = resolve_network(baseline_graph, seed=6)
    baseline_traces = run_trials(
        RandomizedMaximalMatching, baseline_network, problems.MAXIMAL_MATCHING,
        trials=2, seed=3, runner=runner,
    )
    baseline = measure(baseline_traces)
    rows.append(
        {
            "instance": "6-regular baseline",
            "n": baseline_network.n,
            "s0_fraction": 0.0,
            "node_averaged": round(baseline.node_averaged, 3),
            "s0_node_averaged": float("nan"),
            "edge_averaged": round(baseline.edge_averaged, 3),
            "cross_s0_edges_used": float("nan"),
            "cross_s0_edges_total": 0,
        }
    )
    return rows


def test_e10_matching_lower_bound_shape(run_experiment):
    rows = run_experiment(run_e10)
    emit(
        format_table(
            rows,
            columns=[
                "instance",
                "n",
                "s0_fraction",
                "node_averaged",
                "s0_node_averaged",
                "edge_averaged",
                "cross_s0_edges_used",
                "cross_s0_edges_total",
            ],
            title="E10: maximal matching on the two-copy construction (Theorem 17)",
        )
    )
    lower_bound_row = rows[0]
    baseline_row = rows[1]
    # The two S(c0) copies dominate the instance.
    assert lower_bound_row["s0_fraction"] > 0.4
    # Maximal matchings use most of the S(c0) cross edges (the structural fact
    # the lower-bound argument exploits).
    assert lower_bound_row["cross_s0_edges_used"] >= 0.5 * lower_bound_row["cross_s0_edges_total"]
    # The S(c0) twins carry at least the average cost.
    assert lower_bound_row["s0_node_averaged"] >= 0.8 * lower_bound_row["node_averaged"]
    # Edge-averaged complexity stays small on both instances (Theorem 4).
    assert lower_bound_row["edge_averaged"] <= 30.0
    assert baseline_row["edge_averaged"] <= 30.0
