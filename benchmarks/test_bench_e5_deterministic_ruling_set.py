"""E5 — Theorem 3: deterministic ruling sets with O(log* n) node-averaged complexity.

The sweep grows Δ and reports, for both variants of Theorem 3 (the
``(2, O(log Δ))``- and the ``(2, O(log log n))``-ruling set), the node-averaged
and worst-case complexity plus the coverage radius used for validation.
Expected shape: node-averaged complexity essentially independent of Δ (it is
O(log* n) plus the per-iteration constant), worst case noticeably larger.
"""

from __future__ import annotations

import networkx as nx

from repro.algorithms.ruling_set import DeterministicRulingSet
from repro.analysis import format_table
from repro.core import problems
from repro.core.experiment import resolve_network, run_trials
from repro.core.metrics import measure
from repro.local.runner import Runner

from _bench_utils import emit

DEGREES = [4, 8, 16]
N = 300


def run_e5():
    rows = []
    runner = Runner(max_rounds=50_000)
    for degree in DEGREES:
        graph = nx.random_regular_graph(degree, N, seed=53)
        network = resolve_network(graph, seed=degree)
        for variant in ("log-delta", "log-log-n"):
            algorithm = DeterministicRulingSet.for_network(network, variant=variant)
            problem = problems.ruling_set(2, algorithm.coverage_radius)
            measurement = measure(
                run_trials(
                    lambda: DeterministicRulingSet.for_network(network, variant=variant),
                    network,
                    problem,
                    trials=1,
                    runner=runner,
                )
            )
            row = measurement.as_dict()
            row["delta"] = degree
            row["variant"] = variant
            row["beta"] = algorithm.coverage_radius
            rows.append(row)
    return rows


def test_e5_deterministic_ruling_set_average_flat(run_experiment):
    rows = run_experiment(run_e5)
    emit(
        format_table(
            rows,
            columns=["delta", "variant", "beta", "node_averaged", "worst_case", "n", "m"],
            title="E5: deterministic ruling sets vs Δ (Theorem 3)",
        )
    )
    log_delta_rows = [r for r in rows if r["variant"] == "log-delta"]
    averages = [r["node_averaged"] for r in log_delta_rows]
    # Node-averaged complexity is dominated by the (log* n)-style first
    # iterations: it must stay within a narrow band as Δ quadruples.
    assert max(averages) <= 3.0 * min(averages) + 10.0
    for row in rows:
        assert row["node_averaged"] <= row["worst_case"]
    # The coverage radius of the log-delta variant grows with log Δ.
    betas = [r["beta"] for r in log_delta_rows]
    assert betas == sorted(betas)
