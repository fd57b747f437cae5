"""Content replication: edge-averaged vs node-averaged cost of maximal matching.

A peer-to-peer network pairs up adjacent servers to replicate content
(a maximal matching).  Theorem 4 says the *edges* of the network settle their
fate after O(1) rounds on average (a link either becomes a replication pair
early or learns early that one endpoint is taken), while nodes — which must
wait for *all* their incident links — take longer on average, and the global
worst case grows with n.  This example measures all three quantities for the
randomized and the deterministic matching algorithms as the network grows.

Run with::

    python examples/matching_edge_vs_node.py
"""

from __future__ import annotations

import networkx as nx

from repro.algorithms.matching import DeterministicMaximalMatching, RandomizedMaximalMatching
from repro.analysis import format_table
from repro.core import problems
from repro.core.experiment import resolve_network, run_trials
from repro.core.metrics import measure
from repro.local.runner import Runner


def main() -> None:
    runner = Runner(max_rounds=50_000)
    rows = []
    for n in (100, 300, 900):
        graph = nx.random_regular_graph(4, n, seed=7)
        network = resolve_network(graph, seed=n)
        for label, factory in (
            ("randomized (Thm 4)", RandomizedMaximalMatching),
            ("deterministic (Thm 5)", DeterministicMaximalMatching),
        ):
            traces = run_trials(
                factory, network, problems.MAXIMAL_MATCHING, trials=3, seed=5, runner=runner
            )
            m = measure(traces)
            rows.append(
                {
                    "n": n,
                    "algorithm": label,
                    "edge-averaged": round(m.edge_averaged, 2),
                    "node-averaged": round(m.node_averaged, 2),
                    "worst-case": m.worst_case,
                    "pairs": len(traces[0].selected_edges()),
                }
            )
    print(
        format_table(
            rows,
            columns=["n", "algorithm", "edge-averaged", "node-averaged", "worst-case", "pairs"],
            title="Replication pairing: who decides when?",
        )
    )
    print(
        "\nTakeaway: links settle in O(1) rounds on average (edge-averaged column"
        " flat, Theorem 4); nodes and the global finish time take longer."
    )


if __name__ == "__main__":
    main()
