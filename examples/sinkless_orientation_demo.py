"""Write off-loading: sinkless orientations of a storage network.

Every server in a storage cluster must forward its write log to at least one
neighbour (no server may be a sink).  This is the sinkless-orientation problem
on a graph of minimum degree 3.  The example runs the randomized algorithm
(node-averaged O(1), Section 3.3) and the deterministic two-stage algorithm
(Theorem 6, simplified as documented in DESIGN.md) and reports how quickly
servers learn their forwarding direction.

Run with::

    python examples/sinkless_orientation_demo.py
"""

from __future__ import annotations

from collections import Counter

import networkx as nx

from repro.algorithms.orientation import (
    DeterministicSinklessOrientation,
    RandomizedSinklessOrientation,
)
from repro.analysis import format_table
from repro.core import problems
from repro.core.experiment import resolve_network, run_trials
from repro.core.metrics import measure
from repro.local.runner import Runner


def main() -> None:
    runner = Runner(max_rounds=50_000)
    rows = []
    for n in (90, 270, 810):
        graph = nx.random_regular_graph(3, n, seed=11)
        network = resolve_network(graph, seed=n)
        for label, factory in (
            ("randomized", RandomizedSinklessOrientation),
            ("deterministic (Thm 6)", DeterministicSinklessOrientation),
        ):
            traces = run_trials(
                factory, network, problems.SINKLESS_ORIENTATION, trials=3, seed=2, runner=runner
            )
            m = measure(traces)
            rows.append(
                {
                    "servers": n,
                    "algorithm": label,
                    "node-averaged": round(m.node_averaged, 2),
                    "edge-averaged": round(m.edge_averaged, 2),
                    "worst-case": m.worst_case,
                }
            )
    print(
        format_table(
            rows,
            columns=["servers", "algorithm", "node-averaged", "edge-averaged", "worst-case"],
            title="Sinkless orientation: when does each server know where to forward?",
        )
    )

    # Show the distribution of decision times for one deterministic run: most
    # servers decide in the first few rounds, a few stragglers pay the worst case.
    graph = nx.random_regular_graph(3, 270, seed=11)
    network = resolve_network(graph, seed=270)
    trace = Runner(max_rounds=50_000).run(
        DeterministicSinklessOrientation(), network, problems.SINKLESS_ORIENTATION, seed=2
    )
    histogram = Counter(trace.node_completion_times())
    print("\ncompletion-time histogram (deterministic, n=270):")
    for rounds in sorted(histogram):
        print(f"  round {rounds:3d}: {'#' * min(60, histogram[rounds])} ({histogram[rounds]})")


if __name__ == "__main__":
    main()
