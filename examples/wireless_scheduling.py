"""Wireless scheduling: MIS versus (2,2)-ruling set cluster heads.

The paper's motivating scenario for node-averaged complexity is energy: the
average number of rounds a node stays active approximates the energy the
network spends.  This example models a dense wireless deployment (a random
geometric-ish graph with growing density), where a set of non-conflicting
cluster heads must be elected:

* electing a *maximal independent set* gives the classical guarantee (every
  node has a head within one hop) but, per Theorem 16, its node-averaged cost
  grows with the density Δ;
* electing a *(2,2)-ruling set* relaxes coverage to two hops and, per
  Theorem 2, keeps the node-averaged cost constant — most radios can power
  down after a constant number of rounds regardless of density.

Run with::

    python examples/wireless_scheduling.py
"""

from __future__ import annotations

import networkx as nx

from repro.algorithms.mis import GhaffariMIS, LubyMIS
from repro.algorithms.ruling_set import RandomizedTwoTwoRulingSet
from repro.analysis import format_table
from repro.core import problems
from repro.core.experiment import resolve_network, run_trials
from repro.core.metrics import measure
from repro.local.runner import Runner


def deployment(density: int, n: int = 400) -> nx.Graph:
    """A bounded-degree deployment graph with average degree ≈ density."""
    return nx.random_regular_graph(density, n, seed=density)


def main() -> None:
    runner = Runner(max_rounds=50_000)
    rows = []
    for density in (4, 8, 16, 32):
        graph = deployment(density)
        network = resolve_network(graph, seed=density)
        for label, factory, problem in (
            ("MIS (Luby)", LubyMIS, problems.MIS),
            ("MIS (degree-adaptive)", GhaffariMIS, problems.MIS),
            ("(2,2)-ruling set", RandomizedTwoTwoRulingSet, problems.ruling_set(2, 2)),
        ):
            traces = run_trials(factory, network, problem, trials=3, seed=1, runner=runner)
            m = measure(traces)
            heads = len(traces[0].selected_nodes())
            rows.append(
                {
                    "density": density,
                    "cluster heads": label,
                    "heads elected": heads,
                    "node-averaged rounds": round(m.node_averaged, 2),
                    "worst-case rounds": m.worst_case,
                }
            )
    print(
        format_table(
            rows,
            columns=["density", "cluster heads", "heads elected", "node-averaged rounds", "worst-case rounds"],
            title="Cluster-head election cost as the deployment gets denser",
        )
    )
    print(
        "\nTakeaway: the (2,2)-ruling set column stays flat as the density grows"
        " (Theorem 2), while MIS pays more on average (Theorem 16)."
    )


if __name__ == "__main__":
    main()
