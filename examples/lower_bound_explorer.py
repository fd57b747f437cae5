"""Explore the lower-bound construction of Section 4.

This example walks through the machinery behind Theorem 16:

1. build the cluster tree skeleton ``CT_k`` and print its structure (Figure 1);
2. realise it as a base graph ``G_k`` and check the Lemma 13 properties;
3. take a random lift (Lemma 12) and measure how locally tree-like it is;
4. run Algorithm 1 on a pair of ``S(c0)`` / ``S(c1)`` nodes and confirm that
   their views are indistinguishable (Theorem 11);
5. run an MIS algorithm on the graph and show that the big independent
   cluster ``S(c0)`` is exactly where the node-averaged cost concentrates.

Run with::

    python examples/lower_bound_explorer.py
"""

from __future__ import annotations

from statistics import mean

from repro.algorithms.mis import LubyMIS
from repro.analysis import format_table
from repro.core import problems
from repro.core.experiment import resolve_network, run_trials
from repro.core.metrics import measure
from repro.local.runner import Runner
from repro.lowerbound import (
    ClusterTreeSkeleton,
    build_base_graph,
    cluster_reports,
    find_isomorphism,
    lift_cluster_graph,
    verify_view_isomorphism,
)


def main() -> None:
    k, beta = 1, 4

    # 1. The skeleton (Figure 1).
    skeleton = ClusterTreeSkeleton(k)
    skeleton.validate()
    print(f"CT_{k}: {skeleton.summary()}")

    # 2. The base graph and its clusters (Lemma 13).
    gk = build_base_graph(k, beta)
    gk.validate_degrees()
    print(f"\nG_{k} with beta={beta}: n={gk.n}, max degree bound {gk.max_degree_bound()}")
    print(format_table([r.as_dict() for r in cluster_reports(gk)], title="cluster structure"))

    # 3. A random lift (Lemma 12).
    lifted = lift_cluster_graph(gk, order=3, seed=1)
    lifted.validate_degrees()
    print(f"\nlift of order 3: n={lifted.n} (degrees preserved, clusters preserved)")

    # 4. Theorem 11: indistinguishable views.
    v0 = lifted.special_cluster(0)[0]
    v1 = lifted.special_cluster(1)[0]
    phi = find_isomorphism(lifted, v0, v1)
    print(
        f"Algorithm 1 maps the radius-{k} view of node {v0} (in S(c0)) onto node {v1} "
        f"(in S(c1)): {len(phi)} nodes paired, verified={verify_view_isomorphism(lifted, phi, v0, v1)}"
    )

    # 5. Where does an MIS algorithm spend its node-averaged budget?
    network = resolve_network(lifted.graph, seed=3)
    traces = run_trials(LubyMIS, network, problems.MIS, trials=3, seed=0, runner=Runner())
    m = measure(traces)
    s0 = lifted.special_cluster(0)
    others = [v for v in network.vertices if v not in set(s0)]
    s0_cost = mean(mean(t.node_completion_time(v) for v in s0) for t in traces)
    other_cost = mean(mean(t.node_completion_time(v) for v in others) for t in traces)
    print(
        f"\nLuby MIS on the lifted G_{k}: node-averaged={m.node_averaged:.2f}, "
        f"S(c0) average={s0_cost:.2f}, rest of the graph={other_cost:.2f}"
    )
    print(
        "The large independent cluster S(c0) decides last — the population the "
        "lower bound of Theorem 16 is built around."
    )


if __name__ == "__main__":
    main()
