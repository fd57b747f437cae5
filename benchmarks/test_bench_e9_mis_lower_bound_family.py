"""E9 — Theorem 16 (empirical shape): MIS on the lower-bound family vs its relaxation.

Runs the MIS algorithms and the (2,2)-ruling set algorithm on lifted cluster
tree graphs (the family behind the Ω(min{log Δ / log log Δ, √(log n / log
log n)}) node-averaged lower bound).  The shape asserted at demo scale has
two parts: each MIS algorithm's node-averaged cost concentrates on the huge
independent cluster S(c0) — exactly the population the lower-bound argument
shows cannot decide early — and the (2,2)-ruling set relaxation stays
bounded (Theorem 2).  At this scale MIS is not uniformly dearer than the
relaxation: Luby's node average (≈ 2.5–2.7) sits below the ruling set's
(≈ 4.0–4.3), whose iterations cost four rounds each, while Ghaffari's
(≈ 8.3–8.5) sits above it.  Whether the MIS curve crosses the ruling set's
as the family grows needs larger instances than these.
"""

from __future__ import annotations

from statistics import mean

from repro.algorithms.mis import GhaffariMIS, LubyMIS
from repro.algorithms.ruling_set import RandomizedTwoTwoRulingSet
from repro.analysis import format_table
from repro.core import problems
from repro.core.experiment import resolve_network, run_trials
from repro.core.metrics import measure, node_averaged_complexity
from repro.local.runner import Runner
from repro.lowerbound.base_graph import build_base_graph
from repro.lowerbound.lift import lift_cluster_graph

from _bench_utils import emit

CASES = [
    ("G_1 (beta=4)", 1, 4, 1),
    ("G_1 lifted q=2", 1, 4, 2),
]


def run_e9():
    rows = []
    runner = Runner(max_rounds=50_000)
    for label, k, beta, lift_order in CASES:
        gk = build_base_graph(k, beta)
        if lift_order > 1:
            gk = lift_cluster_graph(gk, lift_order, seed=3)
        network = resolve_network(gk.graph, seed=7)
        s0 = set(gk.special_cluster(0))

        for name, factory, problem in (
            ("luby-mis", LubyMIS, problems.MIS),
            ("ghaffari-mis", GhaffariMIS, problems.MIS),
            ("(2,2)-ruling-set", RandomizedTwoTwoRulingSet, problems.ruling_set(2, 2)),
        ):
            traces = run_trials(factory, network, problem, trials=2, seed=11, runner=runner)
            measurement = measure(traces)
            s0_average = mean(
                mean(trace.node_completion_time(v) for v in s0) for trace in traces
            )
            rows.append(
                {
                    "instance": label,
                    "algorithm": name,
                    "n": network.n,
                    "node_averaged": round(measurement.node_averaged, 3),
                    "s0_node_averaged": round(s0_average, 3),
                    "worst_case": measurement.worst_case,
                }
            )
    return rows


def test_e9_mis_cost_concentrates_on_s0_and_ruling_set_stays_bounded(run_experiment):
    rows = run_experiment(run_e9)
    emit(
        format_table(
            rows,
            columns=["instance", "algorithm", "n", "node_averaged", "s0_node_averaged", "worst_case"],
            title="E9: node-averaged complexity on the KMW-style family (Theorem 16)",
        )
    )
    by_instance = {}
    for row in rows:
        by_instance.setdefault(row["instance"], {})[row["algorithm"]] = row
    for instance, algorithms in by_instance.items():
        ruling = algorithms["(2,2)-ruling-set"]
        # Theorem 2: the relaxation stays cheap on the lower-bound family too.
        assert ruling["node_averaged"] <= 14.0
        for mis_name in ("luby-mis", "ghaffari-mis"):
            mis_row = algorithms[mis_name]
            # Theorem 16's mechanism: the node-averaged cost of MIS concentrates
            # on the dominant independent cluster S(c0), whose nodes cannot
            # decide before their small neighbouring clusters are resolved.
            assert mis_row["s0_node_averaged"] >= 0.8 * mis_row["node_averaged"]
