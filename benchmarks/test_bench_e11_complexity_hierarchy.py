"""E11 — Appendix A: the chain AVG_V ≤ AVG^w_V ≤ EXP_V ≤ WORST_V.

Measures all four node-complexity notions of Appendix A for one randomized
algorithm per problem and checks that the measured chain is monotone (with
the worst-case weight distribution, for which the weighted average equals the
node expected complexity).
"""

from __future__ import annotations

import networkx as nx

from repro.algorithms.matching import RandomizedMaximalMatching
from repro.algorithms.mis import LubyMIS
from repro.algorithms.orientation import RandomizedSinklessOrientation
from repro.algorithms.ruling_set import RandomizedTwoTwoRulingSet
from repro.analysis import format_table
from repro.core import problems
from repro.core.experiment import resolve_network, run_trials
from repro.core.metrics import complexity_hierarchy
from repro.local.runner import Runner

from _bench_utils import emit

N = 200


def run_e11():
    runner = Runner(max_rounds=50_000)
    graph = nx.random_regular_graph(4, N, seed=71)
    network = resolve_network(graph, seed=8)
    min3_graph = nx.random_regular_graph(3, N, seed=72)
    min3_network = resolve_network(min3_graph, seed=9)

    cases = [
        ("luby-mis", LubyMIS, problems.MIS, network),
        ("(2,2)-ruling-set", RandomizedTwoTwoRulingSet, problems.ruling_set(2, 2), network),
        ("randomized-matching", RandomizedMaximalMatching, problems.MAXIMAL_MATCHING, network),
        (
            "randomized-orientation",
            RandomizedSinklessOrientation,
            problems.SINKLESS_ORIENTATION,
            min3_network,
        ),
    ]
    rows = []
    for name, factory, problem, net in cases:
        traces = run_trials(factory, net, problem, trials=4, seed=0, runner=runner)
        chain = complexity_hierarchy(traces)
        rows.append(
            {
                "algorithm": name,
                "problem": problem.name,
                "avg": round(chain["avg"], 3),
                "weighted_avg": round(chain["weighted_avg"], 3),
                "expected": round(chain["expected"], 3),
                "worst": chain["worst"],
            }
        )
    return rows


def test_e11_hierarchy_is_monotone(run_experiment):
    rows = run_experiment(run_e11)
    emit(
        format_table(
            rows,
            columns=["algorithm", "problem", "avg", "weighted_avg", "expected", "worst"],
            title="E11: AVG_V <= AVG^w_V <= EXP_V <= WORST_V (Appendix A)",
        )
    )
    for row in rows:
        assert row["avg"] <= row["weighted_avg"] + 1e-9
        assert row["weighted_avg"] <= row["expected"] + 1e-9
        assert row["expected"] <= row["worst"] + 1e-9
