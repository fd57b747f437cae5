"""E4 — Theorem 6: sinkless orientation, node-averaged vs worst case.

Theorem 6: deterministic sinkless orientation with node-averaged complexity
O(log* n) and worst-case O(log n); the randomized algorithm (Section 3.3) has
node-averaged complexity O(1).  The sweep grows ``n`` on 3-regular graphs and
reports both algorithms.  Expected shape: both node-averaged columns stay
essentially flat while the worst case is larger and tends to grow with ``n``
(the deterministic algorithm's gap between average and worst case is the
qualitative content of the theorem; the
:mod:`repro.algorithms.orientation.deterministic` docstring explains the
substitution).
"""

from __future__ import annotations

import networkx as nx

from repro.algorithms.orientation import (
    DeterministicSinklessOrientation,
    RandomizedSinklessOrientation,
)
from repro.analysis import format_sweep, sweep
from repro.core import problems

from _bench_utils import emit

SIZES = [60, 120, 240, 480]


def run_e4():
    return sweep(
        parameter="n",
        values=SIZES,
        graph_factory=lambda n: nx.random_regular_graph(3, n, seed=41),
        algorithms={
            "randomized-orientation": (
                lambda net: RandomizedSinklessOrientation(),
                lambda net: problems.SINKLESS_ORIENTATION,
            ),
            "deterministic-orientation": (
                lambda net: DeterministicSinklessOrientation(),
                lambda net: problems.SINKLESS_ORIENTATION,
            ),
        },
        trials=3,
        seed=4,
    )


def test_e4_node_average_flat_worst_case_larger(run_experiment):
    points = run_experiment(run_e4)
    emit(format_sweep(points, title="E4: sinkless orientation vs n (Theorem 6)"))

    by_algorithm = {}
    for point in points:
        by_algorithm.setdefault(point.measurement.algorithm, []).append(point.measurement)

    randomized = by_algorithm["randomized-orientation"]
    deterministic = by_algorithm["deterministic-orientation"]

    # Randomized node-averaged complexity is O(1): flat across an 8x growth in n.
    random_averages = [m.node_averaged for m in randomized]
    assert max(random_averages) <= 12.0
    assert max(random_averages) <= 1.8 * min(random_averages) + 2.0

    # Deterministic: the node average stays well below the worst case.
    for m in deterministic:
        assert m.node_averaged <= m.worst_case
    det_averages = [m.node_averaged for m in deterministic]
    assert max(det_averages) <= 2.0 * min(det_averages) + 6.0
