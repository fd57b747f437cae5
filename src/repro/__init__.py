"""repro — node and edge averaged complexities of local graph problems.

A reproduction of Balliu, Ghaffari, Kuhn, Olivetti, *Node and Edge Averaged
Complexities of Local Graph Problems* (PODC 2022): a synchronous
LOCAL/CONGEST simulator that tracks per-node and per-edge computation times,
the paper's averaged-complexity measures, implementations of its upper-bound
algorithms (MIS, ruling sets, maximal matching, sinkless orientation,
colouring) and the KMW-style lower-bound constructions (cluster trees, base
graphs, random lifts, the view-isomorphism Algorithm 1).

Quickstart::

    import networkx as nx
    from repro import Network, Runner, problems, measure
    from repro.algorithms.mis import LubyMIS

    network = Network.from_graph(nx.random_regular_graph(4, 100), id_scheme="permuted")
    trace = Runner().run(LubyMIS(), network, problems.MIS, seed=0)
    print(measure(trace))
"""

from repro.core import metrics, problems
from repro.core.experiment import run_trials
from repro.core.metrics import (
    ComplexityMeasurement,
    complexity_hierarchy,
    edge_averaged_complexity,
    measure,
    node_averaged_complexity,
    worst_case_complexity,
)
from repro.core.trace import ExecutionTrace
from repro.local.algorithm import NodeAlgorithm
from repro.local.coroutine import CoroutineAlgorithm
from repro.local.network import Network
from repro.local.runner import Runner

__version__ = "1.0.0"

__all__ = [
    "Network",
    "Runner",
    "NodeAlgorithm",
    "CoroutineAlgorithm",
    "ExecutionTrace",
    "ComplexityMeasurement",
    "problems",
    "metrics",
    "measure",
    "run_trials",
    "node_averaged_complexity",
    "edge_averaged_complexity",
    "worst_case_complexity",
    "complexity_hierarchy",
    "__version__",
]
