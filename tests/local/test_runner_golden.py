"""Golden trace digests for the coroutine runner.

The runner is the exact reference for the paper's individual complexities
``T_v`` / ``T_e``, so every execution below is reduced to the payload of
``tests/local/test_selfstab_golden.py`` (commit rounds and values, rounds,
messages, ``fault_events``, ``crashed``) plus the largest message size, and
the payloads of one configuration are hashed together.

* Fault-free: every coroutine algorithm under :mod:`repro.algorithms` (and
  the two self-stabilising node algorithms, which take the runner's
  ``receive`` path) on the six golden graphs plus a cycle, a random tree and
  a random 4-regular graph, with permuted identifiers.  Each network is
  built twice — through :meth:`Network.from_graph` and through
  :meth:`Network.from_edge_arrays` on the relabelled edges — and both builds
  must give the one pinned digest.  The tree carries string labels whose
  sorted order is not the generation order, so the relabelling branch of
  :meth:`Network.from_graph` is pinned too.
* Faulted: :class:`LubyMIS` and :class:`RandomizedMaximalMatching` under the
  five golden fault schedules.  Luby under delays can meet a cross-phase
  straggler and raise ``TypeError``, and matching under drops or delays can
  end in a :class:`~repro.local.node.CommitError`; those outcomes are pinned
  as well.
* Seed cells: five workloads on which the seed commit's own pipeline
  (networkx network, scan-per-round runner) gave traces identical to the
  runner's, with its inputs: identifiers permuted by ``random.Random(7)``,
  trial ``i`` seeded ``trial_seed(0, i)``, ``Runner(max_rounds=20_000)``.
  Their digests were taken while that identity was still asserted, so they
  carry it forward.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

import networkx as nx
import pytest

from repro.algorithms.coloring import RandomizedColoring
from repro.algorithms.matching import DeterministicMaximalMatching, RandomizedMaximalMatching
from repro.algorithms.mis import GhaffariMIS, LocalMinimumMIS, LubyMIS
from repro.algorithms.orientation import (
    DeterministicSinklessOrientation,
    RandomizedSinklessOrientation,
)
from repro.algorithms.ruling_set import DeterministicRulingSet, RandomizedTwoTwoRulingSet
from repro.algorithms.selfstab import SelfStabilizingLubyMIS, SelfStabilizingMatching
from repro.core import problems
from repro.core.experiment import trial_seed
from repro.graphs import generators as gen
from repro.graphs.edgelist import EdgeArrays
from repro.local.network import Network
from repro.local.node import CommitError
from repro.local.runner import Runner

from test_selfstab_golden import (
    GRAPHS,
    MAX_ROUNDS,
    SCHEDULES,
    digest_of,
    graph,
    trace_payload,
)


def _with_vertices(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _arrays_graph(arrays: EdgeArrays) -> nx.Graph:
    return _with_vertices(arrays.n, arrays.as_pairs())


def _golden_graph(seed: int, n: int) -> nx.Graph:
    net = graph(seed, n)
    return _with_vertices(n, net.edges)


def _tree(n: int, seed: int) -> nx.Graph:
    """A random tree on the labels ``"t0".."t{n-1}"`` (sorted ≠ generated order)."""
    tree = gen.random_tree(n, seed=seed)
    return nx.relabel_nodes(tree, {v: f"t{v}" for v in tree})


#: name -> (seed, graph).  The seed drives identifiers and the runs.
FAULT_FREE_GRAPHS: Dict[str, Tuple[int, nx.Graph]] = {
    **{f"gnp-{seed}-{n}": (seed, _golden_graph(seed, n)) for seed, n in GRAPHS},
    "cycle-31": (7, _arrays_graph(gen.cycle_edges(31))),
    "tree-40": (8, _tree(40, seed=8)),
    "regular4-36": (9, _arrays_graph(gen.random_regular_edges(4, 36, seed=9))),
}


def build_pair(seed: int, g: nx.Graph) -> Tuple[Network, Network]:
    """The same network through ``from_graph`` and through ``from_edge_arrays``."""
    index = {label: i for i, label in enumerate(sorted(g))}
    arrays = EdgeArrays.from_pairs(len(index), [(index[u], index[v]) for u, v in g.edges()])
    return (
        Network.from_graph(g, id_scheme="permuted", rng=random.Random(seed)),
        Network.from_edge_arrays(arrays, id_scheme="permuted", rng=random.Random(seed)),
    )


def _deterministic_ruling_set(net: Network) -> tuple:
    algorithm = DeterministicRulingSet.for_network(net)
    return algorithm, problems.ruling_set(2, algorithm.coverage_radius)


#: name -> factory(network) -> (algorithm, problem).
ALGORITHMS: Dict[str, Callable[[Network], tuple]] = {
    "luby-mis": lambda net: (LubyMIS(), problems.MIS),
    "ghaffari-mis": lambda net: (GhaffariMIS(), problems.MIS),
    "local-minimum-mis": lambda net: (LocalMinimumMIS(), problems.MIS),
    "randomized-ruling-set": lambda net: (
        RandomizedTwoTwoRulingSet(),
        problems.ruling_set(2, 2),
    ),
    "deterministic-ruling-set": _deterministic_ruling_set,
    "randomized-matching": lambda net: (
        RandomizedMaximalMatching(),
        problems.MAXIMAL_MATCHING,
    ),
    "deterministic-matching": lambda net: (
        DeterministicMaximalMatching(),
        problems.MAXIMAL_MATCHING,
    ),
    "randomized-coloring": lambda net: (
        RandomizedColoring(),
        problems.coloring(net.max_degree() + 1),
    ),
    "randomized-orientation": lambda net: (
        RandomizedSinklessOrientation(),
        problems.SINKLESS_ORIENTATION,
    ),
    "deterministic-orientation": lambda net: (
        DeterministicSinklessOrientation(),
        problems.SINKLESS_ORIENTATION,
    ),
    "selfstab-mis": lambda net: (SelfStabilizingLubyMIS(), problems.MIS),
    "selfstab-matching": lambda net: (
        SelfStabilizingMatching(),
        problems.MAXIMAL_MATCHING,
    ),
}


FAULTED = {
    "luby-mis": lambda: (LubyMIS(), problems.MIS),
    "randomized-matching": lambda: (RandomizedMaximalMatching(), problems.MAXIMAL_MATCHING),
}

#: sha256 (first 16 hex digits) over one configuration's trace payloads.
GOLDEN = {
    ("deterministic-matching", "fault-free"): "484614d5182d5f96",
    ("deterministic-orientation", "fault-free"): "37e277b0a093983e",
    ("deterministic-ruling-set", "fault-free"): "872dce1893d9cd4f",
    ("ghaffari-mis", "fault-free"): "a04a9c5c5a9201bc",
    ("local-minimum-mis", "fault-free"): "9e9927f92e0e662e",
    ("luby-mis", "fault-free"): "d9e2994c5388539f",
    ("luby-mis", "late-wave"): "d5621a5978039e7c",
    ("luby-mis", "single-round-1"): "749f1882b460b8bb",
    ("luby-mis", "waves"): "1c39cca4f08b52cd",
    ("luby-mis", "waves-delay"): "dc8e533c4d77e678",
    ("luby-mis", "waves-drop"): "f8e2bc58db2fcfeb",
    ("randomized-coloring", "fault-free"): "73158f81624b8222",
    ("randomized-matching", "fault-free"): "a8f0ada80544b3ad",
    ("randomized-matching", "late-wave"): "9ade9c5afe8b58d2",
    ("randomized-matching", "single-round-1"): "391ccf9670ecd5eb",
    ("randomized-matching", "waves"): "c7b616611e764d18",
    ("randomized-matching", "waves-delay"): "9f92acc1bfbbc016",
    ("randomized-matching", "waves-drop"): "8c8668a4b0c864e7",
    ("randomized-orientation", "fault-free"): "165b092e9cae4387",
    ("randomized-ruling-set", "fault-free"): "fb788d23212c4209",
    ("selfstab-matching", "fault-free"): "db0f255e94e83687",
    ("selfstab-mis", "fault-free"): "bdbf7370125d0de1",
}


#: name -> (algorithm, problem, workload, trials).  A workload is a networkx
#: graph or an ``(n, edges)`` pair on the vertices ``0..n-1``.
SEED_CELLS: Dict[str, tuple] = {
    "luby-mis/cycle-150": (LubyMIS, problems.MIS, lambda: gen.cycle_graph(150), 3),
    "luby-mis/random-4-regular-120": (
        LubyMIS,
        problems.MIS,
        lambda: gen.random_regular_graph(4, 120, seed=1),
        3,
    ),
    "randomized-matching/random-tree-120": (
        RandomizedMaximalMatching,
        problems.MAXIMAL_MATCHING,
        lambda: gen.random_tree(120, seed=2),
        2,
    ),
    "randomized-orientation/random-4-regular-100": (
        RandomizedSinklessOrientation,
        problems.SINKLESS_ORIENTATION,
        lambda: gen.random_regular_graph(4, 100, seed=3),
        2,
    ),
    "luby-mis/random-4-regular-edges-400": (
        LubyMIS,
        problems.MIS,
        lambda: gen.random_regular_edges(4, 400, seed=1),
        2,
    ),
}

#: sha256 (first 16 hex digits) over one seed cell's ``trace_payload``s.
SEED_CELL_GOLDEN = {
    "luby-mis/cycle-150": "d9dd722e4782fc31",
    "luby-mis/random-4-regular-120": "b68ba1ce37a8ed3b",
    "randomized-matching/random-tree-120": "58b402631b1ac7d8",
    "randomized-orientation/random-4-regular-100": "a05504d5d3130254",
    "luby-mis/random-4-regular-edges-400": "c766b4061a171661",
}


def runner() -> Runner:
    return Runner(max_rounds=MAX_ROUNDS, strict=False, track_message_bits=True)


def payload(trace) -> dict:
    record = trace_payload(trace)
    record["max_message_bits"] = trace.max_message_bits
    return record


def fault_free_digests(name: str) -> Tuple[str, str]:
    """The digest of the ``from_graph`` builds and of the array builds."""
    by_graph: List[dict] = []
    by_arrays: List[dict] = []
    for seed, g in FAULT_FREE_GRAPHS.values():
        for net, payloads in zip(build_pair(seed, g), (by_graph, by_arrays)):
            algorithm, problem = ALGORITHMS[name](net)
            trace = runner().run(algorithm, net, problem, seed=seed)
            assert trace.validate(), trace.validate().reason
            payloads.append(payload(trace))
    return digest_of(by_graph), digest_of(by_arrays)


def faulted_digest(name: str, schedule: str) -> str:
    payloads = []
    for seed, n in GRAPHS:
        algorithm, problem = FAULTED[name]()
        try:
            trace = runner().run(
                algorithm,
                graph(seed, n),
                problem,
                seed=seed,
                faults=SCHEDULES[schedule](n, seed),
            )
        except (TypeError, CommitError) as exc:
            payloads.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        payloads.append(payload(trace))
    return digest_of(payloads)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_fault_free_digest_is_pinned(name):
    by_graph, by_arrays = fault_free_digests(name)
    assert by_graph == by_arrays
    assert by_graph == GOLDEN[name, "fault-free"]


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("name", sorted(FAULTED))
def test_faulted_digest_is_pinned(name, schedule):
    assert faulted_digest(name, schedule) == GOLDEN[name, schedule]


def seed_cell_digest(name: str) -> str:
    algorithm, problem, workload, trials = SEED_CELLS[name]
    source = workload()
    if not isinstance(source, EdgeArrays):
        source = EdgeArrays.from_pairs(source.number_of_nodes(), source.edges())
    network = Network.from_edge_arrays(source, id_scheme="permuted", rng=random.Random(7))
    seed_runner = Runner(max_rounds=20_000)
    payloads = []
    for i in range(trials):
        trace = seed_runner.run(algorithm(), network, problem, seed=trial_seed(0, i))
        assert trace.validate(), trace.validate().reason
        payloads.append(trace_payload(trace))
    return digest_of(payloads)


@pytest.mark.parametrize("name", sorted(SEED_CELLS))
def test_seed_cell_digest_is_pinned(name):
    assert seed_cell_digest(name) == SEED_CELL_GOLDEN[name]
