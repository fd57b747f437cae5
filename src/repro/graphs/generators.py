"""Workload graph generators.

All generators return :class:`networkx.Graph` objects on vertices ``0..n-1``
so they can be handed directly to :meth:`Network.from_graph
<repro.local.network.Network.from_graph>`.  Each
imports networkx when it runs, so importing this module does not load
networkx.  They cover the graph families the paper's results talk about:

* cycles and paths (Feuilloley's Ω(log* n) deterministic node-averaged bound),
* d-regular graphs (the O(1) node-averaged regime for Luby-style
  algorithms; with d = 3, the sinkless-orientation workloads of Theorem 6),
* random trees (the worst-case MIS lower bound of Theorem 16),
* general random graphs with a degree parameter (the Δ sweeps of the
  benchmark harness),
* grids, stars and complete graphs.

Each family is additionally available as a **direct edge-list generator**
(``cycle_edges``, ``random_regular_edges``, …) returning an
:class:`repro.graphs.edgelist.EdgeArrays` — flat int64 endpoint arrays with
provenance metadata — without ever instantiating a networkx graph: the
construction path for ``n ≥ 10⁵`` sweeps, consumed by
:meth:`Network.from_edge_arrays` (the one network build),
:func:`repro.core.experiment.resolve_network`, the sweeps and the
:class:`~repro.core.experiment.Experiment` facade.  The
deterministic families (cycles, paths, stars, grids, complete graphs) and
:func:`fast_gnp_edges` build those arrays **directly in numpy**, never
materialising a Python tuple per edge; the stream-exact randomized twins
necessarily replay their tuple-based reference algorithms first and convert
at the end.  The direct generators are **stream-exact** twins of their
networkx counterparts: for a matching seed they produce the same edge set,
because they replay the counterpart's RNG consumption call for call (the
randomized ones replicate the algorithm of the *installed* networkx
version — Steger–Wormald pairing for ``random_regular_edges``, the O(n²)
Gilbert loop for ``erdos_renyi_edges``).  networkx is an installed
dependency, not vendored, so a future upgrade that reorders its internal
draws would break the stream parity — the seed-for-seed equivalence tests
in ``tests/graphs/test_generator_edges.py`` exist to catch exactly that
drift.

One generator deliberately breaks the stream-exactness rule:
:func:`fast_gnp_edges` is the geometric-skip (Batagelj–Brandes) Erdős–Rényi
generator for the ``n ≥ 10⁵`` regime, with its own documented numpy-PCG64
seed schedule.  The quadratic Gilbert twin stays as the exact reference; the
two are pinned statistically equal (edge-count Chernoff bounds, degree
chi-square) in ``tests/graphs/test_fast_gnp.py``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.edgelist import EdgeArrays

if TYPE_CHECKING:  # pragma: no cover - the networkx generators import it where they run
    import networkx as nx

__all__ = [
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "random_regular_graph",
    "erdos_renyi_graph",
    "random_tree",
    "relabel_to_integers",
    "cycle_edges",
    "path_edges",
    "complete_edges",
    "star_edges",
    "grid_edges",
    "random_regular_edges",
    "erdos_renyi_edges",
    "fast_gnp_edges",
]

Edge = Tuple[int, int]


def relabel_to_integers(graph: nx.Graph) -> nx.Graph:
    """Relabel an arbitrary graph to consecutive integer vertices ``0..n-1``."""
    import networkx as nx

    mapping = {v: i for i, v in enumerate(graph.nodes())}
    return nx.relabel_nodes(graph, mapping, copy=True)


def cycle_graph(n: int) -> nx.Graph:
    """The n-cycle ``C_n`` (requires ``n ≥ 3``)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    import networkx as nx

    return nx.cycle_graph(n)


def path_graph(n: int) -> nx.Graph:
    """The path on ``n`` nodes."""
    if n < 1:
        raise ValueError("a path needs at least 1 node")
    import networkx as nx

    return nx.path_graph(n)


def complete_graph(n: int) -> nx.Graph:
    """The complete graph ``K_n``."""
    if n < 1:
        raise ValueError("a complete graph needs at least 1 node")
    import networkx as nx

    return nx.complete_graph(n)


def star_graph(leaves: int) -> nx.Graph:
    """A star with one centre and ``leaves`` leaves (``n = leaves + 1``)."""
    if leaves < 1:
        raise ValueError("a star needs at least one leaf")
    import networkx as nx

    return nx.star_graph(leaves)


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """The ``rows × cols`` grid, relabelled to integer vertices."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    import networkx as nx

    return relabel_to_integers(nx.grid_2d_graph(rows, cols))


def random_regular_graph(degree: int, n: int, seed: int = 0) -> nx.Graph:
    """A uniformly random ``degree``-regular simple graph on ``n`` nodes.

    ``degree * n`` must be even and ``degree < n``.
    """
    if degree < 0 or n <= degree:
        raise ValueError("need 0 <= degree < n")
    if (degree * n) % 2 != 0:
        raise ValueError("degree * n must be even")
    import networkx as nx

    return nx.random_regular_graph(degree, n, seed=seed)


def erdos_renyi_graph(n: int, expected_degree: float, seed: int = 0) -> nx.Graph:
    """An Erdős–Rényi graph ``G(n, p)`` with ``p = expected_degree / (n - 1)``."""
    if n < 1:
        raise ValueError("n must be positive")
    import networkx as nx

    if n == 1:
        g = nx.Graph()
        g.add_node(0)
        return g
    p = min(1.0, max(0.0, expected_degree / (n - 1)))
    return nx.gnp_random_graph(n, p, seed=seed)


def random_tree(n: int, seed: int = 0) -> nx.Graph:
    """A uniformly random labelled tree on ``n`` nodes (Prüfer-based)."""
    if n < 1:
        raise ValueError("n must be positive")
    import networkx as nx

    if n <= 2:
        return nx.path_graph(n)
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    return nx.from_prufer_sequence(prufer)


# ---------------------------------------------------------------------- #
# Direct edge-list generators (no networkx on the construction path)
# ---------------------------------------------------------------------- #


def _edge_arrays(n: int, src: np.ndarray, dst: np.ndarray, /, **meta: object) -> EdgeArrays:
    """Freeze freshly built endpoint arrays, so :class:`EdgeArrays` adopts
    them without a copy, and label them with their provenance."""
    src.setflags(write=False)
    dst.setflags(write=False)
    return EdgeArrays(n=n, src=src, dst=dst, meta=meta)


def cycle_edges(n: int) -> EdgeArrays:
    """Edge-list twin of :func:`cycle_graph`: ``(i, i + 1)`` for each
    ``i < n − 1``, then ``(0, n − 1)``."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    src = np.arange(n, dtype=np.int64)
    dst = src + 1
    src[-1], dst[-1] = 0, n - 1
    return _edge_arrays(n, src, dst, family="cycle", n=n)


def path_edges(n: int) -> EdgeArrays:
    """Edge-list twin of :func:`path_graph`: ``(i, i + 1)`` for each ``i < n − 1``."""
    if n < 1:
        raise ValueError("a path needs at least 1 node")
    src = np.arange(n - 1, dtype=np.int64)
    return _edge_arrays(n, src, src + 1, family="path", n=n)


def complete_edges(n: int) -> EdgeArrays:
    """Edge-list twin of :func:`complete_graph`, in row-major
    upper-triangle order (``np.triu_indices``)."""
    if n < 1:
        raise ValueError("a complete graph needs at least 1 node")
    src, dst = np.triu_indices(n, k=1)
    return _edge_arrays(n, src, dst, family="complete", n=n)


def star_edges(leaves: int) -> EdgeArrays:
    """Edge-list twin of :func:`star_graph` (``n = leaves + 1``, centre 0)."""
    if leaves < 1:
        raise ValueError("a star needs at least one leaf")
    src = np.zeros(leaves, dtype=np.int64)
    dst = np.arange(1, leaves + 1, dtype=np.int64)
    return _edge_arrays(leaves + 1, src, dst, family="star", leaves=leaves)


def grid_edges(rows: int, cols: int) -> EdgeArrays:
    """Edge-list twin of :func:`grid_graph`.

    Vertex ``(i, j)`` of the grid maps to ``i * cols + j`` — the same
    numbering :func:`relabel_to_integers` assigns (networkx inserts grid
    nodes row-major), so the edge sets coincide exactly.  The right-going
    edges come first, then the down-going ones, each block row-major.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = ids[:, :-1].ravel()
    down = ids[:-1, :].ravel()
    src = np.concatenate((right, down))
    dst = np.concatenate((right + 1, down + cols))
    return _edge_arrays(rows * cols, src, dst, family="grid", rows=rows, cols=cols)


def random_regular_edges(degree: int, n: int, seed: int = 0) -> EdgeArrays:
    """Edge-list twin of :func:`random_regular_graph` (stream-exact).

    Replays the Steger–Wormald pairing algorithm of the installed networkx
    ``random_regular_graph`` with a ``random.Random(seed)`` — the same RNG
    ``py_random_state`` would build — so a matching seed yields the same
    graph, without constructing it as a networkx object.  The pairing
    itself stays tuple-based (the price of stream exactness; see the module
    docstring); its sorted edge list becomes the arrays at the end.
    """
    if degree < 0 or n <= degree:
        raise ValueError("need 0 <= degree < n")
    if (degree * n) % 2 != 0:
        raise ValueError("degree * n must be even")
    meta = {"family": "random_regular", "degree": degree, "n": n, "seed": seed}
    if degree == 0:
        return EdgeArrays.from_pairs(n, [], meta=meta)
    rng = random.Random(seed)

    def _suitable(edges: Set[Edge], potential_edges) -> bool:
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def _try_creation() -> Optional[Set[Edge]]:
        edges: Set[Edge] = set()
        stubs = list(range(n)) * degree
        while stubs:
            potential_edges = defaultdict(lambda: 0)
            rng.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and ((s1, s2) not in edges):
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not _suitable(edges, potential_edges):
                return None
            stubs = [
                node
                for node, potential in potential_edges.items()
                for _ in range(potential)
            ]
        return edges

    edges = _try_creation()
    while edges is None:
        edges = _try_creation()
    return EdgeArrays.from_pairs(n, sorted(edges), meta=meta)


def erdos_renyi_edges(n: int, expected_degree: float, seed: int = 0) -> EdgeArrays:
    """Edge-list twin of :func:`erdos_renyi_graph` (stream-exact).

    Replays the O(n²) Gilbert loop of networkx's ``gnp_random_graph``
    (one ``random()`` draw per vertex pair), so matching seeds produce the
    same graph.  Because the pair loop is quadratic by construction, this
    stays stream-exact rather than fast at very large ``n``; the sparse
    families (cycles, regular graphs, grids) are the intended ``n ≥ 10⁵``
    workloads (and :func:`fast_gnp_edges` the intended large-``n``
    Erdős–Rényi generator).  The replay's edge list becomes the arrays at
    the end.
    """
    if n < 1:
        raise ValueError("n must be positive")
    meta = {
        "family": "erdos_renyi",
        "n": n,
        "expected_degree": expected_degree,
        "seed": seed,
    }
    p = min(1.0, max(0.0, expected_degree / (n - 1))) if n > 1 else 0.0
    if p >= 1.0:
        return complete_edges(n).with_meta(**meta)
    edges: List[Edge] = []
    if p > 0.0:
        rnd = random.Random(seed).random
        edges = [e for e in itertools.combinations(range(n), 2) if rnd() < p]
    return EdgeArrays.from_pairs(n, edges, meta=meta)


def fast_gnp_edges(
    n: int, p: float, seed: int = 0, *, as_arrays: bool = True
) -> EdgeArrays:
    """Geometric-skip Erdős–Rényi generator: ``G(n, p)`` in ``O(n + m)`` time.

    The sub-quadratic twin of :func:`erdos_renyi_edges` for the ``n ≥ 10⁵``
    regime.  Instead of flipping one coin per vertex pair (the Gilbert loop,
    quadratic by construction), it walks the ``n·(n−1)/2`` canonical pairs in
    lexicographic order and jumps straight from one present edge to the next:
    the gap between consecutive edges is geometrically distributed with
    success probability ``p``, so only ``m + O(1)`` random draws are needed
    (Batagelj–Brandes).  The gaps are drawn and prefix-summed in vectorised
    numpy blocks, which is what makes million-node ``G(n, 10/n)`` workloads
    interactive.

    **Seed schedule** (documented because it is intentionally *not*
    stream-exact with the Gilbert twin): uniforms come from
    ``numpy.random.Generator(numpy.random.PCG64(seed))`` via ``rng.random``,
    one double per generated edge plus the overshoot of the final block; each
    uniform ``u`` becomes a gap ``1 + floor(log1p(-u) / log1p(-p))``.  The
    same ``(n, p, seed)`` triple therefore always yields the same edge list,
    but no seed pairing can make it reproduce ``erdos_renyi_edges`` — the two
    generators sample the same *distribution* through different RNG streams
    (the statistical equivalence tests live in
    ``tests/graphs/test_fast_gnp.py``).

    Note the signature takes the edge probability ``p`` directly (the
    convention of the fast-generator literature); ``erdos_renyi_edges`` takes
    an expected degree.  Use ``p = expected_degree / (n - 1)`` to match.

    Returns canonical ``(u, v), u < v`` edges, ordered by pair index (larger
    endpoint first, then smaller — the skip-walk order), **as the numpy
    arrays the skip walk computed them in**: zero per-edge Python objects
    end to end.  :meth:`Network.from_edge_arrays`,
    :func:`repro.core.experiment.resolve_network` and
    ``sweep(graph_factory=...)`` canonicalise the order themselves.
    ``as_arrays`` is accepted only as ``True``; ``False`` (the
    ``(n, edges)`` pair) raises :class:`ValueError`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not as_arrays:
        raise ValueError(
            "fast_gnp_edges returns EdgeArrays only; as_arrays=False is not supported"
        )
    meta = {"family": "fast_gnp", "n": n, "p": p, "seed": seed}
    if n == 1 or p == 0.0:
        return EdgeArrays.from_pairs(n, [], meta=meta)
    if p >= 1.0:
        # Keep the fast_gnp provenance (p, seed) on the delegated K_n.
        return complete_edges(n).with_meta(**meta)

    total_pairs = n * (n - 1) // 2
    rng = np.random.Generator(np.random.PCG64(seed))
    log_q = math.log1p(-p)
    chunks: List["np.ndarray"] = []
    position = -1  # index of the last generated pair, in lexicographic order
    while position < total_pairs - 1:
        # Expected number of remaining edges plus ~4σ slack, so almost every
        # iteration finishes in one block while overshoot stays tiny.
        expect = (total_pairs - 1 - position) * p
        block = int(expect + 4.0 * math.sqrt(expect + 1.0)) + 16
        uniforms = rng.random(block)
        gaps = 1 + np.floor(np.log1p(-uniforms) / log_q).astype(np.int64)
        ends = position + np.cumsum(gaps)
        chunks.append(ends[ends <= total_pairs - 1])
        position = int(ends[-1])
    k = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)

    # Invert the pair index: pair k is (w, v) with v(v−1)/2 ≤ k < v(v+1)/2,
    # i.e. v is the larger endpoint and w = k − v(v−1)/2.  The float sqrt is
    # only a first guess; the two correction steps make the inversion exact
    # for every representable k.
    v = np.floor((1.0 + np.sqrt(1.0 + 8.0 * k.astype(np.float64))) / 2.0).astype(np.int64)
    v = np.where(v * (v - 1) // 2 > k, v - 1, v)
    v = np.where(v * (v + 1) // 2 <= k, v + 1, v)
    w = k - v * (v - 1) // 2
    return _edge_arrays(n, w, v, **meta)
