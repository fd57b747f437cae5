"""Static network topology for the LOCAL / CONGEST simulator.

A :class:`Network` is an immutable description of the communication graph:
vertices, adjacency, unique identifiers, and a canonical edge indexing.  The
dynamic per-execution state (inboxes, outputs, commit times) lives in
:mod:`repro.local.node` and :mod:`repro.local.runner`; the same
:class:`Network` can therefore be reused across many executions and
algorithms, which is what the experiment harness does.

Vertices are always the integers ``0..n-1``.  Edges are canonical pairs
``(u, v)`` with ``u < v`` in lexicographic order, and each has a dense
integer index (its slot) so that traces can be stored in arrays.

There is one storage: read-only int64 numpy arrays.  The CSR (compressed
sparse row) arrays ``indptr`` (length ``n + 1``) and ``indices`` (length
``2m``) list the neighbours of ``v`` as ``indices[indptr[v]:indptr[v + 1]]``,
each row ascending, the endpoint arrays of :meth:`Network.edge_endpoints`
list the canonical edges in slot order, and
:attr:`Network.identifier_array` holds the identifiers in vertex order, each
in ``[0, 2**63 - 1]`` (see :mod:`repro.local.ids`).  Every constructor ends
in the same vectorised build — canonicalisation, sort and duplicate removal
inside numpy, with no Python tuple per edge:

* :meth:`Network.from_edge_arrays` and :meth:`Network.from_endpoint_arrays`
  take the endpoint arrays as they come: the
  :class:`repro.graphs.edgelist.EdgeArrays` every direct generator of
  :mod:`repro.graphs.generators` returns, or two bare arrays;
* ``Network(graph)`` relabels a networkx graph's nodes to ``0..n-1`` and
  turns its edges into two endpoint arrays;
* :meth:`Network.from_edges` and :meth:`Network.from_edge_list` turn
  literal ``(u, v)`` pairs into two endpoint arrays.

The per-node views — the sorted neighbour tuples and the identifier tuple
the round simulator consumes, the tuple-of-pairs :attr:`Network.edges`, and
the packed edge-slot lookup — are derived lazily, only if a consumer asks,
and hold plain Python ints.  Degree statistics (``max_degree``,
``min_degree``) and the identifier bit length are computed once at
construction time.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.local import ids as ids_module

if TYPE_CHECKING:  # pragma: no cover - networkx is imported where it runs
    import networkx as nx

__all__ = ["Network", "canonical_edge"]


def canonical_edge(u: int, v: int) -> Tuple[int, int]:
    """Return the canonical (sorted) representation of the undirected edge ``{u, v}``."""
    if u == v:
        raise ValueError(f"self-loops are not supported in the LOCAL simulator: ({u}, {v})")
    return (u, v) if u < v else (v, u)


def _as_int64(values, name: str) -> np.ndarray:
    """Coerce an endpoint array to int64, refusing lossy (float) casts."""
    array = np.asarray(values)
    if array.dtype != np.int64:
        # Empty inputs default to float64 under asarray; nothing to lose.
        if array.size and not np.issubdtype(array.dtype, np.integer):
            raise ValueError(
                f"{name} must be an integer array, got dtype {array.dtype}"
            )
        array = array.astype(np.int64)
    return array


def _pair_columns(edges: Iterable[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``(u, v)`` pairs into two int64 endpoint arrays (floats refused)."""
    pairs = _as_int64(edges if isinstance(edges, np.ndarray) else list(edges), "edges")
    if pairs.ndim == 1 and not pairs.size:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    return pairs[:, 0], pairs[:, 1]


def _scheme_identifiers(
    n: int, id_scheme: str, rng: Optional[random.Random]
) -> np.ndarray:
    """Identifiers for vertices ``0..n-1`` under a named ID scheme, as int64.

    The permuted scheme (the benchmark convention) is built as an array
    straight from its seeded shuffle; the random and adversarial schemes go
    through their mappings and the validator.
    """
    if id_scheme == "sequential":
        return np.arange(n, dtype=np.int64)
    if id_scheme == "permuted":
        return ids_module.permuted_id_array(n, rng or random.Random(0))
    vertices = range(n)
    if id_scheme == "random":
        assignment = ids_module.random_ids(vertices, rng or random.Random(0))
    elif id_scheme == "adversarial":
        assignment = ids_module.adversarial_interval_ids(vertices)
    else:
        raise ValueError(f"unknown id scheme: {id_scheme!r}")
    return ids_module.id_array(assignment, vertices)


class Network:
    """Immutable communication graph with identifiers.

    Args:
        graph: an undirected :class:`networkx.Graph` whose nodes are hashable.
            Nodes are relabelled to ``0..n-1`` internally (in sorted order of
            the original labels when possible, insertion order otherwise).
        identifiers: optional mapping from *internal vertex index* to unique
            identifier in ``[0, 2**63 - 1]``.  When omitted, sequential
            identifiers are used.

    Attributes:
        n: number of vertices.
        m: number of edges.
    """

    def __init__(
        self,
        graph: nx.Graph,
        identifiers: Optional[Mapping[int, int]] = None,
    ) -> None:
        id_array = None
        if identifiers is not None:
            id_array = ids_module.id_array(identifiers, range(graph.number_of_nodes()))
        self._init_from_graph(graph, id_array)

    # ------------------------------------------------------------------ #
    # Core construction (CSR build)
    # ------------------------------------------------------------------ #

    def _init_from_graph(self, graph: nx.Graph, id_array: Optional[np.ndarray]) -> None:
        """Relabel a networkx graph to ``0..n-1`` and build from its edges."""
        if graph.is_directed():
            raise ValueError("Network requires an undirected graph")

        original_nodes = list(graph.nodes())
        try:
            original_nodes = sorted(original_nodes)
        except TypeError:
            pass
        n = len(original_nodes)

        pairs: Iterable[Tuple[int, int]] = graph.edges()
        if original_nodes != list(range(n)):
            index_of = {label: i for i, label in enumerate(original_nodes)}
            pairs = [(index_of[u], index_of[v]) for u, v in pairs]
        src, dst = _pair_columns(pairs)
        self._init_from_endpoint_arrays(n, src, dst, id_array)

    def _init_from_endpoint_arrays(
        self,
        n: int,
        src,
        dst,
        id_array: Optional[np.ndarray],
    ) -> None:
        """Initialise from flat endpoint arrays with a fully vectorised CSR build.

        Every constructor ends here.  ``src``/``dst`` are parallel integer
        arrays (any orientation, possibly with duplicate edges);
        canonicalisation, lexicographic sorting and duplicate removal all
        happen inside numpy.  No per-edge Python object is created: the
        sorted-tuple rows and the canonical tuple-of-pairs edge view are lazy
        derivations of the arrays (:attr:`_adjacency`, :attr:`edges`).
        ``id_array`` holds valid identifiers in vertex order (``None`` means
        sequential) and is adopted without a copy.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        self.n = n
        src = _as_int64(src, "src").ravel()
        dst = _as_int64(dst, "dst").ravel()
        if src.shape != dst.shape:
            raise ValueError(
                f"src and dst must have equal length, got {src.size} and {dst.size}"
            )
        if src.size:
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= n:
                raise ValueError("edge list refers to vertices outside 0..n-1")
            loops = src == dst
            if loops.any():
                offender = int(src[int(np.argmax(loops))])
                canonical_edge(offender, offender)  # raises the canonical error

        # Canonicalise (u < v), sort lexicographically, drop duplicates — the
        # vectorised equivalent of ``sorted(set(canonical_edges))``.  Pairs
        # are packed into single int64 keys ``u * n + v`` so both the edge
        # sort and the symmetric row sort are plain ``np.sort`` calls on one
        # flat key array (several times faster than the two-key ``lexsort``);
        # the packing needs ``n² < 2⁶³``, so astronomically large vertex
        # counts fall back to the lexsort formulation.
        us = np.minimum(src, dst)
        vs = np.maximum(src, dst)
        if n < 3_000_000_000:
            key = np.sort(us * n + vs)
            if key.size:
                keep = np.empty(key.size, dtype=bool)
                keep[0] = True
                np.not_equal(key[1:], key[:-1], out=keep[1:])
                key = key[keep]
            us = key // n
            vs = key % n
            # Doubled keys (owner * n + neighbour), sorted: rows come out in
            # vertex order with each row ascending.
            sym = np.concatenate((key, vs * n + us))
            sym.sort()
            heads = sym // n
            indices = sym % n
        else:  # pragma: no cover - needs n ≥ 3·10⁹ to exercise
            order = np.lexsort((vs, us))
            us = us[order]
            vs = vs[order]
            if us.size:
                keep = np.empty(us.size, dtype=bool)
                keep[0] = True
                np.logical_or(us[1:] != us[:-1], vs[1:] != vs[:-1], out=keep[1:])
                us = np.ascontiguousarray(us[keep])
                vs = np.ascontiguousarray(vs[keep])
            heads = np.concatenate((us, vs))
            tails = np.concatenate((vs, us))
            sym = np.lexsort((tails, heads))
            heads = heads[sym]
            indices = np.ascontiguousarray(tails[sym])
        self.m = int(us.size)
        counts = np.bincount(heads, minlength=n).astype(np.int64, copy=False)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        for frozen in (us, vs, indices, indptr):
            frozen.setflags(write=False)

        # Lazy views of the arrays, built on first use.
        self._edges_cache: Optional[Tuple[Tuple[int, int], ...]] = None
        self._packed_index: Optional[Dict[int, int]] = None
        self._rows: Optional[List[Tuple[int, ...]]] = None
        self._indptr: np.ndarray = indptr
        self._indices: np.ndarray = indices
        self._edge_us: np.ndarray = us
        self._edge_vs: np.ndarray = vs
        self._nx_export: Optional[nx.Graph] = None
        self._max_degree = int(counts.max()) if n else 0
        self._min_degree = int(counts.min()) if n else 0
        self._set_identifiers(
            np.arange(n, dtype=np.int64) if id_array is None else id_array
        )

    def _set_identifiers(self, id_array: np.ndarray) -> None:
        """Adopt valid int64 identifiers in vertex order as the storage."""
        id_array.setflags(write=False)
        self._id_array: np.ndarray = id_array
        self._ids_cache: Optional[Tuple[int, ...]] = None
        self._id_bits = int(id_array.max()).bit_length() if id_array.size else 0

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(
        cls,
        graph: nx.Graph,
        id_scheme: str = "sequential",
        rng: Optional[random.Random] = None,
    ) -> "Network":
        """Build a network from a networkx graph with a named ID scheme.

        Args:
            graph: the topology.
            id_scheme: one of ``"sequential"``, ``"random"``, ``"permuted"``,
                ``"adversarial"``.
            rng: randomness source, required for the randomized schemes.
        """
        net = cls.__new__(cls)
        net._init_from_graph(
            graph, _scheme_identifiers(graph.number_of_nodes(), id_scheme, rng)
        )
        return net

    @classmethod
    def from_edge_list(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int]],
        id_scheme: str = "sequential",
        rng: Optional[random.Random] = None,
    ) -> "Network":
        """Build a network from literal ``(u, v)`` pairs with a named ID scheme.

        The edge-list twin of :meth:`from_graph`: given the same topology and
        ``rng`` state it produces an identical network, but never touches
        networkx.  The direct generators in :mod:`repro.graphs.generators`
        return :class:`~repro.graphs.edgelist.EdgeArrays`, which
        :meth:`from_edge_arrays` takes without the per-pair conversion.
        """
        src, dst = _pair_columns(edges)
        return cls.from_endpoint_arrays(n, src, dst, id_scheme=id_scheme, rng=rng)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int]],
        identifiers: Optional[Mapping[int, int]] = None,
    ) -> "Network":
        """Build a network on vertices ``0..n-1`` from ``(u, v)`` pairs.

        The pairs become two int64 endpoint arrays and go through the
        vectorised build of :meth:`from_endpoint_arrays` — no networkx graph
        and no per-edge tuple.  Endpoint order is free and duplicate edges
        are removed; self-loops, endpoints outside ``0..n-1`` and
        non-integer endpoints raise :class:`ValueError`.  Integer endpoints
        of any type (numpy scalars, ``bool``) are stored as plain ints.
        """
        src, dst = _pair_columns(edges)
        return cls.from_endpoint_arrays(n, src, dst, identifiers)

    @classmethod
    def from_endpoint_arrays(
        cls,
        n: int,
        src,
        dst,
        identifiers: Optional[Mapping[int, int]] = None,
        *,
        id_scheme: Optional[str] = None,
        rng: Optional[random.Random] = None,
    ) -> "Network":
        """Build a network from flat endpoint arrays.

        ``src``/``dst`` are parallel integer arrays (numpy arrays, or
        anything ``np.asarray`` accepts) such that edge ``i`` is
        ``{src[i], dst[i]}``.  Endpoint order is free and duplicate edges are
        removed; self-loops, endpoints outside ``0..n-1`` and float arrays
        raise :class:`ValueError`.  This is the build every constructor ends
        in, taken without a conversion step, so it is the cheapest way to
        stand up ``m ≥ 10⁶`` workloads.  The sorted-tuple rows and the
        canonical :attr:`edges` view are derived lazily, so networks that are
        only ever consumed through the flat arrays never materialise them.

        Identifiers may be given either as an explicit mapping (as in
        :meth:`from_edges`) or via ``id_scheme``/``rng`` (as in
        :meth:`from_edge_list`); passing both is an error.  Given the same
        topology and identifiers, every constructor yields the same network
        — same arrays, rows and edge order, and therefore seed-for-seed
        identical traces.
        """
        if id_scheme is not None:
            if identifiers is not None:
                raise ValueError("pass either identifiers or id_scheme, not both")
            id_array = _scheme_identifiers(n, id_scheme, rng)
        elif identifiers is not None:
            id_array = ids_module.id_array(identifiers, range(n))
        else:
            id_array = None
        net = cls.__new__(cls)
        net._init_from_endpoint_arrays(n, src, dst, id_array)
        return net

    @classmethod
    def _from_csr_arrays(
        cls,
        n: int,
        m: int,
        indptr,
        indices,
        edge_us,
        edge_vs,
        ids,
        max_degree: int,
        min_degree: int,
    ) -> "Network":
        """Reassemble a network from externally held CSR arrays — zero copy.

        Trusted constructor for the experiment service's graph cache: the
        arrays must be exactly an existing network's :attr:`indptr` /
        :attr:`indices` / :meth:`edge_endpoints` / :attr:`identifier_array`
        views, read back from a cache payload.  No validation, sorting, or
        copying happens here — the arrays are adopted as-is, so they may be
        (read-only) views into a payload buffer that the network then keeps
        alive.
        """
        net = cls.__new__(cls)
        net.n = int(n)
        net.m = int(m)
        net._edges_cache = None
        net._packed_index = None
        net._rows = None
        net._indptr = indptr
        net._indices = indices
        net._edge_us = edge_us
        net._edge_vs = edge_vs
        net._nx_export = None
        net._max_degree = int(max_degree)
        net._min_degree = int(min_degree)
        net._set_identifiers(ids)
        return net

    @classmethod
    def from_edge_arrays(
        cls,
        edge_arrays,
        id_scheme: str = "sequential",
        rng: Optional[random.Random] = None,
    ) -> "Network":
        """Build a network from an :class:`~repro.graphs.edgelist.EdgeArrays`.

        The construction path of the direct generators' output, and the
        array form of :meth:`from_edge_list`: accepts any object exposing
        ``n``/``src``/``dst`` (duck-typed so this module needs no import from
        :mod:`repro.graphs`) and applies a named ID scheme.  Given the same
        topology and ``rng`` state it produces the same network as
        :meth:`from_edge_list`.
        """
        return cls.from_endpoint_arrays(
            edge_arrays.n,
            edge_arrays.src,
            edge_arrays.dst,
            id_scheme=id_scheme,
            rng=rng,
        )

    # ------------------------------------------------------------------ #
    # Topology accessors
    # ------------------------------------------------------------------ #

    @property
    def _adjacency(self) -> List[Tuple[int, ...]]:
        """Per-vertex sorted neighbour tuples (the simulator's representation).

        Derived from the CSR arrays, as plain ints, the first time a per-node
        consumer (the round simulator, :meth:`neighbors`) asks for them.
        """
        rows = self._rows
        if rows is None:
            flat = self._indices.tolist()
            bounds = self._indptr.tolist()
            rows = self._rows = [
                tuple(flat[bounds[v] : bounds[v + 1]]) for v in range(self.n)
            ]
        return rows

    def _vertex(self, v: int) -> int:
        """``v`` itself if it names a vertex; a negative index does not wrap."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} outside 0..{self.n - 1}")
        return v

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Neighbours of vertex ``v`` (sorted tuple of vertex indices)."""
        return self._adjacency[self._vertex(v)]

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``, read from :attr:`indptr` (no rows built)."""
        v = self._vertex(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def max_degree(self) -> int:
        """Maximum degree Δ of the network (0 for the empty graph); cached."""
        return self._max_degree

    def min_degree(self) -> int:
        """Minimum degree of the network (0 for the empty graph); cached."""
        return self._min_degree

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers: neighbours of ``v`` are ``indices[indptr[v]:indptr[v+1]]``.

        A read-only int64 numpy array of length ``n + 1``, for vectorised
        consumers that want the topology as flat arrays.
        """
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR flat neighbour array (each row sorted ascending); see :attr:`indptr`."""
        return self._indices

    def edge_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays ``(us, vs)`` of the canonical edge list.

        Two read-only int64 numpy arrays of length ``m`` such that edge slot
        ``i`` is ``(us[i], vs[i])`` with ``us[i] < vs[i]``, in lexicographic
        order — the flat form of :attr:`edges`, consumed by the numpy
        measurement and validation paths.
        """
        return self._edge_us, self._edge_vs

    @property
    def vertices(self) -> range:
        """All vertex indices."""
        return range(self.n)

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """All edges as canonical ``(u, v)`` tuples with ``u < v``, in slot order.

        Derived lazily from the endpoint arrays, as plain ints, so flat array
        consumers never pay for the per-edge tuples.
        """
        cached = self._edges_cache
        if cached is None:
            us, vs = self._edge_us, self._edge_vs
            cached = self._edges_cache = tuple(zip(us.tolist(), vs.tolist()))
        return cached

    def _packed_edge_index(self) -> Dict[int, int]:
        """Packed-key edge → dense index mapping: ``u * n + v ↦ slot``.

        Built on first use straight from the flat :meth:`edge_endpoints`
        arrays — no tuple per edge anywhere, so edge slots resolve without
        materialising the lazy :attr:`edges` view.  Keys are ``u * n + v``
        for canonical ``u < v`` (the same packing the vectorised CSR build
        sorts on).
        """
        index = self._packed_index
        if index is None:
            us, vs = self.edge_endpoints()
            if self.n < 3_000_000_000:
                keys = (us * self.n + vs).tolist()
            else:  # pragma: no cover - needs n ≥ 3·10⁹ to exercise
                # The int64 multiply would wrap exactly where the CSR build
                # falls back to lexsort; Python ints never overflow.
                n = self.n
                keys = [u * n + v for u, v in zip(us.tolist(), vs.tolist())]
            index = self._packed_index = dict(zip(keys, range(self.m)))
        return index

    def edge_index(self, u: int, v: int) -> int:
        """Dense index of the edge ``{u, v}``; raises ``KeyError`` if absent."""
        u, v = canonical_edge(u, v)
        # Out-of-range endpoints must not alias another row's packed key.
        if u < 0 or v >= self.n:
            raise KeyError((u, v))
        index = self._packed_edge_index().get(u * self.n + v)
        if index is None:
            raise KeyError((u, v))
        return index

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge of the network."""
        if u == v:
            return False
        u, v = canonical_edge(u, v)
        if u < 0 or v >= self.n:
            return False
        return u * self.n + v in self._packed_edge_index()

    def incident_edge_indices(self, v: int) -> List[int]:
        """Dense indices of the edges incident to vertex ``v``."""
        edge_index = self._packed_edge_index()
        n = self.n
        return [
            edge_index[(v * n + u) if v < u else (u * n + v)]
            for u in self._adjacency[self._vertex(v)]
        ]

    # ------------------------------------------------------------------ #
    # Identifiers
    # ------------------------------------------------------------------ #

    def identifier(self, v: int) -> int:
        """Unique identifier of vertex ``v``, as a Python int."""
        return int(self._id_array[self._vertex(v)])

    @property
    def identifier_array(self) -> np.ndarray:
        """Identifiers indexed by vertex: the read-only int64 storage."""
        return self._id_array

    @property
    def identifiers(self) -> Tuple[int, ...]:
        """Identifiers indexed by vertex, as a tuple of Python ints.

        Derived lazily from :attr:`identifier_array` and cached; the
        coroutine runner builds it, array consumers never do.
        """
        cached = self._ids_cache
        if cached is None:
            cached = self._ids_cache = tuple(self._id_array.tolist())
        return cached

    def id_bit_length(self) -> int:
        """Bits needed for the largest identifier; cached."""
        return self._id_bits

    # ------------------------------------------------------------------ #
    # Conversions & misc
    # ------------------------------------------------------------------ #

    def to_networkx(self) -> nx.Graph:
        """Export the topology (on vertices ``0..n-1``) as a networkx graph.

        Networks are immutable, so the export is built once and cached —
        repeated legacy callers stop paying O(n + m) per call.  Treat the
        returned graph as **read-only**; mutating it corrupts the shared
        cache (copy it first if you need a scratch graph).  networkx is
        imported here, on the first export, and nowhere else in this
        module, so building and running networks never loads it.
        """
        if self._nx_export is None:
            import networkx as nx

            g = nx.Graph()
            g.add_nodes_from(range(self.n))
            g.add_edges_from(self.edges)
            self._nx_export = g
        return self._nx_export

    def subnetwork(self, vertices: Sequence[int]) -> "Network":
        """Induced sub-network on ``vertices`` (re-indexed to ``0..k-1``).

        Identifiers are preserved, which keeps the sub-network a legitimate
        LOCAL-model input.  Cost is O(sum of degrees of the kept vertices),
        not O(m): only the CSR segments of the kept vertices are gathered,
        their kept neighbours re-indexed vectorised, and the result rebuilt
        by the vectorised CSR build every constructor ends in, with the kept
        vertices' identifiers gathered from :attr:`identifier_array` — no
        per-node tuple row and no per-edge tuple anywhere.
        """
        vertex_list = sorted(set(vertices))
        kept = np.asarray(vertex_list, dtype=np.int64)
        k = int(kept.size)
        if not k:
            return Network.from_endpoint_arrays(0, kept, kept, {})
        if kept[0] < 0 or kept[-1] >= self.n:
            raise IndexError("subnetwork vertices outside 0..n-1")
        indptr = self._indptr
        starts = indptr[kept]
        lengths = indptr[kept + 1] - starts
        total = int(lengths.sum())
        # Vectorised multi-arange: positions of the kept rows' CSR segments.
        positions = (
            np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            + np.arange(total, dtype=np.int64)
        )
        owners = np.repeat(kept, lengths)
        neighbors = self._indices[positions]
        new_index = np.full(self.n, -1, dtype=np.int64)
        new_index[kept] = np.arange(k, dtype=np.int64)
        # Keep each induced edge once (owner < neighbour) with both ends kept.
        keep_edge = (neighbors > owners) & (new_index[neighbors] >= 0)
        src = new_index[owners[keep_edge]]
        dst = new_index[neighbors[keep_edge]]
        net = Network.__new__(Network)
        net._init_from_endpoint_arrays(k, src, dst, self._id_array[kept])
        return net

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Network(n={self.n}, m={self.m}, max_degree={self.max_degree()})"
