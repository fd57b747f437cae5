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
each row ascending; :attr:`Network.degrees` holds the row lengths, the
endpoint arrays of :meth:`Network.edge_endpoints` list the canonical edges
in slot order, and :attr:`Network.identifier_array` holds the identifiers
in vertex order, each in ``[0, 2**63 - 1]`` (see :mod:`repro.local.ids`).
The array engine's kernels read these arrays straight off the network.

There is one build, :meth:`Network.from_edge_arrays`.  It takes the
:class:`~repro.graphs.edgelist.EdgeArrays` every direct generator of
:mod:`repro.graphs.generators` returns (literal ``(u, v)`` pairs become one
through :meth:`EdgeArrays.from_pairs`) and canonicalises, sorts and
deduplicates inside numpy, with no Python tuple per edge.
:meth:`Network.from_graph` relabels a networkx graph's nodes to
``0..n-1`` and hands its edges to that build.  Identifiers are a scheme
name or explicit values, one integer per vertex.

The per-node views — the sorted neighbour tuples and the identifier tuple
the round simulator consumes, the tuple-of-pairs :attr:`Network.edges`, and
the packed edge-slot lookup — are derived lazily, only if a consumer asks,
and hold plain Python ints.  Degree statistics (``max_degree``,
``min_degree``) and the identifier bit length are computed once at
construction time.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.edgelist import EdgeArrays
from repro.local import ids as ids_module

if TYPE_CHECKING:  # pragma: no cover - networkx is imported where it runs
    import networkx as nx

__all__ = ["Network", "canonical_edge"]


def canonical_edge(u: int, v: int) -> Tuple[int, int]:
    """Return the canonical (sorted) representation of the undirected edge ``{u, v}``."""
    if u == v:
        raise ValueError(f"self-loops are not supported in the LOCAL simulator: ({u}, {v})")
    return (u, v) if u < v else (v, u)


class Network:
    """Immutable communication graph with identifiers.

    Build one with :meth:`from_edge_arrays` or :meth:`from_graph`; calling
    the class itself is refused.

    Attributes:
        n: number of vertices.
        m: number of edges.
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        raise TypeError(
            "build a Network with Network.from_edge_arrays(edges) or "
            "Network.from_graph(graph)"
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edge_arrays(
        cls,
        edges: EdgeArrays,
        id_scheme: str = "sequential",
        rng: Optional[random.Random] = None,
        *,
        identifiers: Optional[Sequence[int]] = None,
    ) -> "Network":
        """Build a network from an :class:`~repro.graphs.edgelist.EdgeArrays`.

        The one build: ``edges`` has passed its own checks (int64,
        equally long, within ``0..n-1``), so only self-loops are refused
        here, with :class:`ValueError`.  Endpoint order is free and
        duplicate edges are removed.  Anything but an ``EdgeArrays``
        raises :class:`TypeError`; literal pairs go through
        :meth:`EdgeArrays.from_pairs` first.

        Identifiers come from the named ``id_scheme`` (``"sequential"``,
        ``"random"``, ``"permuted"`` or ``"adversarial"``; ``rng`` drives
        the randomized ones) or, instead, as explicit ``identifiers``: one
        integer per vertex, in vertex order, distinct and within
        ``[0, 2**63 - 1]`` (:func:`repro.local.ids.checked_ids`).  Giving
        ``identifiers`` with another scheme or an ``rng`` is an error.
        """
        if not isinstance(edges, EdgeArrays):
            raise TypeError(
                f"Network.from_edge_arrays takes an EdgeArrays, not "
                f"{type(edges).__name__!r}; build one with EdgeArrays.from_pairs"
            )
        if identifiers is None:
            id_array = ids_module.scheme_ids(edges.n, id_scheme, rng)
        elif id_scheme != "sequential" or rng is not None:
            raise ValueError("pass either identifiers or id_scheme, not both")
        else:
            id_array = ids_module.checked_ids(identifiers, edges.n)
        return cls._build(edges.n, edges.src, edges.dst, id_array)

    @classmethod
    def from_graph(
        cls,
        graph: nx.Graph,
        id_scheme: str = "sequential",
        rng: Optional[random.Random] = None,
    ) -> "Network":
        """Build a network from a networkx graph with a named ID scheme.

        Nodes are relabelled to ``0..n-1`` (in sorted order of the original
        labels when they sort, insertion order otherwise) and the edges go
        to :meth:`from_edge_arrays`, so a graph and its edge arrays give the
        same network for the same ``rng`` state.
        """
        if graph.is_directed():
            raise ValueError("Network requires an undirected graph")
        nodes = list(graph.nodes())
        try:
            nodes = sorted(nodes)
        except TypeError:
            pass
        pairs = graph.edges()
        if nodes != list(range(len(nodes))):
            index_of = {label: i for i, label in enumerate(nodes)}
            pairs = [(index_of[u], index_of[v]) for u, v in pairs]
        return cls.from_edge_arrays(EdgeArrays.from_pairs(len(nodes), pairs), id_scheme, rng)

    @classmethod
    def _build(
        cls, n: int, src: np.ndarray, dst: np.ndarray, id_array: np.ndarray
    ) -> "Network":
        """The vectorised CSR build every network goes through.

        ``src``/``dst`` are parallel int64 arrays within ``0..n-1`` (any
        orientation, possibly with duplicate edges); canonicalisation,
        lexicographic sorting and duplicate removal all happen inside
        numpy.  No per-edge Python object is created: the sorted-tuple rows
        and the canonical tuple-of-pairs edge view are lazy derivations of
        the arrays (:attr:`_adjacency`, :attr:`edges`).  ``id_array`` holds
        valid identifiers in vertex order and is adopted without a copy.
        """
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
        degrees = np.bincount(heads, minlength=n).astype(np.int64, copy=False)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return cls._from_csr_arrays(n, indptr, indices, us, vs, id_array, degrees)

    @classmethod
    def _from_csr_arrays(
        cls,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_us: np.ndarray,
        edge_vs: np.ndarray,
        ids: np.ndarray,
        degrees: Optional[np.ndarray] = None,
    ) -> "Network":
        """Adopt built CSR, endpoint and identifier arrays — zero copy.

        The end of :meth:`_build`, and the trusted constructor of the
        experiment service's graph cache, whose arrays must be exactly an
        existing network's :attr:`indptr` / :attr:`indices` /
        :meth:`edge_endpoints` / :attr:`identifier_array`, read back from a
        cache payload.  No validation, sorting or copying happens here:
        the arrays are frozen and adopted as they are, so they may be
        read-only views into a payload buffer that the network then keeps
        alive.  The build hands over the degree counts it computed; a cache
        hit has none, so they are computed here once from ``indptr``.
        """
        if degrees is None:
            degrees = np.diff(indptr)
        for frozen in (indptr, indices, edge_us, edge_vs, degrees, ids):
            frozen.setflags(write=False)
        net = cls.__new__(cls)
        net.n = int(n)
        net.m = int(edge_us.size)
        net._indptr = indptr
        net._indices = indices
        net._edge_us = edge_us
        net._edge_vs = edge_vs
        net._degrees = degrees
        net._max_degree = int(degrees.max()) if n else 0
        net._min_degree = int(degrees.min()) if n else 0
        net._id_array = ids
        net._id_bits = int(ids.max()).bit_length() if ids.size else 0
        # Lazy views of the arrays, built on first use.
        net._rows = None
        net._edges_cache = None
        net._packed_index = None
        net._ids_cache = None
        net._nx_export = None
        return net

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
        """Degree of vertex ``v``, read from :attr:`degrees` (no rows built)."""
        return int(self._degrees[self._vertex(v)])

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degrees: a read-only int64 array equal to ``np.diff(indptr)``.

        The counts the CSR build computes anyway, kept (8 bytes per vertex)
        so that array consumers read them instead of recomputing them.
        """
        return self._degrees

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
        by the vectorised CSR build every network goes through, with the kept
        vertices' identifiers gathered from :attr:`identifier_array` — no
        per-node tuple row and no per-edge tuple anywhere.
        """
        vertex_list = sorted(set(vertices))
        kept = np.asarray(vertex_list, dtype=np.int64)
        k = int(kept.size)
        if k and (kept[0] < 0 or kept[-1] >= self.n):
            raise IndexError("subnetwork vertices outside 0..n-1")
        indptr = self._indptr
        starts = indptr[kept]
        lengths = self._degrees[kept]
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
        return Network._build(k, src, dst, self._id_array[kept])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Network(n={self.n}, m={self.m}, max_degree={self.max_degree()})"
