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

There is one storage: read-only int64 numpy arrays, each edge held once.
The endpoint arrays of :meth:`Network.edge_endpoints` list the canonical
edges in slot order, :attr:`Network.degrees` holds the per-vertex degrees,
and :attr:`Network.identifier_array` holds the identifiers in vertex order,
each in ``[0, 2**63 - 1]`` (see :mod:`repro.local.ids`): ``8n + 16m``
bytes of edges and identifiers plus ``8n`` of degrees.  The array engine's
kernels, the validators and the measures read these arrays straight off
the network.

There is one build, :meth:`Network.from_edge_arrays`.  It takes the
:class:`~repro.graphs.edgelist.EdgeArrays` every direct generator of
:mod:`repro.graphs.generators` returns (literal ``(u, v)`` pairs become one
through :meth:`EdgeArrays.from_pairs`) and canonicalises, sorts and
deduplicates inside numpy, with no Python tuple per edge.  It refuses
``n ≥ 3·10⁹``: below that, the packed edge keys ``u·n + v`` it sorts on
stay under ``2⁶³``.  :meth:`Network.from_graph` relabels a networkx
graph's nodes to ``0..n-1`` and hands its edges to that build.
Identifiers are a scheme name or explicit values, one integer per vertex.

The per-node views — the sorted neighbour tuples and the identifier tuple
the round simulator consumes, the tuple-of-pairs :attr:`Network.edges`, and
the packed edge-slot lookup — are derived lazily from the arrays, only if
a consumer asks, and hold plain Python ints.  Degree statistics
(``max_degree``, ``min_degree``) and the identifier bit length are computed
once at construction time.
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

#: Vertex counts from here on are refused: below it every packed edge key
#: ``u·n + v`` (``u < v < n``) stays under ``n² < 2⁶³``, so it fits int64.
_MAX_VERTICES = 3_000_000_000


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

        ``edges.n`` must be below ``3·10⁹``, so that the packed edge keys
        fit int64; a larger ``n`` raises :class:`ValueError` before any
        identifier is drawn.
        """
        if not isinstance(edges, EdgeArrays):
            raise TypeError(
                f"Network.from_edge_arrays takes an EdgeArrays, not "
                f"{type(edges).__name__!r}; build one with EdgeArrays.from_pairs"
            )
        if edges.n >= _MAX_VERTICES:
            raise ValueError(
                f"n = {edges.n} is too large: a network needs n < {_MAX_VERTICES:_} "
                "so that its packed edge keys u·n + v fit int64"
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
            # One tuple per edge is the price of a networkx input: array
            # sources go to from_edge_arrays without this relabel.
            # repro-lint: allow[REP002] networkx relabel, off the array path
            pairs = [(index_of[u], index_of[v]) for u, v in pairs]
        return cls.from_edge_arrays(EdgeArrays.from_pairs(len(nodes), pairs), id_scheme, rng)

    @classmethod
    def _build(
        cls, n: int, src: np.ndarray, dst: np.ndarray, id_array: np.ndarray
    ) -> "Network":
        """The vectorised build every network goes through.

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
        # are packed into single int64 keys ``u * n + v`` (``n < 3·10⁹``
        # keeps them below 2⁶³), so the sort is one plain ``np.sort`` on a
        # flat key array, several times faster than a two-key ``lexsort``.
        key = np.minimum(src, dst)
        key *= n
        key += np.maximum(src, dst)
        key.sort()
        if key.size:
            keep = np.empty(key.size, dtype=bool)
            keep[0] = True
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            key = key[keep]
        us, vs = np.divmod(key, n)
        return cls._from_arrays(n, us, vs, id_array)

    @classmethod
    def _from_arrays(
        cls, n: int, edge_us: np.ndarray, edge_vs: np.ndarray, ids: np.ndarray
    ) -> "Network":
        """Adopt built endpoint and identifier arrays — zero copy.

        The end of :meth:`_build`, and the trusted constructor of the
        experiment service's graph cache, whose arrays must be exactly an
        existing network's :meth:`edge_endpoints` and
        :attr:`identifier_array`, read back from a cache payload.  No
        validation, sorting or copying happens here: the arrays are frozen
        and adopted as they are, so they may be read-only views into a
        payload buffer that the network then keeps alive.  The degrees are
        counted here, once, from the endpoints.
        """
        degrees = np.bincount(edge_us, minlength=n)
        degrees += np.bincount(edge_vs, minlength=n)
        degrees = degrees.astype(np.int64, copy=False)
        for frozen in (edge_us, edge_vs, degrees, ids):
            frozen.setflags(write=False)
        net = cls.__new__(cls)
        net.n = int(n)
        net.m = int(edge_us.size)
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

        Derived from the endpoint arrays, as plain ints, the first time a
        per-node consumer (the round simulator, :meth:`neighbors`) asks for
        them, and kept; nothing else holds the edges a second time.
        """
        rows = self._rows
        if rows is None:
            n = self.n
            us, vs = self._edge_us, self._edge_vs
            # Each edge keyed from both ends (owner * n + neighbour), sorted:
            # the neighbours come out row by row, each row ascending.
            flat = (np.sort(np.concatenate((us * n + vs, vs * n + us))) % n).tolist()
            bounds = [0, *np.cumsum(self._degrees).tolist()]
            rows = self._rows = [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
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
        """Per-vertex degrees: a read-only int64 array of length ``n``.

        Counted once from the endpoint arrays and kept (8 bytes per vertex),
        so that array consumers read them instead of recomputing them.
        """
        return self._degrees

    def max_degree(self) -> int:
        """Maximum degree Δ of the network (0 for the empty graph); cached."""
        return self._max_degree

    def min_degree(self) -> int:
        """Minimum degree of the network (0 for the empty graph); cached."""
        return self._min_degree

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
        for canonical ``u < v`` (the same packing the vectorised build
        sorts on).
        """
        index = self._packed_index
        if index is None:
            us, vs = self.edge_endpoints()
            keys = (us * self.n + vs).tolist()
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

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Network(n={self.n}, m={self.m}, max_degree={self.max_degree()})"
