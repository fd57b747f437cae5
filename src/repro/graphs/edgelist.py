"""The array-first edge-list interchange format (:class:`EdgeArrays`).

Every layer of the trial pipeline — generators, :class:`Network`
construction, sweeps, the :class:`~repro.core.experiment.Experiment` facade,
the experiment service — exchanges graphs as :class:`EdgeArrays`: the
endpoints live in two parallel int64 numpy arrays (``src``/``dst``), so a
million-edge workload is two 8 MB buffers instead of five million tuple
objects, and the one network build
(:meth:`repro.local.network.Network.from_edge_arrays`) can sort and
deduplicate them entirely inside numpy.

Construction invariants (checked eagerly, and the only endpoint checks a
network build relies on): ``src`` and ``dst`` are one-dimensional, equally
long, coerced to int64 (a float array is refused), frozen
(``writeable=False``) and within ``0..n-1``.  Edges are *not* required to be
canonical (``u < v``), deduplicated, or free of self-loops — the network
build canonicalises vectorised and refuses self-loops itself; producers just
hand over whatever endpoint order their algorithm emits.

The optional ``meta`` mapping records provenance — which generator family
produced the arrays, with which parameters and seed — so results can name
their workloads without re-deriving anything::

    >>> from repro.graphs.generators import fast_gnp_edges
    >>> arrays = fast_gnp_edges(1000, 0.01, seed=7)
    >>> arrays.n, arrays.m, arrays.meta["family"]
    (1000, ..., 'fast_gnp')

:meth:`EdgeArrays.from_pairs` builds the arrays from ``(u, v)`` pairs (the
stream-exact generators' replays and :meth:`Network.from_graph
<repro.local.network.Network.from_graph>` end there, and so does any literal
edge list a caller wants as a network), and :meth:`EdgeArrays.as_pairs`
lists them back as tuples, one Python object per edge, for tests and
oracles off the large-``n`` path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Tuple

import numpy as np

__all__ = ["EdgeArrays"]

Edge = Tuple[int, int]


def _frozen_i64(values: object, name: str) -> np.ndarray:
    array = np.asarray(values)
    if array.dtype != np.int64:
        # Refuse lossy casts: a float endpoint array is a caller bug, and
        # silently truncating it would build a wrong graph.  (Empty inputs
        # default to float64 under asarray; they carry no values to lose.)
        if array.size and not np.issubdtype(array.dtype, np.integer):
            raise ValueError(
                f"{name} must be an integer array, got dtype {array.dtype}"
            )
        array = array.astype(np.int64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {array.shape}")
    # Adopt the buffer only when nothing else can mutate it: either the
    # conversion produced fresh base-less memory, or the caller handed over
    # an already-frozen base-less array.  Anything aliased (views — even
    # read-only views over a writable base — or buffer-protocol wrappers)
    # is copied, so a frozen EdgeArrays can never change under its Network.
    fresh = array is not values and array.base is None
    owns_frozen = array is values and not array.flags.writeable and array.base is None
    if not (fresh or owns_frozen):
        array = array.copy()
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class EdgeArrays:
    """An edge list as flat endpoint arrays — the canonical graph interchange.

    Attributes:
        n: number of vertices (vertices are always ``0..n-1``).
        src: int64 endpoint array (read-only), one entry per edge.
        dst: int64 endpoint array (read-only), aligned with ``src``.
        meta: optional provenance (generator family, parameters, seed).

    Equality is identity (the numpy fields make field-wise ``==`` ambiguous);
    compare topologies with :func:`numpy.array_equal` on ``src``/``dst`` or
    via :meth:`as_pairs` when order-insensitive comparison is wanted.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be non-negative")
        src = _frozen_i64(self.src, "src")
        dst = _frozen_i64(self.dst, "dst")
        if src.shape != dst.shape:
            raise ValueError(
                f"src and dst must have equal length, got {src.size} and {dst.size}"
            )
        if src.size:
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= self.n:
                raise ValueError("edge list refers to vertices outside 0..n-1")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def m(self) -> int:
        """Number of edge entries (duplicates, if any, included)."""
        return int(self.src.size)

    def __len__(self) -> int:
        return self.m

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        family = self.meta.get("family") if self.meta else None
        tag = f", family={family!r}" if family else ""
        return f"EdgeArrays(n={self.n}, m={self.m}{tag})"

    # ------------------------------------------------------------------ #
    # Tuple-of-pairs conversions
    # ------------------------------------------------------------------ #

    @classmethod
    def from_pairs(
        cls,
        n: int,
        edges: Iterable[Edge],
        meta: Mapping[str, object] | None = None,
    ) -> "EdgeArrays":
        """Build the arrays from ``(u, v)`` pairs on vertices ``0..n-1``."""
        pairs = np.asarray(list(edges) if not isinstance(edges, (list, tuple)) else edges)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2).astype(np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be a sequence of (u, v) pairs")
        if pairs.dtype != np.int64:
            # Same refuse-lossy-casts rule as direct array construction.
            if not np.issubdtype(pairs.dtype, np.integer):
                raise ValueError(
                    f"edges must have integer endpoints, got dtype {pairs.dtype}"
                )
            pairs = pairs.astype(np.int64)
        return cls(n=n, src=pairs[:, 0], dst=pairs[:, 1], meta=dict(meta or {}))

    def as_pairs(self) -> List[Edge]:
        """The edges as ``(u, v)`` tuples (one Python object per edge)."""
        return list(zip(self.src.tolist(), self.dst.tolist()))

    def with_meta(self, **meta: object) -> "EdgeArrays":
        """A copy with extra provenance merged into ``meta`` (arrays shared)."""
        merged = dict(self.meta)
        merged.update(meta)
        return EdgeArrays(n=self.n, src=self.src, dst=self.dst, meta=merged)

