"""Graph problem specifications and validity checkers.

A :class:`ProblemSpec` declares which entities of the graph carry outputs
(nodes, edges, or both) and how to check an output assignment for validity.
The declaration of *which* entities carry outputs matters beyond validation:
the paper's Definition 1 ties the completion time of a node to the commitment
of its own output **and** of the outputs of its incident edges (and
symmetrically for edges), so the averaged-complexity computation in
:mod:`repro.core.trace` consults the problem spec.

The concrete problems of the paper are provided as module-level constants /
factories:

* :data:`MIS` — maximal independent set (node outputs ``True``/``False``).
* :func:`ruling_set` — ``(α, β)``-ruling sets (node outputs).
* :data:`MAXIMAL_MATCHING` — maximal matching (edge outputs ``True``/``False``).
* :func:`coloring` — proper vertex colouring with a bound on the palette.
* :data:`SINKLESS_ORIENTATION` — sinkless orientation (edge outputs give the
  head of the edge; no node may have out-degree 0), for graphs of minimum
  degree ≥ 3 as in Theorem 6.

Two validators per problem.  Every problem carries

* a networkx reference ``validator`` (:func:`is_maximal_independent_set` and
  friends) — the executable specification, run by :meth:`ProblemSpec.validate`
  on a :class:`networkx.Graph` and used by the tests as the differential
  oracle;
* a numpy ``kernel`` over flat per-slot arrays — the path every
  :class:`repro.local.network.Network` validation takes.  Values and
  committed masks are vertex-indexed for nodes and follow
  :attr:`Network.edges` slot order for edges; an ``alive`` mask says which
  vertices the problem is posed for.

Three entry points turn their inputs into those arrays and call the kernel.
They differ only in the alive mask and in which commitments count:

========================  ==========  ===========================  ==========================
entry point               alive mask  commitments that count       outputs required of
========================  ==========  ===========================  ==========================
``validate_network``      all         all                          every node / edge
``validate_surviving``    ¬crashed    all, a crashed node's too    survivors / survivor edges
``validate_induced``      ¬crashed    none touching a dead vertex  survivors / survivor edges
========================  ==========  ===========================  ==========================

"Survivor edges" are the edges with both endpoints alive.  One difference
is not a commitment mask: sinkless orientation exempts nodes of degree
< 3, and the degree is the original one for surviving validation (a crash
does not re-pose the problem) but the induced one for induced validation.

*Surviving* validation scores an execution under crash-stop faults: what a
node committed before dying stands where crash-stop semantics say it must
(a crashed ``True`` neighbour covers an MIS survivor, a crashed ruler still
dominates, a match towards a corpse still matches the survivor, an edge
oriented towards a corpse still leaves its tail).  *Induced* validation is
plain validity on the induced survivor subgraph — the self-stabilisation
recovery metrics use it, so recovery is never credited to the dead.

Inputs come in three forms, converted in one place (the entry points):
mappings (vertex → value, canonical edge ``(u, v), u < v`` → value), per-slot
sequences with :data:`MISSING` marking absent outputs, or value arrays with
explicit ``node_committed`` / ``edge_committed`` masks (the engine's form,
passed through without copies).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - the reference validators' graph type only
    import networkx as nx

__all__ = [
    "MISSING",
    "ValidationResult",
    "ProblemSpec",
    "MIS",
    "MAXIMAL_MATCHING",
    "SINKLESS_ORIENTATION",
    "ruling_set",
    "coloring",
    "is_independent_set",
    "is_maximal_independent_set",
    "is_ruling_set",
    "is_matching",
    "is_maximal_matching",
    "is_proper_coloring",
    "is_sinkless_orientation",
]

Edge = Tuple[int, int]
Outputs = Optional[Union[Mapping[Any, Any], Sequence[Any], np.ndarray]]


class _Missing:
    """Sentinel type for absent per-slot outputs (single instance, falsy repr)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<MISSING>"


#: Sentinel marking an absent output in a per-slot value sequence.  Distinct
#: from ``None`` so that an algorithm legitimately committing ``None`` is not
#: mistaken for "never committed".
MISSING = _Missing()


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validating an output assignment."""

    valid: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class ProblemSpec:
    """Specification of a distributed graph problem.

    Attributes:
        name: human-readable problem name.
        labels_nodes: whether the problem assigns an output to every node.
        labels_edges: whether the problem assigns an output to every edge.
        validator: networkx reference validator
            ``(graph, node_outputs, edge_outputs) -> ValidationResult``
            checking a complete assignment.  ``graph`` is a networkx graph
            (vertex labels as in the network); ``node_outputs`` maps vertex →
            output; ``edge_outputs`` maps canonical edge ``(u, v), u < v`` →
            output.
        params: free-form parameters of the problem instance (e.g. α, β for
            ruling sets, the palette size for colouring).
        kernel: numpy validator ``(network, node_values, node_committed,
            edge_values, edge_committed, alive, *, induced) ->
            ValidationResult`` over flat per-slot arrays (values of
            uncommitted slots are ignored).  The entry points have already
            checked that every alive node (node problems) and every
            alive–alive edge (edge problems) committed.  The kernel enforces
            the constraints for the alive vertices, crediting committed
            outputs of dead ones where crash-stop semantics allow (the
            module table); ``induced`` says the commitments touching dead
            vertices were discarded and the problem is posed on the induced
            survivor subgraph, which only the sinkless-orientation kernel
            reads (its minimum-degree exemption then uses the induced
            degree).  When ``None``, every entry point runs ``validator`` on
            the network's networkx export — on the induced survivor subgraph
            when some vertex is dead.
    """

    name: str
    labels_nodes: bool
    labels_edges: bool
    validator: Callable[[nx.Graph, Mapping[int, Any], Mapping[Edge, Any]], ValidationResult]
    params: Mapping[str, Any] = field(default_factory=dict)
    kernel: Optional[Callable[..., ValidationResult]] = None

    def validate(
        self,
        graph: "Union[nx.Graph, Any]",
        node_outputs: Optional[Mapping[int, Any]] = None,
        edge_outputs: Optional[Mapping[Edge, Any]] = None,
    ) -> ValidationResult:
        """Check a complete output assignment against this problem.

        ``graph`` may be a :class:`networkx.Graph` (the seed signature: runs
        the reference validator) or a :class:`repro.local.network.Network`,
        which dispatches to :meth:`validate_network`.  The dispatch looks
        networkx up in ``sys.modules`` instead of importing it: a graph can
        only be a networkx graph once networkx is loaded, so validating a
        :class:`Network` never loads networkx.
        """
        networkx = sys.modules.get("networkx")
        if networkx is None or not isinstance(graph, networkx.Graph):
            return self.validate_network(graph, node_outputs, edge_outputs)
        # An explicit MISSING value in a mapping is equivalent to the key
        # being absent (the sentinel means "never committed"); stripping the
        # entries keeps this reference path in verdict agreement with the
        # kernels, where the two cases are indistinguishable by construction.
        node_outputs = {
            v: value for v, value in (node_outputs or {}).items() if value is not MISSING
        }
        edge_outputs = {
            e: value for e, value in (edge_outputs or {}).items() if value is not MISSING
        }
        if self.labels_nodes:
            missing = [v for v in graph.nodes() if v not in node_outputs]
            if missing:
                return ValidationResult(False, f"missing node outputs for {missing[:5]}")
        if self.labels_edges:
            missing_edges = [
                e
                # repro-lint: allow[REP002] networkx reference path (the oracle)
                for e in (_canon(u, v) for u, v in graph.edges())
                if e not in edge_outputs
            ]
            if missing_edges:
                return ValidationResult(False, f"missing edge outputs for {missing_edges[:5]}")
        return self.validator(graph, node_outputs, edge_outputs)

    def validate_network(
        self,
        network: Any,
        node_outputs: Outputs = None,
        edge_outputs: Outputs = None,
        *,
        node_committed: Optional[Any] = None,
        edge_committed: Optional[Any] = None,
    ) -> ValidationResult:
        """Strict validation against a :class:`Network`: every vertex is alive.

        ``node_outputs`` is a vertex → value mapping, a length-``n`` slot
        sequence (:data:`MISSING` marks absent outputs) or a value array
        accompanied by a ``node_committed`` bool mask; ``edge_outputs``
        likewise with canonical-edge keys, length ``m`` in
        :attr:`Network.edges` order, and ``edge_committed``.  A mapping entry
        for a pair that is not an edge is scored by the reference validator,
        exactly as the networkx path would score it.
        """
        return self._score(
            network, node_outputs, edge_outputs, node_committed, edge_committed, None
        )

    def validate_surviving(
        self,
        network: Any,
        node_outputs: Outputs = None,
        edge_outputs: Outputs = None,
        crashed: Sequence[int] = (),
        *,
        node_committed: Optional[Any] = None,
        edge_committed: Optional[Any] = None,
    ) -> ValidationResult:
        """Score outputs on the surviving subgraph after crash-stop faults.

        Outputs are only required of survivors (node problems) and
        survivor–survivor edges (edge problems): a crashed node that never
        committed — or an edge whose endpoint died before the edge was
        decided — is excused, not a failure.  Whatever a crashed node *did*
        commit before dying stands where crash-stop semantics say it must
        (the module table).  With nobody dead this is
        :meth:`validate_network`.
        """
        return self._score(
            network,
            node_outputs,
            edge_outputs,
            node_committed,
            edge_committed,
            _alive_mask(network.n, crashed, None),
        )

    def validate_induced(
        self,
        network: Any,
        node_outputs: Outputs = None,
        edge_outputs: Outputs = None,
        crashed: Sequence[int] = (),
        *,
        node_committed: Optional[Any] = None,
        edge_committed: Optional[Any] = None,
        alive: Optional[Any] = None,
    ) -> ValidationResult:
        """Strictly validate outputs on the induced survivor subgraph.

        Like :meth:`validate_surviving`, but every commitment touching a dead
        vertex is discarded first, so the survivors' outputs must stand on
        their own.  Self-stabilisation metrics use this form — a recovered
        configuration must be valid *for the survivors alone*, or "recovery"
        would be vacuously credited to pre-crash commitments.  The engines
        pass their state arrays with commit masks and, instead of
        ``crashed``, the round's ``alive`` bool mask, so a per-round recovery
        check is a handful of array operations.
        """
        return self._score(
            network,
            node_outputs,
            edge_outputs,
            node_committed,
            edge_committed,
            _alive_mask(network.n, crashed, alive),
            induced=True,
        )

    def _score(
        self,
        network: Any,
        node_outputs: Outputs,
        edge_outputs: Outputs,
        node_committed: Optional[Any],
        edge_committed: Optional[Any],
        alive: Optional[np.ndarray],
        *,
        induced: bool = False,
    ) -> ValidationResult:
        """Normalise the inputs, check completeness, then run the kernel.

        ``alive`` is ``None`` for strict validation (every vertex alive).
        """
        node_values, node_committed, _ = _slots(network, node_outputs, node_committed, True)
        edge_values, edge_committed, strays = _slots(
            network, edge_outputs, edge_committed, False
        )
        us, vs = network.edge_endpoints()
        if alive is not None:
            # Pairs that are not edges are only scored strictly.
            strays = []
            if induced:
                node_committed = node_committed & alive
                if edge_committed.any():
                    edge_committed = edge_committed & alive[us] & alive[vs]
        failure = self._missing(us, vs, alive, node_committed, edge_committed)
        if failure is not None:
            return failure
        if self.kernel is None or strays:
            return self._reference(
                network, node_values, node_committed, edge_values, edge_committed, alive, strays
            )
        return self.kernel(
            network,
            node_values,
            node_committed,
            edge_values,
            edge_committed,
            np.ones(network.n, dtype=bool) if alive is None else alive,
            induced=induced,
        )

    def _missing(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        alive: Optional[np.ndarray],
        node_committed: np.ndarray,
        edge_committed: np.ndarray,
    ) -> Optional[ValidationResult]:
        """The failure for an output some alive node / edge never committed."""
        if self.labels_nodes:
            missing = ~node_committed if alive is None else alive & ~node_committed
            if missing.any():
                bad = np.flatnonzero(missing)[:5].tolist()
                whom = "" if alive is None else "survivors "
                return ValidationResult(False, f"missing node outputs for {whom}{bad}")
        if self.labels_edges:
            missing = ~edge_committed
            if alive is not None:
                missing &= alive[us] & alive[vs]
            if missing.any():
                slots = np.flatnonzero(missing)[:5]
                bad = list(zip(us[slots].tolist(), vs[slots].tolist()))
                whom = "" if alive is None else "surviving edges "
                return ValidationResult(False, f"missing edge outputs for {whom}{bad}")
        return None

    def _reference(
        self,
        network: Any,
        node_values: np.ndarray,
        node_committed: np.ndarray,
        edge_values: np.ndarray,
        edge_committed: np.ndarray,
        alive: Optional[np.ndarray],
        strays: List[Tuple[Any, Any]],
    ) -> ValidationResult:
        """Run the networkx ``validator`` (on the induced survivor subgraph).

        The subgraph keeps the network's vertex labels, so outputs that name
        vertices (orientation heads) stay meaningful; commitments touching
        a dead vertex are dropped.
        """
        # repro-lint: allow[REP002] networkx reference path (the oracle)
        graph = network.to_networkx()
        us, vs = network.edge_endpoints()
        if alive is not None:
            graph = graph.subgraph(np.flatnonzero(alive).tolist())
            node_committed = node_committed & alive
            edge_committed = edge_committed & alive[us] & alive[vs]
        nodes = np.flatnonzero(node_committed)
        node_map = dict(zip(nodes.tolist(), node_values[nodes].tolist()))
        slots = np.flatnonzero(edge_committed)
        edge_map: Dict[Any, Any] = dict(
            zip(zip(us[slots].tolist(), vs[slots].tolist()), edge_values[slots].tolist())
        )
        edge_map.update(strays)
        return self.validator(graph, node_map, edge_map)


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------- #
# Input normalisation (the one place mapping / MISSING inputs are converted)
# ---------------------------------------------------------------------- #


def _alive_mask(n: int, crashed: Sequence[int], alive: Optional[Any]) -> Optional[np.ndarray]:
    """Bool mask of the living, or ``None`` when nobody is dead (strict)."""
    if alive is not None:
        if len(crashed):
            raise ValueError("pass either crashed vertices or an alive mask, not both")
        mask = np.asarray(alive, dtype=bool)
        if mask.shape != (n,):
            raise ValueError(f"expected an alive mask of length {n}, got shape {mask.shape}")
    else:
        dead = [v for v in crashed if 0 <= v < n]
        if not dead:
            return None
        mask = np.ones(n, dtype=bool)
        mask[dead] = False
    return None if mask.all() else mask


def _edge_mapping_slots(
    network: Any, mapping: Mapping[Any, Any]
) -> Tuple[List[int], List[Any], List[Tuple[Any, Any]]]:
    """Edge slots of a canonical-edge → value mapping, plus its stray entries.

    Returns ``(slots, values, strays)``: the :attr:`Network.edges` slot and
    value of every entry keyed by a canonical ``(u, v), u < v`` edge of the
    network, and the ``(key, value)`` entries whose key is not one.  Entries
    whose value is :data:`MISSING` are "never committed" and skipped.  Walks
    the mapping, never the edge list.
    """
    index = network._packed_edge_index()
    n = network.n
    slots: List[int] = []
    values: List[Any] = []
    strays: List[Tuple[Any, Any]] = []
    for key, value in mapping.items():
        if value is MISSING:
            continue
        u, v = key
        slot = index.get(u * n + v) if 0 <= u < v < n else None
        if slot is None:
            strays.append((key, value))
        else:
            slots.append(slot)
            values.append(value)
    return slots, values, strays


def _slots(
    network: Any, outputs: Outputs, committed: Optional[Any], nodes: bool
) -> Tuple[np.ndarray, np.ndarray, List[Tuple[Any, Any]]]:
    """``(values, committed, strays)`` arrays for one side of an assignment."""
    count = network.n if nodes else network.m
    kind = "node" if nodes else "edge"
    strays: List[Tuple[Any, Any]] = []
    if committed is not None:
        mask = np.asarray(committed, dtype=bool)
        if mask.shape != (count,):
            raise ValueError(f"expected {count} {kind} commit flags, got shape {mask.shape}")
        if outputs is None:
            return np.zeros(count, dtype=bool), mask, strays
        return _value_array(outputs, count, kind), mask, strays
    if outputs is None:
        return np.zeros(count, dtype=bool), np.zeros(count, dtype=bool), strays
    if isinstance(outputs, Mapping):
        if nodes:
            # Keys outside 0..n-1 are ignored, as the reference path (which
            # only ever consults real vertices) ignores them.
            get = outputs.get
            values: Sequence[Any] = [get(v, MISSING) for v in range(count)]
        else:
            slots, found, strays = _edge_mapping_slots(network, outputs)
            values = [MISSING] * count
            for slot, value in zip(slots, found):
                values[slot] = value
    else:
        values = outputs
        if len(values) != count:
            raise ValueError(f"expected {count} {kind} output slots, got {len(values)}")
    mask = np.fromiter((value is not MISSING for value in values), dtype=bool, count=count)
    return _value_array(values, count, kind), mask, strays


def _value_array(values: Any, count: int, kind: str) -> np.ndarray:
    """A length-``count`` array of output values.

    Boolean and integer outputs become typed arrays; anything else (floats,
    strings, tuples, ``None``, :data:`MISSING`) an object array of the
    original Python values, so comparisons keep Python semantics.
    """
    if isinstance(values, np.ndarray):
        array = values
    else:
        try:
            array = np.asarray(values)
        except (ValueError, TypeError, OverflowError):
            array = None
        if array is None or array.shape != (count,) or array.dtype.kind not in "biuO":
            array = np.fromiter(values, dtype=object, count=count)
    if array.shape != (count,):
        raise ValueError(f"expected {count} {kind} output slots, got shape {array.shape}")
    return array


def _live(alive: np.ndarray, us: np.ndarray, vs: np.ndarray) -> Optional[np.ndarray]:
    """Alive–alive edge mask, or ``None`` when every vertex is alive."""
    return None if alive.all() else alive[us] & alive[vs]


def _surviving(alive: np.ndarray) -> str:
    """Reason prefix: ``"surviving "`` once some vertex is dead."""
    return "" if alive.all() else "surviving "


def _first(mask: np.ndarray) -> int:
    return int(np.argmax(mask))


# ---------------------------------------------------------------------- #
# Independent sets, MIS and ruling sets
# ---------------------------------------------------------------------- #


def is_independent_set(graph: nx.Graph, selected: Mapping[int, Any]) -> bool:
    """Whether the nodes with truthy output form an independent set."""
    # repro-lint: allow[REP002] networkx reference validator (the oracle)
    return all(not (selected.get(u) and selected.get(v)) for u, v in graph.edges())


def is_maximal_independent_set(graph: nx.Graph, selected: Mapping[int, Any]) -> ValidationResult:
    """Check that the truthy nodes form a *maximal* independent set."""
    if not is_independent_set(graph, selected):
        return ValidationResult(False, "selected set is not independent")
    for v in graph.nodes():
        if selected.get(v):
            continue
        if not any(selected.get(u) for u in graph.neighbors(v)):
            return ValidationResult(False, f"node {v} is uncovered (not maximal)")
    return ValidationResult(True)


def is_ruling_set(
    graph: nx.Graph, selected: Mapping[int, Any], alpha: int, beta: int
) -> ValidationResult:
    """Check an ``(α, β)``-ruling set.

    Any two selected nodes must be at distance ≥ α and every unselected node
    must have a selected node within distance ≤ β.
    """
    members = [v for v in graph.nodes() if selected.get(v)]
    member_set = set(members)
    if not members and graph.number_of_nodes() > 0:
        return ValidationResult(False, "ruling set is empty")
    # Domination: BFS from all members simultaneously up to depth beta.
    dist: Dict[int, int] = {v: 0 for v in members}
    frontier = list(members)
    depth = 0
    while frontier and depth < beta:
        depth += 1
        new_frontier = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u not in dist:
                    dist[u] = depth
                    new_frontier.append(u)
        frontier = new_frontier
    uncovered = [v for v in graph.nodes() if v not in dist]
    if uncovered:
        return ValidationResult(
            False, f"{len(uncovered)} nodes (e.g. {uncovered[:5]}) have no ruler within distance {beta}"
        )
    # Independence at distance alpha: BFS from each member up to depth alpha-1.
    for s in members:
        seen = {s: 0}
        frontier = [s]
        for d in range(1, alpha):
            nxt = []
            for v in frontier:
                for u in graph.neighbors(v):
                    if u not in seen:
                        seen[u] = d
                        nxt.append(u)
                        if u in member_set and u != s:
                            return ValidationResult(
                                False,
                                f"rulers {s} and {u} are at distance {d} < {alpha}",
                            )
            frontier = nxt
    return ValidationResult(True)


def _mis_kernel(
    network: Any,
    node_values: np.ndarray,
    node_committed: np.ndarray,
    edge_values: np.ndarray,
    edge_committed: np.ndarray,
    alive: np.ndarray,
    *,
    induced: bool = False,
) -> ValidationResult:
    """Maximal independent set.

    Independence is required on alive–alive edges; an unselected alive node
    is covered by any neighbour that committed ``True`` — a crashed one
    included, which is exact under crash-stop: the neighbour that made a
    node retire had committed ``True`` before announcing it.
    """
    us, vs = network.edge_endpoints()
    selected = node_committed & node_values.astype(bool, copy=False)
    selected_u = selected[us]
    selected_v = selected[vs]
    conflict = selected_u & selected_v
    live = _live(alive, us, vs)
    if live is not None:
        conflict &= live
    if conflict.any():
        i = _first(conflict)
        return ValidationResult(
            False,
            f"{_surviving(alive)}edge ({us[i]}, {vs[i]}) has both endpoints selected "
            f"(not independent)",
        )
    covered = selected.copy()
    covered[us[selected_v]] = True
    covered[vs[selected_u]] = True
    uncovered = alive & ~covered
    if uncovered.any():
        return ValidationResult(
            False, f"{_surviving(alive)}node {_first(uncovered)} is uncovered (not maximal)"
        )
    return ValidationResult(True)


def _mis_validator(
    graph: nx.Graph, node_outputs: Mapping[int, Any], _: Mapping[Edge, Any]
) -> ValidationResult:
    return is_maximal_independent_set(graph, node_outputs)


MIS = ProblemSpec(
    name="maximal-independent-set",
    labels_nodes=True,
    labels_edges=False,
    validator=_mis_validator,
    kernel=_mis_kernel,
)


def _ruling_set_kernel(alpha: int, beta: int) -> Callable[..., ValidationResult]:
    def kernel(
        network: Any,
        node_values: np.ndarray,
        node_committed: np.ndarray,
        edge_values: np.ndarray,
        edge_committed: np.ndarray,
        alive: np.ndarray,
        *,
        induced: bool = False,
    ) -> ValidationResult:
        """``(α, β)``-ruling set by frontier-mask BFS over the edge arrays.

        Domination: every alive node needs a ruler within distance ≤ β; the
        ruler may be crashed (its commitment stands) but every relay on the
        path must be alive.  Independence: alive rulers must be ≥ α apart,
        measured through alive vertices only.
        """
        if not alive.any():
            return ValidationResult(True)
        rulers = node_committed & node_values.astype(bool, copy=False)
        if not rulers.any():
            return ValidationResult(False, "ruling set is empty")
        n = network.n
        us, vs = network.edge_endpoints()
        covered = rulers.copy()
        frontier = rulers
        for _ in range(beta):
            reached = np.zeros(n, dtype=bool)
            reached[vs[frontier[us]]] = True
            reached[us[frontier[vs]]] = True
            fresh = reached & ~covered
            covered |= fresh
            frontier = fresh & alive
            if not frontier.any():
                break
        uncovered = np.flatnonzero(alive & ~covered)
        if uncovered.size:
            return ValidationResult(
                False,
                f"{uncovered.size} {_surviving(alive)}nodes (e.g. {uncovered[:5].tolist()}) "
                f"have no ruler within distance {beta}",
            )
        if alpha < 2:
            return ValidationResult(True)
        # Multi-source BFS from the alive rulers, labelling each vertex with
        # its nearest ruler.  The closest pair of distinct rulers is at the
        # minimum, over alive edges joining differently labelled vertices,
        # of dist + dist + 1; that pair is < α apart iff such an edge exists
        # among vertices labelled within depth α - 2.
        live = alive[us] & alive[vs]
        lu, lv = us[live], vs[live]
        label = np.where(rulers & alive, np.arange(n), -1)
        dist = np.zeros(n, dtype=np.int64)
        frontier = label >= 0
        for depth in range(1, alpha - 1):
            forward = frontier[lu] & (label[lv] < 0)
            backward = frontier[lv] & (label[lu] < 0)
            targets = np.concatenate((lv[forward], lu[backward]))
            if not targets.size:
                break
            label[targets] = label[np.concatenate((lu[forward], lv[backward]))]
            dist[targets] = depth
            frontier = np.zeros(n, dtype=bool)
            frontier[targets] = True
        joins = (label[lu] >= 0) & (label[lv] >= 0) & (label[lu] != label[lv])
        if joins.any():
            gaps = np.where(joins, dist[lu] + dist[lv] + 1, alpha)
            i = int(np.argmin(gaps))
            if gaps[i] < alpha:
                s, t = sorted((int(label[lu[i]]), int(label[lv[i]])))
                return ValidationResult(
                    False,
                    f"{_surviving(alive)}rulers {s} and {t} are at distance {gaps[i]} < {alpha}",
                )
        return ValidationResult(True)

    return kernel


def ruling_set(alpha: int, beta: int) -> ProblemSpec:
    """Problem spec for ``(α, β)``-ruling sets (node outputs are membership flags)."""
    if alpha < 1 or beta < 1:
        raise ValueError("ruling set parameters must be positive")
    return ProblemSpec(
        name=f"({alpha},{beta})-ruling-set",
        labels_nodes=True,
        labels_edges=False,
        validator=lambda graph, node_outputs, _: is_ruling_set(graph, node_outputs, alpha, beta),
        params={"alpha": alpha, "beta": beta},
        kernel=_ruling_set_kernel(alpha, beta),
    )


# ---------------------------------------------------------------------- #
# Matchings
# ---------------------------------------------------------------------- #


def is_matching(graph: nx.Graph, edge_outputs: Mapping[Edge, Any]) -> bool:
    """Whether the truthy edges form a matching (no shared endpoint)."""
    matched_nodes = set()
    for (u, v), value in edge_outputs.items():
        if not value:
            continue
        if u in matched_nodes or v in matched_nodes:
            return False
        matched_nodes.add(u)
        matched_nodes.add(v)
    return True


def is_maximal_matching(graph: nx.Graph, edge_outputs: Mapping[Edge, Any]) -> ValidationResult:
    """Check that the truthy edges form a *maximal* matching of ``graph``."""
    for (u, v), value in edge_outputs.items():
        if value and not graph.has_edge(u, v):
            return ValidationResult(False, f"matched edge ({u}, {v}) is not in the graph")
    if not is_matching(graph, edge_outputs):
        return ValidationResult(False, "selected edges are not a matching")
    matched_nodes = set()
    for (u, v), value in edge_outputs.items():
        if value:
            matched_nodes.add(u)
            matched_nodes.add(v)
    # repro-lint: allow[REP002] networkx reference validator (the oracle)
    for u, v in graph.edges():
        if u not in matched_nodes and v not in matched_nodes:
            return ValidationResult(False, f"edge ({u}, {v}) could be added (not maximal)")
    return ValidationResult(True)


def _matching_kernel(
    network: Any,
    node_values: np.ndarray,
    node_committed: np.ndarray,
    edge_values: np.ndarray,
    edge_committed: np.ndarray,
    alive: np.ndarray,
    *,
    induced: bool = False,
) -> ValidationResult:
    """Maximal matching.

    No node — crashed or not — may have two selected edges; an unselected
    alive–alive edge needs an endpoint matched by *some* selected edge,
    possibly one towards a crashed node (the match happened before the
    partner died; it does not free the surviving endpoint).
    """
    n = network.n
    us, vs = network.edge_endpoints()
    selected = edge_committed & edge_values.astype(bool, copy=False)
    degree = np.bincount(us[selected], minlength=n) + np.bincount(vs[selected], minlength=n)
    if (degree > 1).any():
        return ValidationResult(
            False, f"selected edges are not a matching (node {_first(degree > 1)} is matched twice)"
        )
    matched = degree > 0
    addable = ~(matched[us] | matched[vs])
    live = _live(alive, us, vs)
    if live is not None:
        addable &= live
    if addable.any():
        i = _first(addable)
        return ValidationResult(
            False, f"{_surviving(alive)}edge ({us[i]}, {vs[i]}) could be added (not maximal)"
        )
    return ValidationResult(True)


def _matching_validator(
    graph: nx.Graph, _: Mapping[int, Any], edge_outputs: Mapping[Edge, Any]
) -> ValidationResult:
    return is_maximal_matching(graph, edge_outputs)


MAXIMAL_MATCHING = ProblemSpec(
    name="maximal-matching",
    labels_nodes=False,
    labels_edges=True,
    validator=_matching_validator,
    kernel=_matching_kernel,
)


# ---------------------------------------------------------------------- #
# Colouring
# ---------------------------------------------------------------------- #


def is_proper_coloring(
    graph: nx.Graph, node_outputs: Mapping[int, Any], num_colors: Optional[int] = None
) -> ValidationResult:
    """Check a proper vertex colouring, optionally bounding the palette size."""
    # repro-lint: allow[REP002] networkx reference validator (the oracle)
    for u, v in graph.edges():
        if node_outputs.get(u) == node_outputs.get(v):
            return ValidationResult(False, f"edge ({u}, {v}) is monochromatic")
    if num_colors is not None:
        used = {node_outputs[v] for v in graph.nodes()}
        bad = [c for c in used if not (isinstance(c, int) and 0 <= c < num_colors)]
        if bad:
            return ValidationResult(
                False, f"colours {bad[:5]} are outside the allowed palette [0, {num_colors})"
            )
    return ValidationResult(True)


def _off_palette(colours: np.ndarray, num_colors: int) -> List[Any]:
    """The distinct colours outside ``[0, num_colors)`` (non-integers included)."""
    if colours.dtype.kind in "biu":
        as_int = colours.astype(np.int64)
        return np.unique(colours[(as_int < 0) | (as_int >= num_colors)]).tolist()
    used = set(colours.tolist())
    return [c for c in used if not (isinstance(c, int) and 0 <= c < num_colors)]


def _coloring_kernel(num_colors: Optional[int]) -> Callable[..., ValidationResult]:
    def kernel(
        network: Any,
        node_values: np.ndarray,
        node_committed: np.ndarray,
        edge_values: np.ndarray,
        edge_committed: np.ndarray,
        alive: np.ndarray,
        *,
        induced: bool = False,
    ) -> ValidationResult:
        """Proper colouring: no alive–alive edge is monochromatic, and the
        palette bound applies to the colours the alive nodes use (what a
        crashed node committed is not held against the configuration)."""
        us, vs = network.edge_endpoints()
        clash = node_values[us] == node_values[vs]
        live = _live(alive, us, vs)
        if live is not None:
            clash &= live
        if clash.any():
            i = _first(clash)
            return ValidationResult(
                False, f"{_surviving(alive)}edge ({us[i]}, {vs[i]}) is monochromatic"
            )
        if num_colors is not None:
            bad = _off_palette(node_values[alive & node_committed], num_colors)
            if bad:
                return ValidationResult(
                    False,
                    f"colours {bad[:5]} are outside the allowed palette [0, {num_colors})",
                )
        return ValidationResult(True)

    return kernel


def coloring(num_colors: Optional[int] = None, name: Optional[str] = None) -> ProblemSpec:
    """Problem spec for proper vertex colouring with palette ``[0, num_colors)``."""
    label = name or (f"{num_colors}-coloring" if num_colors is not None else "coloring")
    return ProblemSpec(
        name=label,
        labels_nodes=True,
        labels_edges=False,
        validator=lambda graph, node_outputs, _: is_proper_coloring(
            graph, node_outputs, num_colors
        ),
        params={"num_colors": num_colors},
        kernel=_coloring_kernel(num_colors),
    )


# ---------------------------------------------------------------------- #
# Sinkless orientation
# ---------------------------------------------------------------------- #


def is_sinkless_orientation(
    graph: nx.Graph, edge_outputs: Mapping[Edge, Any], min_degree: int = 3
) -> ValidationResult:
    """Check a sinkless orientation.

    The output of edge ``(u, v)`` (with ``u < v``) is the vertex the edge
    points *towards* (its head).  Every node of degree ≥ ``min_degree`` must
    have at least one outgoing edge.  Nodes of smaller degree are exempt, as
    in the paper the problem is only posed for minimum degree ≥ 3.
    """
    out_degree: Dict[int, int] = {v: 0 for v in graph.nodes()}
    for (u, v), head in edge_outputs.items():
        if not graph.has_edge(u, v):
            return ValidationResult(False, f"oriented edge ({u}, {v}) is not in the graph")
        if head not in (u, v):
            return ValidationResult(
                False, f"edge ({u}, {v}) oriented towards {head}, which is not an endpoint"
            )
        tail = u if head == v else v
        out_degree[tail] += 1
    for v in graph.nodes():
        if graph.degree(v) >= min_degree and out_degree[v] == 0:
            return ValidationResult(False, f"node {v} (degree {graph.degree(v)}) is a sink")
    return ValidationResult(True)


def _sinkless_kernel(
    network: Any,
    node_values: np.ndarray,
    node_committed: np.ndarray,
    edge_values: np.ndarray,
    edge_committed: np.ndarray,
    alive: np.ndarray,
    *,
    induced: bool = False,
    min_degree: int = 3,
) -> ValidationResult:
    """Sinkless orientation (edge values are heads).

    Every committed head must be an endpoint of its edge, wherever the edge
    sits (a malformed head is a bug, not a casualty).  An alive node of
    degree ≥ ``min_degree`` needs an outgoing committed edge; one whose head
    has since crashed counts (under crash-stop the edge remains, oriented
    while both endpoints ran).  The degree is the original one — a crash
    does not re-pose the problem — except for ``induced`` validation, which
    poses it on the induced survivor subgraph.
    """
    n = network.n
    us, vs = network.edge_endpoints()
    to_v = edge_committed & (edge_values == vs)
    to_u = edge_committed & ~to_v & (edge_values == us)
    malformed = edge_committed & ~to_v & ~to_u
    if malformed.any():
        i = _first(malformed)
        head = edge_values[i : i + 1].tolist()[0]
        return ValidationResult(
            False, f"edge ({us[i]}, {vs[i]}) oriented towards {head}, which is not an endpoint"
        )
    has_out = np.zeros(n, dtype=bool)
    has_out[us[to_v]] = True
    has_out[vs[to_u]] = True
    live = _live(alive, us, vs) if induced else None
    if live is not None:
        us, vs = us[live], vs[live]
    degree = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    sinks = alive & ~has_out & (degree >= min_degree)
    if sinks.any():
        v = _first(sinks)
        return ValidationResult(
            False, f"{_surviving(alive)}node {v} (degree {degree[v]}) is a sink"
        )
    return ValidationResult(True)


def _sinkless_validator(
    graph: nx.Graph, _: Mapping[int, Any], edge_outputs: Mapping[Edge, Any]
) -> ValidationResult:
    return is_sinkless_orientation(graph, edge_outputs)


SINKLESS_ORIENTATION = ProblemSpec(
    name="sinkless-orientation",
    labels_nodes=False,
    labels_edges=True,
    validator=_sinkless_validator,
    kernel=_sinkless_kernel,
)
