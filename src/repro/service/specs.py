"""The service's job language: serialisable sweep specifications.

:func:`repro.analysis.sweep.sweep` takes callables — graph factories and
algorithm/problem factory pairs — which cannot travel through a database or
an HTTP body.  A :class:`SweepSpec` is the closed, serialisable form: graph
families and algorithms are referenced **by registry name** plus plain-JSON
parameters, and :meth:`SweepSpec.sweep_kwargs` reconstitutes exactly the
callables the in-process sweep would use.  The round-trip is lossless
(``SweepSpec.from_dict(spec.to_dict()) == spec``) and the canonical JSON
form is content-hashed (:meth:`SweepSpec.digest`) for dedup and provenance.

Registries
----------

``GRAPH_FAMILIES`` maps a family name to a builder
``(value, **params) -> graph source`` (an :class:`EdgeArrays`, as every
built-in family returns, or anything else
:func:`repro.core.experiment.resolve_network` accepts).  ``ALGORITHMS`` maps an
algorithm name to the sweep convention's ``(algorithm_factory,
problem_factory)`` pair of one-argument factories.
Both registries are extensible (:func:`register_family`,
:func:`register_algorithm`) so embedding applications can expose their own
workloads through the same service verbs.

The graph cache key (:meth:`SweepSpec.graph_key`) is the hash of one recipe
(:meth:`SweepSpec.graph_recipe`):
``(family, params, value, network seed, id scheme)`` — the complete recipe
for the network build — plus the cache's payload layout
(:data:`repro.core.schemas.GRAPH_CACHE`), so two jobs that would build
byte-identical networks share one cache row no matter how the rest of their
specs differ, and a row of another layout is never read.  The cache row
and the job's provenance store that same recipe, so either reproduces the
key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.algorithms.matching.randomized import RandomizedMaximalMatching
from repro.algorithms.mis.luby import LubyMIS
from repro.algorithms.coloring import RandomizedColoring
from repro.algorithms.ruling_set import RandomizedTwoTwoRulingSet
from repro.analysis.sweep import network_seed as sweep_network_seed
from repro.core import problems, schemas
from repro.graphs import generators as gen

__all__ = [
    "SPEC_FORMAT",
    "SweepSpec",
    "GRAPH_FAMILIES",
    "ALGORITHMS",
    "register_family",
    "register_algorithm",
]

#: Identifier of the serialised spec format (the ``format`` key of
#: :meth:`SweepSpec.to_dict`); spelled out once in :mod:`repro.core.schemas`.
SPEC_FORMAT = schemas.SWEEP_SPEC

#: The benchmark ID-scheme convention, fixed service-wide so the cache key
#: and the in-process ``resolve_network`` default can never drift.
ID_SCHEME = "permuted"


# ---------------------------------------------------------------------- #
# Registries
# ---------------------------------------------------------------------- #

#: ``family name -> (value, **params) -> graph source``.  The built-in
#: builders return :class:`~repro.graphs.edgelist.EdgeArrays`.
GRAPH_FAMILIES: Dict[str, Callable[..., object]] = {}

#: ``algorithm name -> (algorithm_factory, problem_factory)`` in the sweep
#: convention (both factories receive the constructed ``Network``).
ALGORITHMS: Dict[str, Tuple[Callable, Callable]] = {}


def register_family(name: str, builder: Callable[..., object]) -> None:
    """Register a graph family builder under ``name`` (overwrites allowed)."""
    GRAPH_FAMILIES[name] = builder


def register_algorithm(
    name: str, algorithm_factory: Callable, problem_factory: Callable
) -> None:
    """Register an algorithm/problem pair under ``name`` (overwrites allowed)."""
    ALGORITHMS[name] = (algorithm_factory, problem_factory)


register_family("cycle", lambda value: gen.cycle_edges(int(value)))
register_family("path", lambda value: gen.path_edges(int(value)))
register_family("complete", lambda value: gen.complete_edges(int(value)))
register_family("star", lambda value: gen.star_edges(int(value)))
register_family(
    "grid",
    lambda value, cols=None: gen.grid_edges(
        int(value), int(value if cols is None else cols)
    ),
)
register_family(
    "fast_gnp",
    # The sparse G(n, d/(n-1)) convention of the benchmarks: `value` is n,
    # `expected_degree` fixes the density, `graph_seed` the edge randomness.
    lambda value, expected_degree=8.0, graph_seed=0: gen.fast_gnp_edges(
        int(value),
        float(expected_degree) / max(int(value) - 1, 1),
        seed=int(graph_seed),
    ),
)
register_family(
    "random_regular",
    lambda value, degree=4, graph_seed=0: gen.random_regular_edges(
        int(degree), int(value), seed=int(graph_seed)
    ),
)

register_algorithm(
    "luby_mis", lambda net: LubyMIS(), lambda net: problems.MIS
)
register_algorithm(
    "randomized_matching",
    lambda net: RandomizedMaximalMatching(),
    lambda net: problems.MAXIMAL_MATCHING,
)
register_algorithm(
    "randomized_coloring",
    lambda net: RandomizedColoring(),
    lambda net: problems.coloring(net.max_degree() + 1),
)
register_algorithm(
    "ruling_set_2_2",
    lambda net: RandomizedTwoTwoRulingSet(),
    lambda net: problems.ruling_set(2, 2),
)


# ---------------------------------------------------------------------- #
# The spec
# ---------------------------------------------------------------------- #


def _canonical(value: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SweepSpec:
    """A serialisable description of one sweep job (format ``sweep-spec/v1``).

    Field-for-field the :func:`repro.analysis.sweep.sweep` signature with
    the callables replaced by registry names + JSON parameters; defaults
    match the sweep's own.  ``on_error`` is not a field — the service always
    runs ``on_error="record"`` so broken cells become stored failure rows
    instead of killing the job.
    """

    parameter: str
    values: Tuple[object, ...]
    family: str
    algorithms: Tuple[str, ...]
    family_params: Mapping[str, object] = field(default_factory=dict)
    trials: int = 3
    seed: int = 0
    max_rounds: int = 20_000
    validate: bool = True
    engine: str = "auto"
    cell_timeout: Optional[float] = None
    batch_budget_bytes: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "family_params", dict(self.family_params))
        if not self.values:
            raise ValueError("a sweep spec needs at least one value")
        if len(set(map(repr, self.values))) != len(self.values) or any(
            self.values.index(value) != index for index, value in enumerate(self.values)
        ):
            # The cache-aware worker factory maps a value back to its index
            # (for the per-index network seed) with ``==``, and the sweep
            # journal names values by repr: values equal under either would
            # share an index, and they are meaningless in a sweep anyway.
            raise ValueError("sweep values must be distinct")
        if not self.algorithms:
            raise ValueError("a sweep spec needs at least one algorithm")
        if self.family not in GRAPH_FAMILIES:
            raise ValueError(
                f"unknown graph family {self.family!r}; registered: "
                f"{sorted(GRAPH_FAMILIES)}"
            )
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(
                f"unknown algorithm(s) {unknown}; registered: {sorted(ALGORITHMS)}"
            )
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON dictionary form (round-trips through :meth:`from_dict`)."""
        return {
            "format": SPEC_FORMAT,
            "parameter": self.parameter,
            "values": list(self.values),
            "family": self.family,
            "family_params": dict(self.family_params),
            "algorithms": list(self.algorithms),
            "trials": self.trials,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "validate": self.validate,
            "engine": self.engine,
            "cell_timeout": self.cell_timeout,
            "batch_budget_bytes": self.batch_budget_bytes,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Reconstruct a spec from :meth:`to_dict` output (strict on keys)."""
        payload = dict(data)
        fmt = payload.pop("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ValueError(f"expected a {SPEC_FORMAT} spec, got format {fmt!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown spec key(s): {unknown}")
        return cls(**payload)  # type: ignore[arg-type]

    def canonical_json(self) -> str:
        """The canonical serialised form (stable across processes)."""
        return _canonical(self.to_dict())

    def digest(self) -> str:
        """Content hash of the canonical form (spec identity / dedup)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def with_name(self, name: str) -> "SweepSpec":
        return replace(self, name=name)

    # ------------------------------------------------------------------ #
    # Reconstitution
    # ------------------------------------------------------------------ #

    def graph_source(self, value: object) -> object:
        """Build the graph source for one swept value (registry dispatch)."""
        return GRAPH_FAMILIES[self.family](value, **self.family_params)

    def network_seed(self, index: int) -> int:
        """The ID-assignment seed ``sweep`` uses for value index ``index``."""
        return sweep_network_seed(self.seed, index)

    def graph_recipe(self, index: int) -> Dict[str, object]:
        """The complete build recipe of value index ``index``'s network.

        Family, params, the value, the network (identifier) seed and the ID
        scheme, plus the graph cache's payload layout.  The cache stores
        this dict beside the payload and in each job's provenance, and
        :meth:`graph_key` hashes it, so a stored recipe reproduces its key.
        """
        return {
            "family": self.family,
            "params": dict(self.family_params),
            "value": self.values[index],
            "network_seed": self.network_seed(index),
            "id_scheme": ID_SCHEME,
            "layout": schemas.GRAPH_CACHE,
        }

    def graph_key(self, index: int) -> str:
        """Content-addressed cache key for value index ``index``'s network.

        The sha256 of the canonical :meth:`graph_recipe`, so equal keys
        mean byte-identical builds stored the same way, across jobs and
        submitters.
        """
        return hashlib.sha256(_canonical(self.graph_recipe(index)).encode()).hexdigest()

    def algorithm_factories(self) -> Dict[str, Tuple[Callable, Callable]]:
        """The sweep-convention ``{name: (algorithm, problem) factories}``."""
        return {name: ALGORITHMS[name] for name in self.algorithms}

    def sweep_kwargs(
        self, graph_factory: Optional[Callable[[object], object]] = None
    ) -> Dict[str, object]:
        """Keyword arguments for :func:`repro.analysis.sweep.sweep`.

        ``graph_factory`` defaults to plain registry dispatch
        (:meth:`graph_source`); the service worker passes a cache-aware
        factory instead, which returns ready :class:`Network` objects from
        the store's graph cache — identical networks either way.
        """
        return {
            "parameter": self.parameter,
            "values": list(self.values),
            "graph_factory": graph_factory or self.graph_source,
            "algorithms": self.algorithm_factories(),
            "trials": self.trials,
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "validate": self.validate,
            "engine": self.engine,
            "cell_timeout": self.cell_timeout,
            "batch_budget_bytes": self.batch_budget_bytes,
        }
