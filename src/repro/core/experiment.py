"""Trial running, aggregation helpers, and the :class:`Experiment` facade.

Randomized averaged complexities are expectations, so a single execution is a
noisy estimate.  The helpers here run an algorithm several times (with
different seeds) on the same network, validate every produced solution, and
aggregate the traces into a :class:`~repro.core.metrics.ComplexityMeasurement`.

The whole trial pipeline stays free of networkx and per-entity dicts:
``validate=True`` checks each trace through the problem's numpy kernel
(:meth:`ProblemSpec.validate_network` on the trace's array storage), so even
``n ≥ 10⁵`` trial batches never export the topology back to a
``networkx.Graph``.  No module on the pipeline imports networkx at module
level either: it loads only when something asks for a networkx graph (a
networkx generator or transform, :meth:`Network.to_networkx`,
:mod:`repro.lowerbound`), so an :meth:`Experiment.run` on any other graph
source runs with numpy alone.

The functions take an *algorithm factory* (a zero-argument callable returning
a fresh :class:`~repro.local.algorithm.NodeAlgorithm`) rather than an
algorithm instance, so that algorithms are free to keep per-execution
configuration on ``self`` without leaking state across trials.

:class:`Experiment` is the single documented entry point over the whole
generate → network → run → validate → measure plumbing.  It accepts graph
sources in the forms the lower layers understand — ready-made
:class:`Network` objects, :class:`repro.graphs.edgelist.EdgeArrays` (the
edge-list interchange every direct generator returns, built through
:meth:`Network.from_edge_arrays`, the vectorised numpy build),
networkx graphs, or zero-argument callables producing any of those, all
resolved by :func:`resolve_network` — and returns structured results: the
traces, per-trial validation verdicts, per-phase wall-clock timings, and a
:class:`ComplexityMeasurement` with tail quantiles.  A complete run is three
lines::

    >>> from repro.core import problems
    >>> from repro.core.experiment import Experiment
    >>> from repro.algorithms.mis.luby import LubyMIS
    >>> from repro.graphs.generators import fast_gnp_edges
    >>> result = Experiment(
    ...     problem=problems.MIS,
    ...     algorithm=LubyMIS,
    ...     graphs=fast_gnp_edges(10_000, 8 / 9_999, seed=3),
    ...     seeds=range(3),
    ... ).run()
    >>> run = result.runs[0]
    >>> run.ok, run.measurement.node_averaged <= run.measurement.worst_case
    (True, True)
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.errors import cell_deadline
from repro.core.metrics import DEFAULT_QUANTILES, ComplexityMeasurement, measure
from repro.core.problems import ProblemSpec
from repro.core.trace import ExecutionTrace
from repro.graphs.edgelist import EdgeArrays
from repro.local.algorithm import NodeAlgorithm
from repro.local.engine import ArrayEngine
from repro.local.faults import FaultSchedule
from repro.local.network import Network
from repro.local.runner import Runner

__all__ = [
    "run_trials",
    "trial_seed",
    "seed_schedule",
    "resolve_network",
    "resolve_engine",
    "Experiment",
    "ExperimentRun",
    "ExperimentResult",
]

#: Valid values of the ``engine`` knob shared by :func:`run_trials`,
#: :class:`Experiment` and :func:`repro.analysis.sweep.sweep`.
ENGINES = ("node", "array", "auto")


def resolve_engine(engine: str, algorithm: NodeAlgorithm) -> bool:
    """Whether ``algorithm`` should run on the array engine under ``engine``.

    ``"node"`` always uses the per-node coroutine
    :class:`~repro.local.runner.Runner` (the exact-reference path, pinned by
    the golden digests in ``tests/local/test_runner_golden.py``);
    ``"array"`` demands the vectorised
    :class:`~repro.local.engine.ArrayEngine` and raises ``TypeError`` when
    the algorithm has no array twin; ``"auto"`` picks the array engine
    exactly when ``algorithm.as_array_algorithm()`` returns one.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "node":
        return False
    supported = getattr(algorithm, "as_array_algorithm", lambda: None)() is not None
    if engine == "array" and not supported:
        raise TypeError(
            f"{type(algorithm).__name__} does not implement the ArrayAlgorithm "
            "protocol (as_array_algorithm() returned None); use engine='node' "
            "or engine='auto'"
        )
    return supported


def _execute_trials(
    make_algorithm: Callable[[], NodeAlgorithm],
    network: Network,
    problem: ProblemSpec,
    seeds: Sequence[int],
    *,
    engine: str,
    runner: Runner,
    array_engine: ArrayEngine,
    faults: Optional[FaultSchedule],
    batch_budget_bytes: Optional[int],
) -> List[ExecutionTrace]:
    """One trace per seed: the trial dispatcher of :func:`run_trials` and
    :class:`Experiment`.

    The first instance probes engine dispatch (:func:`resolve_engine`);
    ``"auto"`` also falls back to the coroutine runner when faults are
    active and the array twin is not fault-aware, rather than refuse a
    schedule the runner can honour.  ``make_algorithm`` runs exactly once
    per seed on every path.  Array trials go to one
    :meth:`ArrayEngine.run_batch` call (with or without faults; traces are
    bit-identical to one run per seed), runner trials run one by one.
    """
    probe = make_algorithm()
    twin = probe.as_array_algorithm() if resolve_engine(engine, probe) else None
    if twin is not None and engine == "auto" and faults is not None and faults.active:
        twin = twin if getattr(twin, "supports_faults", False) else None
    algorithms = [probe] + [make_algorithm() for _ in seeds[1:]]
    if twin is not None:
        return array_engine.run_batch(
            twin, network, problem, seeds, faults=faults, budget_bytes=batch_budget_bytes
        )
    return [
        runner.run(algorithm, network, problem, seed=seed, faults=faults)
        for algorithm, seed in zip(algorithms, seeds)
    ]


AlgorithmFactory = Callable[[], NodeAlgorithm]
#: A graph source the facade understands: a finished :class:`Network`, flat
#: :class:`EdgeArrays` endpoints, a networkx-like graph, or a zero-argument
#: callable producing any of those.
#: Annotated as ``object``: nothing on this path imports networkx, so a
#: networkx-like graph is recognised by duck typing and the set is not
#: expressible as a Union; dispatch happens at runtime in
#: :func:`resolve_network`.
GraphSource = object


def trial_seed(base_seed: int, trial: int) -> int:
    """Seed of trial ``trial`` for a batch with base seed ``base_seed``.

    This is the single definition of the per-trial seed schedule: the trial
    loop and every sweep cell use it, which is what makes a sweep's cells,
    batched or one trial at a time, resumed or not, draw identical RNG
    streams.
    """
    return base_seed + trial


def seed_schedule(base_seed: int, trials: int) -> List[int]:
    """The explicit per-trial seed list derived from ``(base_seed, trials)``.

    Exactly the seeds :func:`run_trials` uses — the serialisable form of the
    schedule, recorded verbatim by the experiment service's provenance rows
    so a stored result names every seed that produced it.
    """
    return [trial_seed(base_seed, i) for i in range(trials)]


def run_trials(
    algorithm_factory: AlgorithmFactory,
    network: Network,
    problem: ProblemSpec,
    trials: int = 5,
    seed: int = 0,
    runner: Optional[Runner] = None,
    validate: bool = True,
    engine: str = "node",
    faults: Optional[FaultSchedule] = None,
    timeout_s: Optional[float] = None,
    batch_budget_bytes: Optional[int] = None,
) -> List[ExecutionTrace]:
    """Run ``trials`` independent executions and return their traces.

    Args:
        algorithm_factory: builds a fresh algorithm instance per trial.
        network: the communication graph.
        problem: problem specification used for termination, completion-time
            semantics, and (optionally) validation.
        trials: number of independent executions.
        seed: base seed; trial ``i`` uses ``seed + i``.
        runner: runner to use (a default strict runner when omitted).
        validate: assert that every trial produced a valid solution.
        engine: ``"node"`` (default) runs the per-node coroutine runner —
            the exact-reference path with seed-for-seed bit-identical
            traces; ``"array"`` runs the vectorised
            :class:`~repro.local.engine.ArrayEngine` (raising ``TypeError``
            for algorithms without an array twin); ``"auto"`` picks the
            array engine exactly when the algorithm implements the
            :class:`~repro.local.engine.ArrayAlgorithm` protocol.  The
            array engine follows its own documented PCG64 seed schedule, so
            its traces are reproducible but not bit-identical to the node
            path (see :mod:`repro.local.engine`).
        faults: optional :class:`~repro.local.faults.FaultSchedule` injected
            into every trial (the schedule is engine-independent, so trial
            ``i`` sees the same crash rounds and message fates on either
            engine).  Array-engine trials run as one batch with or without
            it.  Under ``engine="auto"``, an algorithm whose array twin
            does not implement fault-aware stepping silently falls back to
            the coroutine runner; ``engine="array"`` raises ``TypeError``
            for such algorithms, like the engine itself does.
        timeout_s: optional wall-clock budget in seconds for the whole batch
            of trials; on expiry a :class:`~repro.core.errors.CellTimeout`
            is raised (main-thread POSIX only — a no-op elsewhere).
        batch_budget_bytes: optional override of the trial-batched engine's
            chunk byte budget (:func:`repro.local.engine.batch_chunk`;
            default the engine's 24 MiB cache-residency model).  Batch-size
            invariance makes this a pure throughput knob — traces are
            bit-identical for every budget.

    Returns:
        One :class:`ExecutionTrace` per trial.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    active_runner = runner or Runner()
    with cell_deadline(timeout_s, what=f"run_trials({trials} trials)"):
        traces = _execute_trials(
            algorithm_factory,
            network,
            problem,
            seed_schedule(seed, trials),
            engine=engine,
            runner=active_runner,
            array_engine=ArrayEngine(
                max_rounds=active_runner.max_rounds, strict=active_runner.strict
            ),
            faults=faults,
            batch_budget_bytes=batch_budget_bytes,
        )
        if validate:
            for trace in traces:
                trace.require_valid()
    return traces


# ---------------------------------------------------------------------- #
# The Experiment facade
# ---------------------------------------------------------------------- #


def resolve_network(
    source: GraphSource, seed: int = 0, id_scheme: str = "permuted"
) -> Network:
    """Turn any supported graph source into a :class:`Network`.

    Accepts a ready-made :class:`Network` (returned as-is), an
    :class:`EdgeArrays` (built through :meth:`Network.from_edge_arrays`,
    the vectorised build), a networkx-like graph (anything with
    ``number_of_nodes()``, through :meth:`Network.from_graph`; duck-typed,
    so resolving any other source leaves networkx unloaded), or a
    zero-argument callable producing any of those; anything else raises
    :class:`TypeError`.  Identifiers follow ``id_scheme`` drawn with
    ``random.Random(seed)`` (by default the benchmark's permuted scheme),
    so equivalent sources produce identical networks for the same
    ``seed``.  The :class:`Experiment` facade, the sweeps and the
    experiment service all build their networks here.
    """
    if callable(source) and not isinstance(source, Network):
        source = source()
    if isinstance(source, Network):
        return source
    if isinstance(source, EdgeArrays):
        return Network.from_edge_arrays(source, id_scheme=id_scheme, rng=random.Random(seed))
    if callable(getattr(source, "number_of_nodes", None)):
        return Network.from_graph(source, id_scheme=id_scheme, rng=random.Random(seed))
    raise TypeError(
        f"cannot interpret {type(source).__name__!r} as a graph source "
        "(expected Network, EdgeArrays, a networkx graph, or a callable "
        "producing one)"
    )


@dataclass(frozen=True)
class ExperimentRun:
    """One graph's worth of an :class:`Experiment`: traces, verdicts, measurement.

    Attributes:
        name: the graph's display name (mapping key, provenance family, or
            positional fallback).
        network: the resolved communication graph.
        problem: the problem spec the trials were checked against.
        seeds: the per-trial seeds, in trial order.
        traces: one :class:`ExecutionTrace` per trial.
        verdicts: per-trial validation verdicts (aligned with ``traces``).
        measurement: the aggregate complexity measurement (with quantiles
            when the experiment asked for them).
        timings: per-phase wall-clock seconds (``generate_s`` for callable
            sources, ``network_s``, ``runner_s``, ``validate_s``,
            ``measure_s``, ``total_s``).
    """

    name: str
    network: Network
    problem: ProblemSpec
    seeds: Tuple[int, ...]
    traces: Tuple[ExecutionTrace, ...]
    verdicts: Tuple[bool, ...]
    measurement: ComplexityMeasurement
    timings: Dict[str, float]

    @property
    def ok(self) -> bool:
        """Whether every trial produced a valid solution."""
        return all(self.verdicts)

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary form (one table row per graph)."""
        row: Dict[str, object] = {"graph": self.name, "valid": self.ok}
        row.update(self.measurement.as_dict())
        return row


@dataclass(frozen=True)
class ExperimentResult:
    """Structured results of :meth:`Experiment.run`, one entry per graph."""

    runs: Tuple[ExperimentRun, ...]

    def __iter__(self):
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, index: int) -> ExperimentRun:
        return self.runs[index]

    @property
    def run(self) -> ExperimentRun:
        """The single run of a one-graph experiment (raises otherwise)."""
        if len(self.runs) != 1:
            raise ValueError(
                f"experiment has {len(self.runs)} runs; index runs explicitly"
            )
        return self.runs[0]

    @property
    def ok(self) -> bool:
        """Whether every trial of every run validated."""
        return all(run.ok for run in self.runs)

    @property
    def measurements(self) -> Tuple[ComplexityMeasurement, ...]:
        return tuple(run.measurement for run in self.runs)


def _make_algorithm_factory(algorithm: object) -> Callable[[Network], NodeAlgorithm]:
    """Normalise the ``algorithm`` argument into a ``network -> algorithm`` maker.

    Accepts an algorithm class / zero-argument factory (the
    :func:`run_trials` convention) or a one-argument factory taking the
    network (the :func:`repro.analysis.sweep.sweep` convention, for
    algorithms that consume global knowledge such as Δ).
    """
    if not callable(algorithm):
        raise TypeError("algorithm must be callable (a class or a factory)")
    try:
        signature = inspect.signature(algorithm)
    except (TypeError, ValueError):  # builtins without introspectable signatures
        return lambda network: algorithm()
    required = [
        parameter
        for parameter in signature.parameters.values()
        if parameter.kind
        in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        and parameter.default is inspect.Parameter.empty
    ]
    if inspect.isclass(algorithm):
        # A class's required constructor parameters are configuration values,
        # never the network — refusing here beats silently binding the
        # network to the first config slot.
        if required:
            raise TypeError(
                f"algorithm class {algorithm.__name__} takes required constructor "
                "arguments; pass a factory instead, e.g. "
                f"lambda network: {algorithm.__name__}(...)"
            )
        return lambda network: algorithm()
    if len(required) == 1:
        return lambda network: algorithm(network)
    if len(required) > 1:
        raise TypeError(
            "algorithm factory must take zero arguments or only the network; "
            f"{algorithm!r} requires {len(required)} positional arguments"
        )
    return lambda network: algorithm()


def _source_name(source: object, index: int) -> str:
    meta = getattr(source, "meta", None)
    if isinstance(meta, Mapping) and meta.get("family"):
        return str(meta["family"])
    return f"graph-{index}"


class Experiment:
    """One-stop builder for the generate → network → run → validate → measure pipeline.

    Args:
        problem: a :class:`ProblemSpec`, or a callable receiving the resolved
            :class:`Network` and returning one (for specs parameterised by
            the topology, e.g. ``problems.coloring(delta + 1)``).
        algorithm: the algorithm under test — a class or zero-argument
            factory, or a one-argument factory receiving the network.
        graphs: the workload(s): a single graph source, a sequence of them,
            or a mapping ``name -> source`` (names appear in the results).
            A source is a :class:`Network`, an :class:`EdgeArrays`, a
            networkx graph, or a zero-argument callable producing any of
            those (callables are timed as the ``generate_s`` phase).
        seeds: explicit per-trial seeds (one trial per entry).  Mutually
            exclusive with ``trials``/``seed``, which derive the schedule
            ``[trial_seed(seed, i) for i in range(trials)]`` — the exact
            seeds :func:`run_trials` would use.
        trials: number of trials when ``seeds`` is not given (default 5).
        seed: base seed for the derived schedule (default 0).
        id_scheme: identifier scheme for graph sources that are not already
            networks (default ``"permuted"``, the benchmark convention);
            graph ``i`` draws its identifiers with seed ``i``.
        max_rounds: round cap of the runner.
        runner: a pre-configured :class:`Runner` (overrides ``max_rounds``).
        engine: execution engine — ``"node"`` (default, per-node coroutine
            runner; bit-exact traces), ``"array"`` (the vectorised
            :class:`~repro.local.engine.ArrayEngine`; raises for algorithms
            without an array twin), or ``"auto"`` (array engine exactly when
            the algorithm implements the ArrayAlgorithm protocol).
        faults: optional :class:`~repro.local.faults.FaultSchedule` injected
            into every trial of every graph; array-engine trials still run
            as one batch per graph.  ``"auto"`` falls back to the
            coroutine runner for algorithms whose array twin is not
            fault-aware; ``"array"`` raises ``TypeError`` for them.
        timeout_s: optional wall-clock budget in seconds per graph (covers
            that graph's whole trial batch); expiry raises
            :class:`~repro.core.errors.CellTimeout`.
        require_valid: raise on the first invalid trial (default); when
            ``False``, invalid trials are only recorded in ``verdicts``.
        quantiles: completion-time quantile levels for the measurement
            (default :data:`DEFAULT_QUANTILES`; pass ``None`` to skip).
        batch_budget_bytes: optional override of the trial-batched engine's
            chunk byte budget (see :func:`run_trials`); a pure throughput
            knob — batch-size invariance keeps traces bit-identical.

    ``run()`` executes the whole pipeline and returns an
    :class:`ExperimentResult`; the builder itself is reusable (every call
    runs the same schedule from scratch, so results are reproducible).
    """

    def __init__(
        self,
        *,
        problem: Union[ProblemSpec, Callable[[Network], ProblemSpec]],
        algorithm: object,
        graphs: Union[GraphSource, Sequence[GraphSource], Mapping[str, GraphSource]],
        seeds: Optional[Iterable[int]] = None,
        trials: Optional[int] = None,
        seed: int = 0,
        id_scheme: str = "permuted",
        max_rounds: int = 20_000,
        runner: Optional[Runner] = None,
        engine: str = "node",
        faults: Optional[FaultSchedule] = None,
        timeout_s: Optional[float] = None,
        require_valid: bool = True,
        quantiles: Optional[Sequence[float]] = DEFAULT_QUANTILES,
        batch_budget_bytes: Optional[int] = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        if seeds is not None and (trials is not None or seed != 0):
            raise ValueError(
                "pass either an explicit seeds schedule or trials/seed, not both"
            )
        if seeds is not None:
            self._seeds: Tuple[int, ...] = tuple(int(s) for s in seeds)
        else:
            self._seeds = tuple(trial_seed(seed, i) for i in range(trials if trials is not None else 5))
        if not self._seeds:
            raise ValueError("at least one trial seed is required")
        self._make_problem = problem if callable(problem) and not isinstance(problem, ProblemSpec) else (lambda network: problem)
        self._make_algorithm = _make_algorithm_factory(algorithm)
        # Unnamed sources get ``None`` here and are named in :meth:`run`,
        # *after* callables have produced their workload — so provenance
        # metadata on generated EdgeArrays still reaches the display name.
        if isinstance(graphs, Mapping):
            self._graphs: List[Tuple[Optional[str], GraphSource]] = list(graphs.items())
        elif isinstance(graphs, (list, tuple)):
            self._graphs = [(None, g) for g in graphs]
        else:
            self._graphs = [(None, graphs)]
        self._id_scheme = id_scheme
        self._runner = runner or Runner(max_rounds=max_rounds)
        self._engine = engine
        self._array_engine = ArrayEngine(
            max_rounds=self._runner.max_rounds, strict=self._runner.strict
        )
        self._faults = faults
        self._timeout_s = timeout_s
        self._require_valid = require_valid
        self._quantiles = quantiles
        self._batch_budget_bytes = batch_budget_bytes

    def run(self) -> ExperimentResult:
        """Execute every (graph, seed) cell and return the structured results."""
        runs: List[ExperimentRun] = []
        used_names: set = set()
        for index, (name, source) in enumerate(self._graphs):
            timings: Dict[str, float] = {}
            if callable(source) and not isinstance(source, Network):
                t0 = time.perf_counter()
                source = source()
                timings["generate_s"] = time.perf_counter() - t0
            if name is None:
                name = _source_name(source, index)
                if name in used_names:
                    # Two unnamed sources from the same generator family —
                    # disambiguate so result rows stay tellable-apart.
                    name = f"{name}-{index}"
            used_names.add(name)

            t0 = time.perf_counter()
            network = resolve_network(source, seed=index, id_scheme=self._id_scheme)
            timings["network_s"] = time.perf_counter() - t0

            problem = self._make_problem(network)
            t0 = time.perf_counter()
            with cell_deadline(self._timeout_s, what=f"experiment graph {name!r}"):
                traces = tuple(
                    _execute_trials(
                        lambda: self._make_algorithm(network),
                        network,
                        problem,
                        self._seeds,
                        engine=self._engine,
                        runner=self._runner,
                        array_engine=self._array_engine,
                        faults=self._faults,
                        batch_budget_bytes=self._batch_budget_bytes,
                    )
                )
            timings["runner_s"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            verdicts = tuple(bool(trace.validate()) for trace in traces)
            timings["validate_s"] = time.perf_counter() - t0
            if self._require_valid and not all(verdicts):
                bad = verdicts.index(False)
                traces[bad].require_valid()  # raises with the validator's reason

            t0 = time.perf_counter()
            measurement = measure(traces, quantiles=self._quantiles)
            timings["measure_s"] = time.perf_counter() - t0
            timings["total_s"] = sum(timings.values())

            runs.append(
                ExperimentRun(
                    name=name,
                    network=network,
                    problem=problem,
                    seeds=self._seeds,
                    traces=traces,
                    verdicts=verdicts,
                    measurement=measurement,
                    timings=timings,
                )
            )
        return ExperimentResult(runs=tuple(runs))
