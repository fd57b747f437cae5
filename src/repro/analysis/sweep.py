"""Parameter sweeps for the benchmark harness.

A sweep runs one or more algorithms over a family of networks (e.g. growing
``n`` or growing ``Δ``), measures every averaged-complexity notion for each
combination, and returns the rows that the benchmark scripts print and that
``benchmarks/README.md`` tabulates.

A sweep runs its ``(value, algorithm, trial)`` cells one after another in
the calling process, holding one value's network at a time, built from the
graph factory's workload by :func:`repro.core.experiment.resolve_network`
(the one dispatcher the facade and the service use too).  Every cell
derives its seed from a deterministic schedule
(:func:`repro.core.experiment.trial_seed`), so a resumed sweep produces
**identical measurements** to an uninterrupted one.  Sweeps run side by side
in separate processes: the experiment service runs each job as a sweep in
its own forked worker (:class:`repro.service.scheduler.Scheduler`).

Crash safety.  Long sweeps die for boring reasons — an OOM-killed process,
a wall-clock limit, a Ctrl-C — and without a resilience layer any of those
loses the whole run.  The layer has two parts, both opt-in:

* ``on_error="record"`` turns per-cell exceptions (validation failures,
  round-limit overruns, :class:`~repro.core.errors.CellTimeout` when
  ``cell_timeout`` is set) into structured :class:`CellFailure` rows on the
  returned :class:`SweepResult` instead of aborting the sweep;
* ``checkpoint=`` journals every finished cell to sqlite (format
  ``sweep-checkpoint/v3``).  A path gives the sweep a database file of its
  own; a ``(database, key)`` pair journals under ``key`` in an existing
  database (the experiment service passes its result store and the job
  id).  Each cell row commits in its own transaction, completion times as
  uint16 BLOBs (int64 for a row whose times do not fit), so a killed
  process loses at most the cell it was computing.  Re-running the same
  sweep on the same journal skips cells whose ``ok`` rows are committed and
  retries recorded failures, so an interrupted sweep resumes cell-exactly —
  the per-cell seed schedule makes the resumed results identical to an
  uninterrupted run.  v2 journals, whose rows are all int64, still resume;
  the resuming writer re-stamps their header as v3.  Under
  ``on_error="raise"`` the failing cell's row is journaled before its error
  propagates, and a ``KeyboardInterrupt`` releases the journal and
  re-raises, so a resume retries or continues from the last committed
  row.

Aggregation is streamed: every ``ok`` row — fresh from a cell, or read back
from the journal on resume — is folded into the running
:class:`~repro.core.metrics.CompletionTotals` of its ``(value, algorithm)``
as it lands, so a sweep holds no completion-time row beyond the task that
produced it.
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core import schemas
from repro.core.errors import CheckpointLocked, ReproError, classify_failure
from repro.core.experiment import resolve_network, run_trials, trial_seed
from repro.core.metrics import ComplexityMeasurement, CompletionTotals, RecoveryTimeline
from repro.core.problems import ProblemSpec
from repro.graphs.edgelist import EdgeArrays
from repro.local.algorithm import NodeAlgorithm
from repro.local.faults import FaultSchedule
from repro.local.network import Network
from repro.local.runner import Runner

if TYPE_CHECKING:  # pragma: no cover - GraphLike names nx.Graph as a string
    import networkx as nx

__all__ = [
    "SweepPoint",
    "SweepResult",
    "CellFailure",
    "CHECKPOINT_FORMAT",
    "sweep",
    "read_checkpoint",
]

AlgorithmFactory = Callable[[Network], NodeAlgorithm]
ProblemFactory = Callable[[Network], ProblemSpec]
#: What a sweep's ``graph_factory`` may return: an :class:`EdgeArrays` (what
#: the direct edge-list generators return; the fastest option at large
#: ``n``), a ready-made :class:`Network`, or a networkx graph — everything
#: but the networkx graph stays off networkx entirely.  ``nx.Graph`` is a
#: forward reference: this module never imports networkx, so a sweep whose
#: factory returns no networkx graph runs without loading it.
GraphLike = Union["nx.Graph", Network, EdgeArrays]

#: What ``sweep(checkpoint=)`` takes: a database path, or a ``(database,
#: key)`` pair naming one journal in a shared database.
Checkpoint = Union[str, Tuple[str, object]]

#: Identifier of the journal format written by ``checkpoint=`` (stamped in
#: every journal header); spelled out once in :mod:`repro.core.schemas`.
CHECKPOINT_FORMAT = schemas.SWEEP_CHECKPOINT

#: Journal key of a sweep whose ``checkpoint=`` is a bare path.
_DEFAULT_KEY = "sweep"

#: Test seam: when set, called with each journal row right after its
#: transaction commits (used to inject interrupts at precise points).
_test_hook: Optional[Callable[[Dict[str, object]], None]] = None


@dataclass(frozen=True)
class SweepPoint:
    """One (parameter value, algorithm) measurement of a sweep."""

    parameter: str
    value: object
    measurement: ComplexityMeasurement

    def as_row(self) -> Dict[str, object]:
        row = {"parameter": self.parameter, "value": self.value}
        row.update(self.measurement.as_dict())
        return row


@dataclass(frozen=True)
class CellFailure:
    """A (value, algorithm, trial) cell that failed under ``on_error="record"``.

    ``kind`` is the :func:`repro.core.errors.classify_failure` slug of the
    error (``"validation-failed"``, ``"round-limit"``, ``"timeout"``, or
    ``"exception:<TypeName>"``); ``seed`` is the cell's trial seed, so the
    failure reproduces with a single run.
    """

    parameter: str
    value: object
    algorithm: str
    trial: int
    seed: int
    kind: str
    message: str

    def as_row(self) -> Dict[str, object]:
        return {
            "parameter": self.parameter,
            "value": self.value,
            "algorithm": self.algorithm,
            "trial": self.trial,
            "seed": self.seed,
            "kind": self.kind,
            "message": self.message,
        }


class SweepResult(List[SweepPoint]):
    """The points of a sweep plus the structured failures it recorded.

    A plain ``list`` subclass: every existing consumer of ``sweep()`` (which
    returned ``List[SweepPoint]``) keeps working unchanged, and ``==``
    against a plain list of points still holds.  ``failures`` is empty
    unless ``on_error="record"`` turned broken cells into rows.
    """

    def __init__(
        self,
        points: Iterable[SweepPoint] = (),
        failures: Iterable[CellFailure] = (),
    ) -> None:
        super().__init__(points)
        self.failures: List[CellFailure] = list(failures)

    @property
    def ok(self) -> bool:
        """Whether no cell failed."""
        return not self.failures


def sweep(
    parameter: str,
    values: Sequence[object],
    graph_factory: Callable[[object], GraphLike],
    algorithms: Dict[str, Tuple[AlgorithmFactory, ProblemFactory]],
    trials: int = 3,
    seed: int = 0,
    max_rounds: int = 20_000,
    validate: bool = True,
    engine: str = "node",
    faults: Optional[FaultSchedule] = None,
    cell_timeout: Optional[float] = None,
    checkpoint: Optional[Checkpoint] = None,
    on_error: str = "raise",
    batch_budget_bytes: Optional[int] = None,
) -> "SweepResult":
    """Run a one-dimensional parameter sweep.

    Args:
        parameter: name of the swept parameter (for reporting).
        values: the parameter values.
        graph_factory: builds the workload for a parameter value — an
            :class:`EdgeArrays`, a networkx graph, or a :class:`Network`
            (see :func:`repro.core.experiment.resolve_network`; value
            ``i``'s identifiers are permuted with seed ``seed + i``).
            The direct generators of
            :mod:`repro.graphs.generators` return :class:`EdgeArrays`, so
            neither the factory nor the network build touches per-edge
            Python objects (for Erdős–Rényi workloads at ``n ≥ 10⁵`` use
            the geometric-skip
            :func:`repro.graphs.generators.fast_gnp_edges`).
        algorithms: mapping from a display name to a pair
            ``(algorithm_factory, problem_factory)``; both factories receive
            the constructed :class:`Network` so that algorithms can consume
            global knowledge such as Δ or the identifier bit length.
        trials: independent executions per (value, algorithm) pair.
        seed: base randomness.
        max_rounds: round cap of the runner.
        validate: assert solution validity on every trial.
        engine: ``"node"`` (default, per-node coroutine runner — bit-exact
            traces), ``"array"`` (the vectorised
            :class:`repro.local.engine.ArrayEngine`; raises for algorithms
            without an array twin), or ``"auto"`` (array engine exactly for
            algorithms implementing the ArrayAlgorithm protocol).
        faults: optional :class:`~repro.local.faults.FaultSchedule` injected
            into every trial of every cell (see :mod:`repro.local.faults`
            for the engine-independent seed schedule).  On the array
            engines a cell's trials still run as one batch.  The schedule
            is part of the journal header: a journal resumes only a sweep
            with an equal schedule.
        cell_timeout: optional wall-clock budget in seconds per
            ``(value, algorithm, trial)`` cell; an expired cell raises
            :class:`~repro.core.errors.CellTimeout` (a recorded failure row
            under ``on_error="record"``).  Enforced via ``SIGALRM``
            (:func:`~repro.core.errors.cell_deadline`), so only when the
            sweep runs on a Unix main thread; elsewhere it is not enforced.
        checkpoint: optional sqlite journal of finished cells (format
            ``sweep-checkpoint/v3``, completion times as uint16 BLOBs where
            they fit): a database path, or a ``(database, key)`` pair for
            one journal among several in a shared database.  When the
            journal already holds rows for the same sweep (validated
            against its header), cells with ``ok`` rows are folded into the
            result and skipped, and recorded failures are retried —
            interrupted sweeps resume cell-exactly.  A ``v2`` journal
            resumes too, and is re-stamped ``v3``.
        on_error: ``"raise"`` (default) propagates the first broken cell's
            exception, after journaling its failure row when a
            ``checkpoint`` is given; ``"record"`` converts broken cells into
            :class:`CellFailure` rows on the result and keeps sweeping.
        batch_budget_bytes: optional override of the trial-batched array
            engine's chunk byte budget
            (:func:`repro.local.engine.batch_chunk`; the engine's 24 MiB
            cache-residency default when ``None``).  Recorded in the
            journal header as provenance; batch-size invariance makes it
            a pure throughput knob — rows are identical for every budget.

    Returns:
        A :class:`SweepResult` (a ``list`` of one :class:`SweepPoint` per
        (value, algorithm) combination with at least one finished trial, in
        order) whose ``failures`` lists the recorded broken cells.
    """
    if on_error not in ("raise", "record"):
        raise ValueError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    spec: Dict[str, object] = {
        "parameter": parameter,
        "values": list(values),
        "graph_factory": graph_factory,
        "algorithms": dict(algorithms),
        "trials": trials,
        "seed": seed,
        "max_rounds": max_rounds,
        "validate": validate,
        "engine": engine,
        "faults": faults,
        "cell_timeout": cell_timeout,
        "on_error": on_error,
        "batch_budget": batch_budget_bytes,
    }
    journal = _Journal(checkpoint, spec) if checkpoint is not None else None
    try:
        aggregation = _Aggregation()
        if journal is not None:
            aggregation.fold(journal.cells())
        # Cells with a committed ok row are done; recorded failures re-run.
        remaining = [
            (index, name, trial)
            for index in range(len(values))
            for name in algorithms
            for trial in range(trials)
            if (index, name, trial) not in aggregation.folded
        ]

        def consume(rows: List[Dict[str, object]], error: Optional[Exception]) -> None:
            # A call of its own, so that a task's rows are freed once folded,
            # before the next task runs.
            if journal is not None:
                for row in rows:
                    journal.record(row)
            aggregation.fold(rows)
            if error is not None:
                raise error

        cache: Optional[_ValueCache] = None
        for task in _tasks(spec, remaining):
            if cache is None or cache.index != task[0]:
                # Tasks are index-major: the previous value's network and
                # runner are done with.
                cache = _ValueCache(task[0], Runner(max_rounds=int(max_rounds)))
            consume(*_execute(spec, task, cache))
        return aggregation.result(spec)
    finally:
        if journal is not None:
            journal.close()


# ---------------------------------------------------------------------- #
# Cells
# ---------------------------------------------------------------------- #
#
# A cell is one (value index, algorithm name, trial) triple; its seed is the
# trial_seed schedule run_trials uses, which is what makes an uninterrupted
# sweep and a sweep resumed from its checkpoint produce identical
# measurements.  Cell results travel as plain dict rows — "ok" rows carry
# the flat completion-time buffers that CompletionTotals folds, "failure"
# rows the classify_failure slug — so the same row format serves the journal
# (whose columns are the row keys) and the aggregation step.
#
# A task is one (value index, algorithm name, trials) group of cells, built
# by _tasks.  _execute runs a task and is the only code that runs cells;
# sweep() calls it for each task in order, with the _ValueCache of the
# task's value.

CellKey = Tuple[int, str, int]
Task = Tuple[int, str, Tuple[int, ...]]


@dataclass
class _ValueCache:
    """What the tasks of one swept value share: the value's network, built
    on first use, and one :class:`Runner`, whose node pool its node-engine
    trials reuse instead of rebuilding n node runtimes per trial.
    ``sweep()`` replaces the cache when its tasks reach the next value,
    which frees both."""

    index: int
    runner: Runner
    network: Optional[Network] = None


def _cell_key(row: Mapping[str, object]) -> CellKey:
    return (row["value_index"], row["algorithm"], row["trial"])  # type: ignore[return-value]


#: The cell seed rule, as a service job's provenance states it.
CELL_SEED_RULE = "trial_seed(seed + 1000 * value_index, trial)"


def cell_seed(seed: int, index: int, trial: int) -> int:
    """The seed of trial ``trial`` at value index ``index`` of a sweep
    seeded ``seed`` (:data:`CELL_SEED_RULE`)."""
    return trial_seed(seed + 1000 * index, trial)


def network_seed(seed: int, index: int) -> int:
    """The identifier seed of value index ``index``'s network in a sweep
    seeded ``seed``."""
    return seed + index


def _cell_network(spec: Dict[str, object], cache: _ValueCache) -> Network:
    if cache.network is None:
        index = cache.index
        graph = spec["graph_factory"](spec["values"][index])  # type: ignore[operator, index]
        cache.network = resolve_network(graph, seed=network_seed(int(spec["seed"]), index))
    return cache.network


def _narrow(times: np.ndarray) -> np.ndarray:
    """``times`` as uint16 when its maximum fits, else as it is (int64).

    Completion times are rounds: never negative, and bounded by
    ``max_rounds`` (20 000 by default), so a row is narrow unless a sweep
    runs longer than 65 535 rounds.
    """
    if times.size and times.max() > np.iinfo(np.uint16).max:
        return times
    return times.astype(np.uint16)


def _ok_row(
    network: Network, problem: ProblemSpec, index: int, name: str, trial: int, trace
) -> Dict[str, object]:
    row = {
        "status": "ok",
        "value_index": index,
        "algorithm": name,
        "trial": trial,
        "n": network.n,
        "m": network.m,
        "problem": problem.name,
        "algorithm_name": trace.algorithm_name,
        # Narrow numpy buffers: they bind into the journal as BLOBs of
        # 2 B/entry (8 when a time exceeds uint16).
        "node_times": _narrow(trace.node_completion_array()),
        "edge_times": _narrow(trace.edge_completion_array()),
    }
    recovery = getattr(trace, "recovery", None)
    if recovery is not None:
        # Self-stabilising runs carry a per-round recovery timeline; keep it
        # as plain lists so the row fits the journal's JSON column, and the
        # sweep folds restabilisation times exactly like measure() does on a
        # trace.
        row["recovery"] = {
            "crash_rounds": list(recovery.crash_rounds),
            "pending": list(recovery.pending),
            "valid": list(recovery.valid),
        }
    return row


def _grouped_execution(spec: Dict[str, object]) -> bool:
    """Whether a cell's remaining trials may run as one batched ``run_trials``.

    Grouping hands all remaining trials of a ``(value, algorithm)`` cell to a
    single :func:`run_trials` call, which on the array engines steps them as
    one trial-batched execution (:meth:`ArrayEngine.run_batch`), faulted or
    not — same traces, far fewer passes over the topology.  It is restricted
    to configurations where per-trial semantics cannot be observed to
    differ: no ``cell_timeout`` (the budget is defined per trial) and an
    array-capable engine.  Under ``"node"`` nothing is batched, so grouping
    would only hold each trial's journal row until its group ends.
    """
    return (
        int(spec["trials"]) > 1
        and spec["cell_timeout"] is None
        and str(spec["engine"]) in ("array", "auto")
    )


def _tasks(spec: Dict[str, object], cells: Sequence[CellKey]) -> List[Task]:
    """Group ``cells`` into tasks, preserving their order: all of a
    ``(value, algorithm)``'s trials per task under
    :func:`_grouped_execution`, else one trial per task."""
    if not _grouped_execution(spec):
        return [(index, name, (trial,)) for index, name, trial in cells]
    groups: Dict[Tuple[int, str], List[int]] = {}
    for index, name, trial in cells:
        groups.setdefault((index, name), []).append(trial)
    return [(index, name, tuple(trials)) for (index, name), trials in groups.items()]


def _contiguous_runs(trials: Sequence[int]) -> List[List[int]]:
    """Split sorted trial numbers into maximal runs of consecutive integers."""
    runs: List[List[int]] = []
    for trial in sorted(trials):
        if runs and trial == runs[-1][-1] + 1:
            runs[-1].append(trial)
        else:
            runs.append([trial])
    return runs


def _trial_rows(
    spec: Dict[str, object], cache: _ValueCache, name: str, trials: Sequence[int]
) -> List[Dict[str, object]]:
    """Run ``trials`` of one cell as batched runs; one ``ok`` row per trial.

    The per-trial seed schedule is arithmetic (:func:`cell_seed` is
    ``base + trial``), so a maximal run of consecutive trial numbers maps
    onto one ``run_trials(trials=k, seed=cell_seed(.., run[0]))`` call whose
    trial ``i`` receives exactly the seed a run of trial ``run[0] + i``
    alone would use.  Non-consecutive remainders (a checkpoint resumed
    mid-cell) split into several runs — batch-size invariance of the array
    engine makes the rows identical either way.  ``cell_timeout`` bounds
    each call; it is set only when every task holds one trial.  The
    node-engine runs share the value's runner.
    """
    index = cache.index
    network = _cell_network(spec, cache)
    algorithm_factory, problem_factory = spec["algorithms"][name]  # type: ignore[index]
    problem = problem_factory(network)
    rows: List[Dict[str, object]] = []
    for run in _contiguous_runs(trials):
        traces = run_trials(
            lambda: algorithm_factory(network),
            network,
            problem,
            trials=len(run),
            seed=cell_seed(int(spec["seed"]), index, run[0]),
            runner=cache.runner,
            validate=bool(spec["validate"]),
            engine=str(spec["engine"]),
            faults=spec["faults"],  # type: ignore[arg-type]
            timeout_s=spec["cell_timeout"],  # type: ignore[arg-type]
            batch_budget_bytes=spec.get("batch_budget"),  # type: ignore[arg-type]
        )
        for trial, trace in zip(run, traces):
            rows.append(_ok_row(network, problem, index, name, trial, trace))
    return rows


def _execute(
    spec: Dict[str, object], task: Task, cache: _ValueCache
) -> Tuple[List[Dict[str, object]], Optional[Exception]]:
    """Run one task; return its rows in trial order and the error that
    stopped it, if any.

    The trials run batched first.  A batched run cannot attribute its
    failure to one trial, so a failed batch re-runs trial by trial, and
    each failing trial becomes a ``failure`` row carrying its own seed.
    Under ``on_error="raise"`` the first failing trial ends the task: its
    row comes last, and its error is returned beside the rows so that the
    caller journals them before raising it.  Otherwise the error is
    ``None``.
    """
    index, name, trials = task
    if len(trials) > 1:
        try:
            return _trial_rows(spec, cache, name, trials), None
        except Exception:
            pass
    rows: List[Dict[str, object]] = []
    for trial in trials:
        try:
            rows += _trial_rows(spec, cache, name, (trial,))
        except Exception as error:
            rows.append(
                {
                    "status": "failure",
                    "value_index": index,
                    "algorithm": name,
                    "trial": trial,
                    "seed": cell_seed(int(spec["seed"]), index, trial),
                    "kind": classify_failure(error),
                    "message": str(error),
                }
            )
            if spec["on_error"] == "raise":
                return rows, error
    return rows, None


def _timeline(recovery: Optional[Mapping[str, Sequence]]) -> Optional[RecoveryTimeline]:
    """The :class:`RecoveryTimeline` of an ok row's ``recovery`` lists."""
    if recovery is None:
        return None
    return RecoveryTimeline(
        crash_rounds=tuple(int(r) for r in recovery["crash_rounds"]),
        pending=tuple(int(p) for p in recovery["pending"]),
        valid=tuple(bool(v) for v in recovery["valid"]),
    )


class _Aggregation:
    """A sweep's results so far, kept small.

    :meth:`fold` adds each ``ok`` row to the running
    :class:`~repro.core.metrics.CompletionTotals` of its ``(value,
    algorithm)`` and drops it; only the keys of the folded cells and the
    failure rows are kept.  An ``ok`` row may replace nothing or a failure
    (a retried cell), never another ``ok`` row, so no cell counts twice.
    """

    def __init__(self) -> None:
        self.totals: Dict[Tuple[int, str], CompletionTotals] = {}
        self.folded: Set[CellKey] = set()
        self.failed: Dict[CellKey, Dict[str, object]] = {}

    def fold(self, rows: Iterable[Dict[str, object]]) -> None:
        for row in rows:
            key = _cell_key(row)
            if row["status"] != "ok":
                self.failed[key] = row
                continue
            if key in self.folded:
                raise ReproError(f"cell {key} delivered a second ok row")
            self.folded.add(key)
            self.failed.pop(key, None)
            totals = self.totals.get(key[:2])
            if totals is None:
                totals = self.totals[key[:2]] = CompletionTotals(key[1], str(row["problem"]))
            totals.add(
                row["node_times"],  # type: ignore[arg-type]
                row["edge_times"],  # type: ignore[arg-type]
                _timeline(row.get("recovery")),  # type: ignore[arg-type]
            )

    def result(self, spec: Dict[str, object]) -> SweepResult:
        """The points (per value × algorithm) and failures, in sweep order."""
        parameter = str(spec["parameter"])
        values: List[object] = spec["values"]  # type: ignore[assignment]
        algorithms: Dict[str, object] = spec["algorithms"]  # type: ignore[assignment]
        points: List[SweepPoint] = []
        failures: List[CellFailure] = []
        for index, value in enumerate(values):
            for name in algorithms:
                for trial in range(int(spec["trials"])):  # type: ignore[arg-type]
                    row = self.failed.get((index, name, trial))
                    if row is not None:
                        failures.append(
                            CellFailure(
                                parameter=parameter,
                                value=value,
                                algorithm=name,
                                trial=trial,
                                seed=int(row["seed"]),  # type: ignore[arg-type]
                                kind=str(row["kind"]),
                                message=str(row["message"]),
                            )
                        )
                totals = self.totals.get((index, name))
                if totals is not None:
                    points.append(SweepPoint(parameter, value, totals.measurement()))
        return SweepResult(points, failures)


# ---------------------------------------------------------------------- #
# The sqlite journal
# ---------------------------------------------------------------------- #
#
# A journal is one ``journals`` row (the header identifying the sweep, and
# the pid and start time of its single live writer) plus one
# ``journal_cells`` row per finished cell under the journal's key.  Several
# journals may share one database: the experiment service keys each job's
# journal by the job id inside its result store, which reads the header and
# the cells through the helpers below.

#: Tables of the journal; the result store creates them in its database.
_JOURNAL_DDL = """
CREATE TABLE IF NOT EXISTS journals (
    key          TEXT PRIMARY KEY,
    header       TEXT NOT NULL,
    writer_pid   INTEGER,
    writer_start INTEGER
);
CREATE TABLE IF NOT EXISTS journal_cells (
    journal        TEXT NOT NULL,
    value_index    INTEGER NOT NULL,
    algorithm      TEXT NOT NULL,
    trial          INTEGER NOT NULL,
    status         TEXT NOT NULL,
    n              INTEGER,
    m              INTEGER,
    problem        TEXT,
    algorithm_name TEXT,
    node_times     BLOB,
    edge_times     BLOB,
    recovery       TEXT,
    seed           INTEGER,
    kind           TEXT,
    message        TEXT,
    PRIMARY KEY (journal, value_index, algorithm, trial)
);
"""

#: The ``journal_cells`` columns after ``journal``: the keys of a cell row.
_CELL_COLUMNS = (
    "value_index", "algorithm", "trial", "status", "n", "m", "problem",
    "algorithm_name", "node_times", "edge_times", "recovery", "seed", "kind",
    "message",
)
_INSERT_CELL = (
    f"INSERT OR REPLACE INTO journal_cells (journal, {', '.join(_CELL_COLUMNS)}) "
    f"VALUES ({', '.join(['?'] * (1 + len(_CELL_COLUMNS)))})"
)

#: Header fields that identify a sweep: a stored header that differs in any
#: of them belongs to a different sweep.  A stored header without a field
#: reads it as ``None``: journals written before ``faults`` was recorded
#: hold fault-free sweeps, and still resume as such.
_IDENTITY = ("parameter", "values", "algorithms", "trials", "seed", "engine", "faults")


def _schedule_header(faults: Optional[FaultSchedule]) -> Optional[Dict[str, object]]:
    """The canonical JSON form of a fault schedule (``None`` when inert,
    as the engines treat an empty schedule)."""
    if faults is None or not faults.active:
        return None
    return {
        "crashes": sorted([vertex, at] for vertex, at in faults.crashes.items()),  # type: ignore[union-attr]
        "drop_rate": faults.drop_rate,  # type: ignore[union-attr]
        "delay_rate": faults.delay_rate,  # type: ignore[union-attr]
        "seed": faults.seed,  # type: ignore[union-attr]
    }


def _header(spec: Dict[str, object]) -> Dict[str, object]:
    return {
        "format": CHECKPOINT_FORMAT,
        "parameter": spec["parameter"],
        "values": [repr(v) for v in spec["values"]],  # type: ignore[union-attr]
        "algorithms": sorted(spec["algorithms"]),  # type: ignore[arg-type]
        "trials": spec["trials"],
        "seed": spec["seed"],
        "engine": spec["engine"],
        "faults": _schedule_header(spec.get("faults")),  # type: ignore[arg-type]
        # Provenance only, absent from _IDENTITY: batch-size invariance makes
        # rows identical under every chunk budget, so a journal written under
        # one budget may be resumed under another.  (Older headers also carry
        # a provenance-only "parallel" field; it is never compared, so they
        # resume too.)
        "batch_budget": spec.get("batch_budget"),
    }


def _journal_header(
    db: sqlite3.Connection, key: object, where: str
) -> Optional[Dict[str, object]]:
    """The format-checked header of journal ``key``, or ``None`` if absent."""
    found = db.execute(
        "SELECT header FROM journals WHERE key = ?", (str(key),)
    ).fetchone()
    if found is None:
        return None
    header = json.loads(found[0])
    if header.get("format") not in (CHECKPOINT_FORMAT, schemas.SWEEP_CHECKPOINT_V2):
        raise ValueError(
            f"{where} has checkpoint format {header.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT!r}"
        )
    return header


def _encode_cell(key: str, row: Mapping[str, object]) -> List[object]:
    """The ``journal_cells`` values of a row; time arrays bind as BLOBs."""
    recovery = row.get("recovery")
    encoded = {**row, "recovery": None if recovery is None else json.dumps(recovery)}
    return [key] + [encoded.get(column) for column in _CELL_COLUMNS]


#: Completion-time BLOB item dtypes by width: v3's narrow rows, and the
#: int64 rows of v2 and of v3 rows too wide for uint16.
_BLOB_DTYPES = {2: np.uint16, 8: np.int64}


def _widened(blob: bytes, count: int) -> np.ndarray:
    """A completion-time BLOB of ``count`` entries as an int64 array; its
    item width is ``len(blob) // count``."""
    width = len(blob) // count if count else 8
    return np.frombuffer(blob, dtype=_BLOB_DTYPES[width]).astype(np.int64, copy=False)


def _journal_cells(
    db: sqlite3.Connection, key: object, status: Optional[str] = None
) -> Iterator[Dict[str, object]]:
    """The committed rows of journal ``key`` in cell order, optionally of
    one ``status``, one at a time; completion times widened to int64."""
    query = f"SELECT {', '.join(_CELL_COLUMNS)} FROM journal_cells WHERE journal = ?"
    params = [str(key)]
    if status is not None:
        query += " AND status = ?"
        params.append(status)
    for values in db.execute(query + " ORDER BY value_index, algorithm, trial", params):
        row = dict(zip(_CELL_COLUMNS, values))
        if row["status"] == "ok":
            row["node_times"] = _widened(row["node_times"], row["n"])
            row["edge_times"] = _widened(row["edge_times"], row["m"])
            if row["recovery"] is not None:
                row["recovery"] = json.loads(row["recovery"])
        yield row


def read_checkpoint(
    path: str,
) -> Tuple[Dict[str, object], Dict[CellKey, Dict[str, object]]]:
    """Read the journal of ``sweep(checkpoint=path)``: ``(header, rows)``.

    ``rows`` maps ``(value index, algorithm name, trial)`` to the committed
    cell row, completion times widened to int64 arrays (a v2 journal reads
    too).  A row whose transaction never committed (the writer died
    mid-row) is absent.  No claim is taken: readers never conflict with a
    live writer, whose rows commit one transaction each.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no journal database at {path}")
    db = sqlite3.connect(path, timeout=30.0)
    try:
        try:
            header = _journal_header(db, _DEFAULT_KEY, path)
        except sqlite3.DatabaseError:  # not a database, or no journals in it
            header = None
        if header is None:
            raise ValueError(f"{path} holds no {CHECKPOINT_FORMAT} sweep journal")
        return header, {_cell_key(row): row for row in _journal_cells(db, _DEFAULT_KEY)}
    finally:
        db.close()


class _Journal:
    """The sqlite journal of one sweep's finished cells.

    Opening validates the stored header against the current sweep and
    takes the writer claim, in one ``BEGIN IMMEDIATE`` transaction that
    also re-stamps a ``v2`` header as the current format.  :meth:`cells`
    then yields the committed rows; the caller skips cells whose ``ok``
    rows it has and retries recorded failures.  :meth:`record` commits each
    new row in its own transaction (a retried cell's row replaces the
    failure it retries), so a killed process loses at most the cell it was
    computing.

    The journal is single-writer.  The claim is the ``writer_pid`` and
    ``writer_start`` of the journal's header row: a second writer that
    finds that process alive gets a :class:`~repro.core.errors.CheckpointLocked`
    error instead of silently interleaving rows, and the claim of a writer
    that no longer exists (SIGKILLed before :meth:`close`) is stolen, so a
    dead writer never wedges the journal — even after its pid was reused,
    since the start time tells the new process apart (:func:`_pid_alive`).
    """

    def __init__(self, checkpoint: Checkpoint, spec: Dict[str, object]) -> None:
        database, key = (
            checkpoint if isinstance(checkpoint, tuple) else (checkpoint, _DEFAULT_KEY)
        )
        self.key = str(key)
        self.where = f"journal {self.key!r} in {database}"
        self._db = sqlite3.connect(database, timeout=30.0)
        try:
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.executescript(_JOURNAL_DDL)
            self._claim(_header(spec))
        except BaseException:
            # A failed claim rolled back, so only the connection is ours.
            self._db.close()
            raise

    def _claim(self, header: Dict[str, object]) -> None:
        db = self._db
        writer = (os.getpid(), _process_start(os.getpid()))
        with db:
            db.execute("BEGIN IMMEDIATE")
            stored = _journal_header(db, self.key, self.where)
            if stored is None:
                db.execute(
                    "INSERT INTO journals (key, header, writer_pid, writer_start) "
                    "VALUES (?, ?, ?, ?)",
                    (self.key, json.dumps(header, sort_keys=True), *writer),
                )
                return
            holder, started = db.execute(
                "SELECT writer_pid, writer_start FROM journals WHERE key = ?", (self.key,)
            ).fetchone()
            if holder is not None and _pid_alive(holder, started):
                raise CheckpointLocked(
                    f"{self.where} is held by live writer pid {holder}; two "
                    "sweeps must never share one journal — pass a distinct "
                    "checkpoint"
                )
            mismatched = [field for field in _IDENTITY if stored.get(field) != header[field]]
            if mismatched:
                raise ValueError(
                    f"{self.where} belongs to a different sweep (mismatched "
                    f"{', '.join(mismatched)}); delete it or pass another checkpoint"
                )
            # A v2 journal is re-stamped before any narrow row joins it, so
            # that a v2 writer refuses to resume it instead of misreading
            # those rows.
            db.execute(
                "UPDATE journals SET header = ?, writer_pid = ?, writer_start = ? "
                "WHERE key = ?",
                (
                    json.dumps({**stored, "format": CHECKPOINT_FORMAT}, sort_keys=True),
                    *writer,
                    self.key,
                ),
            )

    def cells(self) -> Iterator[Dict[str, object]]:
        """The committed rows, one at a time (see :func:`_journal_cells`)."""
        return _journal_cells(self._db, self.key)

    def record(self, row: Dict[str, object]) -> None:
        """Commit ``row`` in its own transaction, then fire the test hook."""
        with self._db:
            self._db.execute(_INSERT_CELL, _encode_cell(self.key, row))
        if _test_hook is not None:
            _test_hook(row)

    def close(self) -> None:
        """Release the writer claim and the connection (idempotent)."""
        db, self._db = self._db, None
        if db is None:
            return
        try:
            with db:
                db.execute(
                    "UPDATE journals SET writer_pid = NULL, writer_start = NULL "
                    "WHERE key = ? AND writer_pid = ?",
                    (self.key, os.getpid()),
                )
        finally:
            db.close()


def _process_start(pid: int) -> Optional[int]:
    """Start time of process ``pid`` in clock ticks since boot (field 22 of
    ``/proc/<pid>/stat``), or ``None`` where procfs cannot tell."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as stat:
            # The command name (field 2) may hold spaces and parentheses.
            return int(stat.read().rsplit(b")", 1)[1].split()[19])
    except (OSError, IndexError, ValueError):
        return None


def _pid_alive(pid: int, started: Optional[int] = None) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe).

    With ``started`` (the :func:`_process_start` recorded alongside the
    pid), a live process that started at another time is a later process
    that reused the pid, and the recorded one counts as dead.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):  # pragma: no cover - exists, not ours
        pass
    if started is None:
        return True
    current = _process_start(pid)
    return current is None or current == started
