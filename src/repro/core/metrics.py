"""Averaged complexity measures (Definition 1 and Appendix A of the paper).

Given one or several :class:`~repro.core.trace.ExecutionTrace` objects
(several traces of the same algorithm on the same graph correspond to the
expectation over the algorithm's randomness), this module computes:

* the **node-averaged complexity** ``AVG_V`` — average over nodes of the
  expected completion time,
* the **edge-averaged complexity** ``AVG_E`` — average over edges of the
  expected completion time,
* the **weighted** node-averaged complexity ``AVG^w_V`` of Appendix A,
* the **node expected complexity** ``EXP_V`` of Appendix A — the maximum
  over nodes of the expected completion time (its edge twin ``EXP_E`` is
  the ``edge_expected`` field of :func:`measure`),
* the **worst-case complexity** — maximum completion time over everything,
* **quantiles** of the expected completion-time distribution
  (:func:`completion_time_quantiles`) — the tail view the averaged measures
  compress away.

The paper's chain of inequalities (Appendix A)

    ``AVG_V(P) ≤ AVG^w_V(P) ≤ EXP_V(P) ≤ WORST_V(P)``

holds per graph for the worst-case weight distribution; the helper
:func:`complexity_hierarchy` reports all four measured quantities so the
benchmarks can verify the chain empirically (with the weighted value computed
for a caller-supplied or worst-case-per-node weighting).

Implementation.  Every reduction runs over numpy int64/float64 arrays and
consumes the trace's flat per-slot storage directly
(:meth:`ExecutionTrace.node_completion_array` /
:meth:`~ExecutionTrace.edge_completion_array`), so there is no per-node
Python loop anywhere on the measurement path — the layer that made
million-node measurement batches feasible.  Trials are folded one at a time
into a :class:`CompletionTotals`, which keeps only integer reductions (int64
per-entity sums, the trial count, the worst case, restabilisation counts)
and divides once; :func:`measure`, the other public reductions and the
sweep's streamed aggregation of journaled cells all go through it.  Sums of
integers are exact in float64, so the expected-time vectors are
bit-identical to a trial-by-trial float64 accumulation in any arrival order;
the final scalar means use numpy's pairwise summation and may differ from
``statistics.mean`` in the last ulp (the differential tests in
``tests/core/test_metrics_numpy.py`` pin agreement to ≤ 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.trace import ExecutionTrace

__all__ = [
    "node_averaged_complexity",
    "edge_averaged_complexity",
    "worst_case_complexity",
    "weighted_node_averaged_complexity",
    "node_expected_complexity",
    "completion_time_quantiles",
    "ComplexityMeasurement",
    "RecoveryTimeline",
    "RecoveryRecorder",
    "CompletionTotals",
    "measure",
    "complexity_hierarchy",
]

#: Quantile levels reported by :func:`measure` when asked for quantiles.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


def _as_list(traces: "ExecutionTrace | Iterable[ExecutionTrace]") -> List[ExecutionTrace]:
    if isinstance(traces, ExecutionTrace):
        return [traces]
    traces = list(traces)
    if not traces:
        raise ValueError("at least one execution trace is required")
    return traces


def _totals(traces: "ExecutionTrace | Iterable[ExecutionTrace]") -> "CompletionTotals":
    """The :class:`CompletionTotals` of ``traces``, folded in order."""
    ts = _as_list(traces)
    totals = CompletionTotals(ts[0].algorithm_name, ts[0].problem.name)
    for trace in ts:
        totals.add_trace(trace)
    return totals


def _quantile_pairs(
    expected: np.ndarray, quantiles: Sequence[float]
) -> Tuple[Tuple[float, float], ...]:
    """Validated ``(level, value)`` quantile pairs of an expected-time vector.

    The single quantile implementation shared by :func:`measure` and
    :func:`completion_time_quantiles`; empty vectors (e.g. edge quantiles on
    an edgeless graph) report 0.0 at every level.
    """
    levels = [float(q) for q in quantiles]
    if any(not 0.0 <= q <= 1.0 for q in levels):
        raise ValueError("quantile levels must lie in [0, 1]")
    if expected.size == 0:
        return tuple((q, 0.0) for q in levels)
    values = np.quantile(expected, levels)
    return tuple((q, float(value)) for q, value in zip(levels, values))


def _mean(expected: np.ndarray) -> float:
    return float(expected.mean()) if expected.size else 0.0


def _max(expected: np.ndarray) -> float:
    return float(expected.max()) if expected.size else 0.0


# ---------------------------------------------------------------------- #
# Definition 1
# ---------------------------------------------------------------------- #


def node_averaged_complexity(traces: "ExecutionTrace | Iterable[ExecutionTrace]") -> float:
    """``AVG_V``: average over nodes of the expected completion time."""
    return _mean(_totals(traces).expected_node_times())


def edge_averaged_complexity(traces: "ExecutionTrace | Iterable[ExecutionTrace]") -> float:
    """``AVG_E``: average over edges of the expected completion time."""
    return _mean(_totals(traces).expected_edge_times())


def worst_case_complexity(traces: "ExecutionTrace | Iterable[ExecutionTrace]") -> int:
    """Maximum completion time over all trials, nodes and edges."""
    return _totals(traces).worst_case


# ---------------------------------------------------------------------- #
# Appendix A notions
# ---------------------------------------------------------------------- #


def weighted_node_averaged_complexity(
    traces: "ExecutionTrace | Iterable[ExecutionTrace]",
    weights: Optional[Mapping[int, float]] = None,
) -> float:
    """``AVG^w_V``: weighted average of expected node completion times.

    When ``weights`` is omitted the *worst-case* weight distribution is used:
    all weight is placed on the slowest node, which makes the weighted value
    coincide with the node expected complexity (the supremum over weight
    distributions, as in Appendix A).
    """
    expected = _totals(traces).expected_node_times()
    if expected.size == 0:
        return 0.0
    if weights is None:
        return _max(expected)
    w = np.zeros(expected.size, dtype=np.float64)
    for v, weight in weights.items():
        if 0 <= v < expected.size:
            w[v] = weight
    total = float(w.sum())
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    return float(w @ expected) / total


def node_expected_complexity(traces: "ExecutionTrace | Iterable[ExecutionTrace]") -> float:
    """``EXP_V``: maximum over nodes of the expected completion time."""
    return _max(_totals(traces).expected_node_times())


def completion_time_quantiles(
    traces: "ExecutionTrace | Iterable[ExecutionTrace]",
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    entity: str = "node",
) -> Dict[float, float]:
    """Quantiles of the expected completion-time distribution.

    ``entity`` selects the node (``"node"``) or edge (``"edge"``) vector; the
    quantiles are numpy's linear-interpolation quantiles over the expected
    (per-trial averaged) completion times.  Empty vectors (e.g. edge
    quantiles on an edgeless graph) report 0.0 at every level.
    """
    if entity == "node":
        expected = _totals(traces).expected_node_times()
    elif entity == "edge":
        expected = _totals(traces).expected_edge_times()
    else:
        raise ValueError(f"entity must be 'node' or 'edge', got {entity!r}")
    return dict(_quantile_pairs(expected, quantiles))


# ---------------------------------------------------------------------- #
# Self-stabilisation recovery metrics
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class RecoveryTimeline:
    """Per-round recovery bookkeeping of one self-stabilising execution.

    Recorded by the engines for algorithms with
    ``self_stabilizing = True`` and attached to the trace as
    ``trace.recovery``.  Entry ``i`` of :attr:`pending` / :attr:`valid`
    describes the configuration **after executing round ``i + 1``**:

    * ``pending[i]`` — required outputs still undecided among the survivors
      (0 means the configuration is output-complete for the survivors),
    * ``valid[i]`` — whether the configuration is *strictly* valid on the
      induced survivor subnetwork (:meth:`~repro.core.problems.ProblemSpec.
      validate_induced`).  Always ``False`` while ``pending[i] > 0``;
      validity is only evaluated on survivor-complete configurations, and
      deliberately never credits commitments of crashed nodes — recovery
      must be earned by the survivors alone.

    :attr:`crash_rounds` lists the distinct (ascending) rounds at which
    crash faults landed; each opens a *fault epoch* that ends just before
    the next crash round (or at the end of the run).
    """

    crash_rounds: Tuple[int, ...]
    pending: Tuple[int, ...]
    valid: Tuple[bool, ...]

    def time_to_restabilize(self) -> Tuple[Optional[int], ...]:
        """Rounds needed to regain survivor-validity after each crash epoch.

        For a crash landing at round ``c`` (next crash at ``c'``), the
        recovery time is ``r - c`` for the first round ``r`` with
        ``c ≤ r < c'`` whose configuration is valid, or ``None`` when the
        epoch never restabilised before the next crash (or the run ended).
        A value of ``0`` means the configuration was already valid again at
        the end of the crash round itself.
        """
        out: List[Optional[int]] = []
        crash_rounds = self.crash_rounds
        horizon = len(self.valid) + 1  # rounds are 1-based; valid[r-1] = after round r
        for k, c in enumerate(crash_rounds):
            end = crash_rounds[k + 1] if k + 1 < len(crash_rounds) else horizon
            time: Optional[int] = None
            for r in range(c, end):
                if 1 <= r <= len(self.valid) and self.valid[r - 1]:
                    time = r - c
                    break
            out.append(time)
        return tuple(out)

    @property
    def epochs(self) -> int:
        """Number of fault epochs (distinct crash rounds)."""
        return len(self.crash_rounds)


class RecoveryRecorder:
    """Builds the :class:`RecoveryTimeline` of one run, round by round.

    Both engines use it for self-stabilising runs.  ``final_crash`` is the
    schedule's last crash round: such a run may not complete before it.
    :meth:`record` appends one round's entry.  An entry is a function of
    the outputs, the commit masks and the alive mask alone, so a round in
    which none of them changed (``changed=False``) and no crash landed
    reuses the previous entry; the engine's ``entry`` callback — build the
    arrays, count the pending outputs, validate — runs only on rounds that
    changed something.
    """

    __slots__ = ("final_crash", "_crash_rounds", "_pending", "_valid")

    def __init__(self, crashes: Mapping[int, int]) -> None:
        self.final_crash = max(crashes.values(), default=0)
        self._crash_rounds: List[int] = []
        self._pending: List[int] = []
        self._valid: List[bool] = []

    def record(
        self,
        round_index: int,
        crashed: bool,
        changed: bool,
        entry: Callable[[], Tuple[int, bool]],
    ) -> None:
        """Append round ``round_index``'s ``(pending, valid)`` entry."""
        if crashed:
            self._crash_rounds.append(round_index)
        if crashed or changed or not self._pending:
            pending, valid = entry()
        else:
            pending, valid = self._pending[-1], self._valid[-1]
        self._pending.append(pending)
        self._valid.append(valid)

    def timeline(self) -> RecoveryTimeline:
        """The timeline of the rounds recorded so far."""
        return RecoveryTimeline(
            crash_rounds=tuple(self._crash_rounds),
            pending=tuple(self._pending),
            valid=tuple(self._valid),
        )


# ---------------------------------------------------------------------- #
# Bundled measurement
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ComplexityMeasurement:
    """All complexity measures of one algorithm on one graph (over trials).

    The quantile fields are optional extras (filled when :func:`measure` is
    asked for them) and excluded from equality so that measurements with and
    without quantiles of the same execution still compare equal.  The
    recovery fields are filled only when the measured traces carry
    :class:`RecoveryTimeline` records (self-stabilising executions) and are
    likewise excluded from equality.
    """

    algorithm: str
    problem: str
    n: int
    m: int
    trials: int
    node_averaged: float
    edge_averaged: float
    node_expected: float
    edge_expected: float
    worst_case: int
    node_quantiles: Tuple[Tuple[float, float], ...] = field(default=(), compare=False)
    edge_quantiles: Tuple[Tuple[float, float], ...] = field(default=(), compare=False)
    #: Total fault epochs across all measured traces (None = no recovery data).
    recovery_epochs: Optional[int] = field(default=None, compare=False)
    #: Mean rounds-to-restabilise over the recovered epochs (None when no
    #: epoch recovered or no recovery data).
    mean_time_to_restabilize: Optional[float] = field(default=None, compare=False)
    #: Worst rounds-to-restabilise over the recovered epochs.
    max_time_to_restabilize: Optional[int] = field(default=None, compare=False)
    #: Epochs that never regained survivor-validity before the next crash
    #: (or the end of the run).
    unrecovered_epochs: Optional[int] = field(default=None, compare=False)

    def as_dict(self) -> Dict[str, object]:
        """Dictionary form, convenient for table rendering."""
        record: Dict[str, object] = {
            "algorithm": self.algorithm,
            "problem": self.problem,
            "n": self.n,
            "m": self.m,
            "trials": self.trials,
            "node_averaged": round(self.node_averaged, 3),
            "edge_averaged": round(self.edge_averaged, 3),
            "node_expected": round(self.node_expected, 3),
            "edge_expected": round(self.edge_expected, 3),
            "worst_case": self.worst_case,
        }
        for prefix, pairs in (("node_q", self.node_quantiles), ("edge_q", self.edge_quantiles)):
            for level, value in pairs:
                record[f"{prefix}{level:g}"] = round(value, 3)
        if self.recovery_epochs is not None:
            record["recovery_epochs"] = self.recovery_epochs
            record["unrecovered_epochs"] = self.unrecovered_epochs
            if self.mean_time_to_restabilize is not None:
                record["mean_time_to_restabilize"] = round(
                    self.mean_time_to_restabilize, 3
                )
            if self.max_time_to_restabilize is not None:
                record["max_time_to_restabilize"] = self.max_time_to_restabilize
        return record


class CompletionTotals:
    """Running integer totals of one algorithm's trials on one network.

    Each trial is folded in as it arrives — an :class:`ExecutionTrace`
    through :meth:`add_trace`, or bare completion-time rows (a sweep's cell
    rows, of any integer dtype) through :meth:`add` — and nothing of it is
    kept but integer reductions: int64 per-node and per-edge sums, the trial
    count, the worst case (the max over trials of each trial's node and
    edge maxima) and, for self-stabilising trials, the fault epochs and the
    count, sum and max of their restabilisation times.  None of these
    depends on the order of the trials, and :meth:`measurement` divides
    once (``sums.astype(float64) / trials``), so a measurement is
    bit-identical in any arrival order.
    """

    def __init__(self, algorithm: str, problem: str) -> None:
        self.algorithm = algorithm
        self.problem = problem
        self.trials = 0
        self.node_sums = np.zeros(0, dtype=np.int64)
        self.edge_sums = np.zeros(0, dtype=np.int64)
        self.worst_case = 0
        #: Fault epochs over the trials (``None``: no trial had a timeline).
        self.recovery_epochs: Optional[int] = None
        self.recovered = 0
        self.recovered_sum = 0
        self.recovered_max = 0

    def add(
        self,
        node_times: np.ndarray,
        edge_times: np.ndarray,
        recovery: Optional[RecoveryTimeline] = None,
    ) -> None:
        """Fold one trial's completion times and its recovery timeline."""
        if not self.trials:
            self.node_sums = np.zeros(len(node_times), dtype=np.int64)
            self.edge_sums = np.zeros(len(edge_times), dtype=np.int64)
        elif (len(node_times), len(edge_times)) != (self.node_sums.size, self.edge_sums.size):
            raise ValueError("all traces must come from executions on the same network")
        self.node_sums += node_times
        self.edge_sums += edge_times
        self.worst_case = max(
            self.worst_case,
            int(np.max(node_times, initial=0)),
            int(np.max(edge_times, initial=0)),
        )
        self.trials += 1
        if recovery is not None:
            times = recovery.time_to_restabilize()
            recovered = [t for t in times if t is not None]
            self.recovery_epochs = (self.recovery_epochs or 0) + len(times)
            self.recovered += len(recovered)
            self.recovered_sum += sum(recovered)
            self.recovered_max = max([self.recovered_max, *recovered])

    def add_trace(self, trace: ExecutionTrace) -> None:
        """Fold one execution trace."""
        self.add(
            trace.node_completion_array(), trace.edge_completion_array(), trace.recovery
        )

    def _expected(self, sums: np.ndarray) -> np.ndarray:
        if not self.trials:
            raise ValueError("at least one execution trace is required")
        return sums.astype(np.float64) / self.trials

    def expected_node_times(self) -> np.ndarray:
        """Per-node expected completion times (float64)."""
        return self._expected(self.node_sums)

    def expected_edge_times(self) -> np.ndarray:
        """Per-edge expected completion times (float64)."""
        return self._expected(self.edge_sums)

    def measurement(
        self, quantiles: Optional[Sequence[float]] = None
    ) -> ComplexityMeasurement:
        """Every complexity measure of the trials folded so far."""
        expected_nodes = self.expected_node_times()
        expected_edges = self.expected_edge_times()
        node_quantiles: Tuple[Tuple[float, float], ...] = ()
        edge_quantiles: Tuple[Tuple[float, float], ...] = ()
        if quantiles is not None:
            node_quantiles = _quantile_pairs(expected_nodes, quantiles)
            edge_quantiles = _quantile_pairs(expected_edges, quantiles)
        unrecovered = mean_restab = max_restab = None
        if self.recovery_epochs is not None:
            unrecovered = self.recovery_epochs - self.recovered
            if self.recovered:
                mean_restab = float(self.recovered_sum) / self.recovered
                max_restab = self.recovered_max
        return ComplexityMeasurement(
            algorithm=self.algorithm,
            problem=self.problem,
            n=expected_nodes.size,
            m=expected_edges.size,
            trials=self.trials,
            node_averaged=_mean(expected_nodes),
            edge_averaged=_mean(expected_edges),
            node_expected=_max(expected_nodes),
            edge_expected=_max(expected_edges),
            worst_case=self.worst_case,
            node_quantiles=node_quantiles,
            edge_quantiles=edge_quantiles,
            recovery_epochs=self.recovery_epochs,
            mean_time_to_restabilize=mean_restab,
            max_time_to_restabilize=max_restab,
            unrecovered_epochs=unrecovered,
        )


def measure(
    traces: "ExecutionTrace | Iterable[ExecutionTrace]",
    quantiles: Optional[Sequence[float]] = None,
) -> ComplexityMeasurement:
    """Compute every complexity measure for a collection of traces.

    The traces are folded into one :class:`CompletionTotals`, whose
    expected completion-time vectors are computed once (as float64 numpy
    arrays) and shared by the averaged, expected and quantile measures —
    they are pure reductions of the same vectors, which matters when
    measuring million-node graphs.  Pass ``quantiles`` (e.g.
    ``DEFAULT_QUANTILES``) to additionally record completion-time quantiles
    in the measurement.
    """
    return _totals(traces).measurement(quantiles)


def complexity_hierarchy(
    traces: "ExecutionTrace | Iterable[ExecutionTrace]",
    node_weights: Optional[Mapping[int, float]] = None,
) -> Dict[str, float]:
    """The Appendix A chain ``AVG_V ≤ AVG^w_V ≤ EXP_V ≤ WORST_V`` for node measures.

    Returns a dictionary with keys ``avg``, ``weighted_avg``, ``expected`` and
    ``worst``; with the default (worst-case) weighting, ``weighted_avg`` equals
    ``expected`` and the chain is guaranteed to be monotone.
    """
    ts = _as_list(traces)
    return {
        "avg": node_averaged_complexity(ts),
        "weighted_avg": weighted_node_averaged_complexity(ts, node_weights),
        "expected": node_expected_complexity(ts),
        "worst": float(worst_case_complexity(ts)),
    }
