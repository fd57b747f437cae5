"""Vectorised array-native execution engine for the LOCAL-model round loop.

The per-node :class:`~repro.local.runner.Runner` simulates every node as a
Python coroutine: at ``n = 10⁶`` the round loop is ~60 s of a ~65 s pipeline
even after every other phase went array-native.  :class:`ArrayEngine` removes
that last per-node cost for algorithms that implement the
:class:`ArrayAlgorithm` protocol: a round is executed as a handful of numpy
operations over flat per-node/per-edge state arrays and the network's CSR
topology (``indptr``/``indices`` plus the canonical ``edge_endpoints()``
arrays) — no :class:`~repro.local.node.NodeRuntime`, no inbox dicts, no
per-node generator frames.

Relation to the coroutine runner (the relaxed trace-identity story).  The
coroutine path stays the **exact reference**: its traces remain seed-for-seed
bit-identical to the vendored seed pipeline, as asserted by
``benchmarks/core_perf.py``.  The array engine mirrors the precedent set by
:func:`repro.graphs.generators.fast_gnp_edges`: exact RNG-stream parity with
the per-node Mersenne path is mathematically impossible (one block-generated
PCG64 stream cannot replay ``n`` interleaved per-node Mersenne streams), so
the engine has its **own documented seed schedule** and is pinned by

* validator-verified outputs (every engine trace passes the problem kernels),
* identical round-stamp *semantics* (commit rounds, message counts and
  completion rounds follow exactly the coroutine timeline for the same
  decisions — see the algorithm classes for the round-by-round derivations),
* round-distribution agreement with the coroutine twin over exhaustive
  small-seed sweeps, plus statistical tests (``tests/local/test_engine.py``),
* a pinned fixed-seed execution so the schedule cannot silently drift.

Seed schedule.  All engine randomness for one run comes from a single
``numpy.random.Generator(numpy.random.PCG64(seed))`` (``seed`` is the run's
master seed, exactly the argument the coroutine runner feeds
``random.Random``).  Algorithms draw **one block of uniforms per randomised
round**, sized to the still-undecided entities of that round and assigned in
ascending vertex / canonical-edge-slot order:

* Luby MIS: phase ``k`` (rounds ``2k−1``/``2k``) draws ``rng.random(u_k)``
  priorities at round ``2k−1``, one per still-undecided vertex, ascending.
* Randomized matching: iteration ``k`` (rounds ``4k−3..4k``) draws
  ``rng.random(U_k)`` mark uniforms at round ``4k−2``, one per
  still-undecided edge, in canonical edge-slot order.

The same ``(algorithm, network, seed)`` triple therefore always produces the
same trace, on every platform numpy supports.

Routing.  ``run_trials`` / ``evaluate`` / :class:`~repro.core.experiment.
Experiment` / :func:`repro.analysis.sweep.sweep` accept
``engine="node" | "array" | "auto"``: ``"node"`` is the coroutine runner
(default — bit-exact traces), ``"array"`` demands the engine (raising if the
algorithm has no array implementation), ``"auto"`` picks the engine exactly
when ``algorithm.as_array_algorithm()`` returns one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import RoundLimitExceeded
from repro.core.metrics import RecoveryRecorder, RecoveryTimeline
from repro.core.problems import ProblemSpec
from repro.core.trace import ExecutionTrace
from repro.local.faults import FaultSchedule, RoundFaults
from repro.local.network import Network

__all__ = [
    "ArrayAlgorithm",
    "ArrayState",
    "ArrayTopology",
    "ArrayEngine",
    "BatchState",
    "batch_chunk",
]


class ArrayTopology:
    """Flat numpy views of a :class:`Network`, shared by every engine run.

    All arrays are int64 and read-only (or treated as such): ``indptr`` /
    ``indices`` are the CSR adjacency, ``edge_us`` / ``edge_vs`` the
    canonical edge endpoints in :attr:`Network.edges` slot order,
    ``degrees`` the per-vertex degree vector and ``identifiers`` the
    per-vertex unique IDs.  Built once per network and cached on the engine
    (the conversion from the tuple path's ``array('q')`` buffers is
    zero-copy via ``np.frombuffer``).
    """

    __slots__ = (
        "n",
        "m",
        "indptr",
        "indices",
        "edge_us",
        "edge_vs",
        "degrees",
        "identifiers",
    )

    def __init__(self, network: Network) -> None:
        self.n = network.n
        self.m = network.m
        self.indptr = np.frombuffer(network.indptr, dtype=np.int64)
        self.indices = np.frombuffer(network.indices, dtype=np.int64)
        us, vs = network.edge_endpoints()
        self.edge_us = np.asarray(us)
        self.edge_vs = np.asarray(vs)
        self.degrees = np.diff(self.indptr)
        self.identifiers = np.asarray(network.identifiers, dtype=np.int64)


class ArrayState:
    """Per-run mutable state: the engine-facing half of the protocol.

    Algorithms allocate one in :meth:`ArrayAlgorithm.init_arrays`, mutate it
    in :meth:`ArrayAlgorithm.step`, and may hang any private per-run scratch
    off ``extra``.  The engine reads:

    * ``node_rounds`` / ``node_values`` — per-vertex commit rounds (int64,
      ``-1`` = uncommitted) and committed values,
    * ``edge_rounds`` / ``edge_values`` — the same per canonical edge slot,
    * ``halted`` — bool mask of nodes that stopped participating,
    * ``messages`` — cumulative point-to-point message count.

    ``node_values`` / ``edge_values`` may be numpy arrays or ``None`` (for
    the label side the problem does not use); slots whose round is ``-1``
    are ignored when the trace is filled.
    """

    __slots__ = (
        "node_rounds",
        "node_values",
        "edge_rounds",
        "edge_values",
        "halted",
        "messages",
        "extra",
    )

    def __init__(self, n: int, m: int, *, nodes: bool, edges: bool) -> None:
        self.node_rounds = np.full(n, -1, dtype=np.int64)
        self.node_values: Optional[np.ndarray] = (
            np.zeros(n, dtype=bool) if nodes else None
        )
        self.edge_rounds = np.full(m, -1, dtype=np.int64)
        self.edge_values: Optional[np.ndarray] = (
            np.zeros(m, dtype=bool) if edges else None
        )
        self.halted = np.zeros(n, dtype=bool)
        self.messages = 0
        self.extra: dict = {}


class BatchState:
    """Batched per-run state: ``T`` independent trials stepped in lockstep.

    The batched twin of :class:`ArrayState`: every per-entity array gains a
    leading trial axis (``(T, n)`` / ``(T, m)``), ``messages`` becomes a
    per-trial int64 vector, and row ``t`` of every array is *exactly* the
    state the single-trial engine would hold for trial ``t`` — batch
    execution is a layout change, not a semantics change.  Algorithms
    allocate one in :meth:`ArrayAlgorithm.init_batch` and mutate it in
    :meth:`ArrayAlgorithm.step_batch`; private scratch hangs off ``extra``.
    """

    __slots__ = (
        "trials",
        "node_rounds",
        "node_values",
        "edge_rounds",
        "edge_values",
        "halted",
        "messages",
        "extra",
    )

    def __init__(
        self, trials: int, n: int, m: int, *, nodes: bool, edges: bool
    ) -> None:
        self.trials = trials
        self.node_rounds = np.full((trials, n), -1, dtype=np.int64)
        self.node_values: Optional[np.ndarray] = (
            np.zeros((trials, n), dtype=bool) if nodes else None
        )
        self.edge_rounds = np.full((trials, m), -1, dtype=np.int64)
        self.edge_values: Optional[np.ndarray] = (
            np.zeros((trials, m), dtype=bool) if edges else None
        )
        self.halted = np.zeros((trials, n), dtype=bool)
        self.messages = np.zeros(trials, dtype=np.int64)
        self.extra: dict = {}


#: Byte budget for one batched chunk's working state (arrays + scratch).
#: Tuned to keep the chunk's gather/scatter targets cache-resident rather
#: than merely fitting RAM: measured throughput at n = 10⁴ / m = 5·10⁴
#: peaks around 8 trials per chunk and at n = 10⁵ around 1–2, both of
#: which this budget reproduces under the 48-bytes-per-slot model.
#: Chunking cannot change results because every trial owns an independent
#: PCG64 stream.
_BATCH_BYTE_BUDGET = 24 * 2**20


def batch_chunk(
    n: int, m: int, trials: int, budget_bytes: int = _BATCH_BYTE_BUDGET
) -> int:
    """Cost model: how many trials of an ``(n, m)`` cell to batch per chunk.

    Estimates the batched working set at ~48 bytes per node slot and per
    edge slot per trial (int64 rounds, bool values/masks, one float64
    scratch block, and the transient ``nonzero`` index arrays) and returns
    the largest chunk that fits ``budget_bytes``, clamped to
    ``[1, trials]``.  The same model backs ``engine="auto"`` batch routing
    in ``run_trials`` / :class:`~repro.core.experiment.Experiment` and the
    sweep's batched task groups.
    """
    per_trial = 48 * (max(n, 1) + max(m, 1))
    return max(1, min(int(trials), int(budget_bytes // per_trial) or 1))


class ArrayAlgorithm:
    """Protocol for algorithms executable by the :class:`ArrayEngine`.

    An array algorithm is the vectorised twin of a per-node
    :class:`~repro.local.algorithm.NodeAlgorithm`: instead of one coroutine
    per node it expresses every synchronous round as whole-graph numpy
    operations.  Subclasses implement:

    * :meth:`init_arrays` — allocate the :class:`ArrayState` and perform the
      round-0 work (e.g. isolated nodes committing immediately),
    * :meth:`step` — execute one synchronous round, recording commits into
      the state's round/value arrays with the *same round stamps and message
      counts* the coroutine twin would produce for the same decisions.

    The engine owns the loop, the round counter, the completion check and
    the trace assembly; per-node coroutine twins advertise their array twin
    through ``NodeAlgorithm.as_array_algorithm()``.
    """

    #: Human-readable name recorded on the trace (match the coroutine twin).
    name: str = "array-algorithm"

    #: Which entity kind(s) the algorithm commits outputs for.
    labels_nodes: bool = False
    labels_edges: bool = False

    #: Whether :meth:`step` accepts a ``faults`` keyword (a per-round
    #: :class:`~repro.local.faults.RoundFaults` view) and implements the
    #: crash/drop semantics.  The engine refuses fault schedules for
    #: algorithms that do not opt in.
    supports_faults: bool = False

    #: Whether the algorithm implements the batched protocol
    #: (:meth:`init_batch` / :meth:`step_batch`): ``T`` independent trials
    #: stepped together over ``(T, n)`` / ``(T, m)`` arrays, each trial
    #: drawing from its own per-trial generator so every row stays
    #: bit-identical to the single-trial engine (batch-size invariance).
    supports_batch: bool = False

    #: Self-stabilising array algorithms detect crashed neighbours straight
    #: from the round view's ``newly_crashed`` (no engine callback needed,
    #: unlike the coroutine runner's ``neighbor_crashed`` hook) and restart
    #: affected nodes by resetting their ``node_rounds`` slots to ``-1``.
    #: The engine keeps such runs going until the last scheduled crash has
    #: landed and records a per-round
    #: :class:`~repro.core.metrics.RecoveryTimeline` on the trace.
    self_stabilizing: bool = False

    def init_arrays(
        self, topology: ArrayTopology, rng: np.random.Generator
    ) -> ArrayState:
        """Allocate per-run state and perform round-0 initialisation."""
        raise NotImplementedError

    def step(
        self,
        round_index: int,
        state: ArrayState,
        topology: ArrayTopology,
        rng: np.random.Generator,
    ) -> None:
        """Execute synchronous round ``round_index`` (1-based) in place."""
        raise NotImplementedError

    def init_batch(
        self, topology: ArrayTopology, rngs: Sequence[np.random.Generator]
    ) -> BatchState:
        """Allocate batched state for ``len(rngs)`` trials (round 0 included).

        Row ``t`` must equal what :meth:`init_arrays` would produce with
        ``rngs[t]``; algorithms whose round 0 draws no randomness (both
        current implementations) simply broadcast the single-trial init.
        """
        raise NotImplementedError

    def step_batch(
        self,
        round_index: int,
        batch: BatchState,
        topology: ArrayTopology,
        rngs: Sequence[np.random.Generator],
        active: np.ndarray,
    ) -> None:
        """Execute round ``round_index`` for every trial flagged in ``active``.

        ``active[t]`` is False once trial ``t`` completed: such rows must
        not mutate state, must not accrue messages and — crucially for
        batch-size invariance — must not consume randomness from
        ``rngs[t]``, exactly as the single-trial loop exits before
        executing further rounds.
        """
        raise NotImplementedError

    def batch_complete(self, batch: "BatchState") -> Optional[np.ndarray]:
        """Optional O(trials) per-trial completion mask.

        The engine's generic completion check reduces over every
        ``(trials, n)`` / ``(trials, m)`` round array after *every* round,
        which dominates batched cells with long completion tails.  An
        algorithm that already tracks per-trial liveness (undecided
        counts, degree sums) can return the equivalent boolean mask here;
        returning ``None`` (the default) falls back to the generic
        reduction.  The mask must match the generic check exactly — it is
        a fast path, not a different contract.
        """
        return None


class ArrayEngine:
    """Drives an :class:`ArrayAlgorithm` and assembles the execution trace.

    The array twin of :class:`~repro.local.runner.Runner`: same constructor
    knobs (``max_rounds``, ``strict``), same completion semantics (node- /
    edge-labelling problems complete when every node / edge committed,
    problems labelling neither when every node halted), same strict-mode
    :class:`~repro.local.runner.RoundLimitExceeded`.  Per-network
    :class:`ArrayTopology` views are cached in a small LRU (like
    :class:`~repro.local.faults.FaultSchedule`'s mask cache), so trial
    loops — including sweeps alternating between a handful of networks —
    pay the (cheap, mostly zero-copy) view construction once per network.
    """

    _TOPOLOGY_CACHE_SIZE = 8

    def __init__(self, max_rounds: int = 10_000, strict: bool = True) -> None:
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        self.max_rounds = max_rounds
        self.strict = strict
        self._topology_cache: "OrderedDict[int, Tuple[Network, ArrayTopology]]" = (
            OrderedDict()
        )

    def _topology(self, network: Network) -> ArrayTopology:
        # Keyed by id() with the network held strongly in the entry: the
        # stored reference keeps the id from being reused while cached, and
        # the identity check guards against a stale hit regardless.
        key = id(network)
        entry = self._topology_cache.get(key)
        if entry is not None and entry[0] is network:
            self._topology_cache.move_to_end(key)
            return entry[1]
        topology = ArrayTopology(network)
        self._topology_cache[key] = (network, topology)
        self._topology_cache.move_to_end(key)
        while len(self._topology_cache) > self._TOPOLOGY_CACHE_SIZE:
            self._topology_cache.popitem(last=False)
        return topology

    def run(
        self,
        algorithm: ArrayAlgorithm,
        network: Network,
        problem: ProblemSpec,
        seed: Optional[int] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> ExecutionTrace:
        """Execute ``algorithm`` on ``network`` under the documented seed schedule.

        With a ``faults`` schedule, each round the engine computes the
        schedule's :class:`~repro.local.faults.RoundFaults` view (alive mask
        plus per-direction delivery masks) and hands it to
        ``algorithm.step(..., faults=...)``; completion excuses entities
        only a crashed node could still decide, fault events are recorded
        on the trace, and validation scores the surviving subgraph.  Delay
        faults are exposed to the algorithm as the round view's
        ``late_uv`` / ``late_vu`` one-round carry masks; fault-aware array
        algorithms document how their message kernels consume them.
        """
        topology = self._topology(network)
        rng = np.random.Generator(np.random.PCG64(seed))

        if faults is not None and (faults.crashes or faults.has_message_faults):
            if not getattr(algorithm, "supports_faults", False):
                raise TypeError(
                    f"{algorithm.name} has no fault-aware array implementation; "
                    f"use the coroutine runner (engine='node') for fault injection"
                )
            return self._run_faulted(algorithm, network, problem, rng, faults, topology)

        state = algorithm.init_arrays(topology, rng)

        rounds = 0
        completed = self._is_complete(state, problem)
        while not completed and rounds < self.max_rounds:
            rounds += 1
            algorithm.step(rounds, state, topology, rng)
            completed = self._is_complete(state, problem)

        if not completed and self.strict:
            raise RoundLimitExceeded(
                f"{algorithm.name} did not finish {problem.name} on a graph with "
                f"n={network.n}, m={network.m} within {self.max_rounds} rounds"
            )

        return self._collect_trace(
            algorithm, network, problem, state, rounds, completed
        )

    def run_batch(
        self,
        algorithm: ArrayAlgorithm,
        network: Network,
        problem: ProblemSpec,
        seeds: Sequence[Optional[int]],
        faults: Optional[FaultSchedule] = None,
        budget_bytes: Optional[int] = None,
    ) -> List[ExecutionTrace]:
        """Execute one trial per entry of ``seeds``, batched in lockstep.

        Trial ``t`` draws from its own ``PCG64(seeds[t])`` generator —
        the identical stream the single-trial :meth:`run` would use with
        ``seed=seeds[t]`` — and completed trials stop stepping, stop
        accruing messages and stop consuming randomness, so every returned
        trace is **bit-identical** to the corresponding single-trial run
        (batch-size invariance; pinned in ``tests/local/test_batch.py``).
        Large cells are stepped in chunks sized by :func:`batch_chunk`,
        which cannot change results because the per-trial streams are
        independent.  ``budget_bytes`` overrides the default
        :data:`_BATCH_BYTE_BUDGET` cost-model budget (``None`` keeps it);
        because of batch-size invariance the override is purely a
        throughput/footprint knob, never a results knob.

        Fault schedules are per-trial-timeline constructs; batched runs
        refuse them (route faulted trials through :meth:`run`).
        """
        if faults is not None and (faults.crashes or faults.has_message_faults):
            raise TypeError(
                "batched execution does not support fault schedules; "
                "run faulted trials one at a time (ArrayEngine.run)"
            )
        if not getattr(algorithm, "supports_batch", False):
            raise TypeError(
                f"{algorithm.name} has no batched array implementation; "
                f"run trials singly (ArrayEngine.run)"
            )
        topology = self._topology(network)
        seeds = list(seeds)
        traces: List[ExecutionTrace] = []
        chunk = batch_chunk(
            topology.n,
            topology.m,
            len(seeds),
            _BATCH_BYTE_BUDGET if budget_bytes is None else int(budget_bytes),
        )
        for start in range(0, len(seeds), chunk):
            traces.extend(
                self._run_batch_chunk(
                    algorithm, network, problem, topology, seeds[start : start + chunk]
                )
            )
        return traces

    def _run_batch_chunk(
        self,
        algorithm: ArrayAlgorithm,
        network: Network,
        problem: ProblemSpec,
        topology: ArrayTopology,
        seeds: Sequence[Optional[int]],
    ) -> List[ExecutionTrace]:
        rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        trials = len(rngs)
        batch = algorithm.init_batch(topology, rngs)

        def completion() -> np.ndarray:
            mask = algorithm.batch_complete(batch)
            if mask is None:
                mask = self._batch_complete(batch, problem)
            return mask

        trial_rounds = np.zeros(trials, dtype=np.int64)
        complete = completion()
        active = ~complete
        rounds = 0
        while active.any() and rounds < self.max_rounds:
            rounds += 1
            algorithm.step_batch(rounds, batch, topology, rngs, active)
            complete = completion()
            trial_rounds[active & complete] = rounds
            active &= ~complete

        if active.any():
            trial_rounds[active] = rounds
            if self.strict:
                raise RoundLimitExceeded(
                    f"{algorithm.name} did not finish {problem.name} on a graph "
                    f"with n={network.n}, m={network.m} within "
                    f"{self.max_rounds} rounds"
                )

        # Each trace gets its own copy of its rows (one memcpy each): a view
        # into the chunk's (trials, n) / (trials, m) matrices would keep the
        # whole chunk alive for as long as any one trace is retained.
        traces = []
        for t in range(trials):
            state = ArrayState.__new__(ArrayState)
            state.node_rounds = batch.node_rounds[t].copy()
            state.node_values = (
                None if batch.node_values is None else batch.node_values[t].copy()
            )
            state.edge_rounds = batch.edge_rounds[t].copy()
            state.edge_values = (
                None if batch.edge_values is None else batch.edge_values[t].copy()
            )
            state.halted = batch.halted[t]
            state.messages = int(batch.messages[t])
            state.extra = {}
            traces.append(
                self._collect_trace(
                    algorithm,
                    network,
                    problem,
                    state,
                    int(trial_rounds[t]),
                    bool(complete[t]),
                )
            )
        return traces

    @staticmethod
    def _batch_complete(batch: BatchState, problem: ProblemSpec) -> np.ndarray:
        """Per-trial completion mask (row-wise :meth:`_is_complete`)."""
        # min-reductions rather than `(rounds < 0).any(axis=1)`: one pass,
        # no (trials, n) boolean temporary — this runs every round.
        complete = np.ones(batch.trials, dtype=bool)
        if problem.labels_nodes and batch.node_rounds.size:
            complete &= batch.node_rounds.min(axis=1) >= 0
        if problem.labels_edges and batch.edge_rounds.size:
            complete &= batch.edge_rounds.min(axis=1) >= 0
        if not problem.labels_nodes and not problem.labels_edges:
            complete &= batch.halted.all(axis=1)
        return complete

    def _run_faulted(
        self,
        algorithm: ArrayAlgorithm,
        network: Network,
        problem: ProblemSpec,
        rng: np.random.Generator,
        faults: FaultSchedule,
        topology: ArrayTopology,
    ) -> ExecutionTrace:
        """The round loop under a fault schedule.

        Self-stabilising runs mirror the coroutine runner: completion is
        additionally gated on the last scheduled crash having landed, and
        every executed round appends a ``(pending, survivor-valid)`` entry
        to the recovery timeline through a
        :class:`~repro.core.metrics.RecoveryRecorder`.  The entry is only
        recomputed when a crash landed or the state rows differ from the
        snapshot taken at the last recomputation — an O(n + m) comparison,
        far cheaper than validating an unchanged configuration again.
        """
        faults.check_vertices(topology.n)
        state = algorithm.init_arrays(topology, rng)
        recorder = (
            RecoveryRecorder(faults.crashes)
            if getattr(algorithm, "self_stabilizing", False)
            else None
        )
        final_crash = 0 if recorder is None else recorder.final_crash
        # The state rows at the last recomputed recovery entry (empty until
        # the first round, whose entry the recorder always computes).
        snapshot: List[np.ndarray] = []

        def rows() -> List[np.ndarray]:
            return [
                row
                for row in (
                    state.node_rounds,
                    state.node_values,
                    state.edge_rounds,
                    state.edge_values,
                )
                if row is not None
            ]

        def recovery_entry() -> Tuple[int, bool]:
            snapshot[:] = [row.copy() for row in rows()]
            return self._recovery_round_entry(
                state, problem, round_faults, topology, network
            )

        fault_events: list = []
        rounds = 0
        round_faults = faults.round_faults(
            0, topology.n, topology.m, topology.edge_us, topology.edge_vs
        )
        completed = (
            self._is_complete_faulted(state, problem, round_faults, topology)
            and rounds >= final_crash
        )
        while not completed and rounds < self.max_rounds:
            rounds += 1
            round_faults = faults.round_faults(
                rounds, topology.n, topology.m, topology.edge_us, topology.edge_vs
            )
            fault_events.extend(
                faults.round_events(rounds, topology.edge_us, topology.edge_vs)
            )
            algorithm.step(rounds, state, topology, rng, faults=round_faults)
            completed = (
                self._is_complete_faulted(state, problem, round_faults, topology)
                and rounds >= final_crash
            )
            if recorder is not None:
                changed = not all(
                    np.array_equal(row, seen) for row, seen in zip(rows(), snapshot)
                )
                recorder.record(
                    rounds, bool(round_faults.newly_crashed), changed, recovery_entry
                )

        if not completed and self.strict:
            raise RoundLimitExceeded(
                f"{algorithm.name} did not finish {problem.name} on a graph with "
                f"n={network.n}, m={network.m} within {self.max_rounds} rounds"
            )

        return self._collect_trace(
            algorithm,
            network,
            problem,
            state,
            rounds,
            completed,
            fault_events=tuple(fault_events),
            crashed=faults.crashed_within(rounds),
            recovery=None if recorder is None else recorder.timeline(),
        )

    @staticmethod
    def _is_complete(state: ArrayState, problem: ProblemSpec) -> bool:
        if problem.labels_nodes and (state.node_rounds < 0).any():
            return False
        if problem.labels_edges and (state.edge_rounds < 0).any():
            return False
        if not problem.labels_nodes and not problem.labels_edges:
            return bool(state.halted.all())
        return True

    @staticmethod
    def _is_complete_faulted(
        state: ArrayState,
        problem: ProblemSpec,
        round_faults: RoundFaults,
        topology: ArrayTopology,
    ) -> bool:
        """Completion with crash excusals (mirrors ``_CompletionTracker``).

        Uncommitted nodes only block completion while alive; uncommitted
        edges only while both endpoints are alive; halting-only problems
        complete when every node has halted or crashed.
        """
        alive = round_faults.alive
        if problem.labels_nodes and ((state.node_rounds < 0) & alive).any():
            return False
        if problem.labels_edges:
            pending = (
                (state.edge_rounds < 0)
                & alive[topology.edge_us]
                & alive[topology.edge_vs]
            )
            if pending.any():
                return False
        if not problem.labels_nodes and not problem.labels_edges:
            return bool((state.halted | ~alive).all())
        return True

    @staticmethod
    def _recovery_round_entry(
        state: ArrayState,
        problem: ProblemSpec,
        round_faults: RoundFaults,
        topology: ArrayTopology,
        network: Network,
    ) -> Tuple[int, bool]:
        """One ``(pending, valid)`` recovery-timeline entry (array form).

        Mirrors the coroutine runner's helper: ``pending`` counts required
        outputs still undecided among survivors; survivor-complete
        configurations are strictly validated on the induced survivor
        subnetwork so crashed commitments never carry an epoch.
        """
        alive = round_faults.alive
        pending = 0
        if problem.labels_nodes:
            pending += int(((state.node_rounds < 0) & alive).sum())
        if problem.labels_edges:
            pending += int(
                (
                    (state.edge_rounds < 0)
                    & alive[topology.edge_us]
                    & alive[topology.edge_vs]
                ).sum()
            )
        if pending > 0:
            return pending, False
        # The state arrays and the round's alive mask go to the problem's
        # kernel as they are: no per-round list, crashed set or subnetwork.
        result = problem.validate_induced(
            network,
            state.node_values,
            state.edge_values,
            node_committed=state.node_rounds >= 0,
            edge_committed=state.edge_rounds >= 0,
            alive=alive,
        )
        return 0, bool(result)

    @staticmethod
    def _collect_trace(
        algorithm: ArrayAlgorithm,
        network: Network,
        problem: ProblemSpec,
        state: ArrayState,
        rounds: int,
        completed: bool,
        fault_events: Tuple = (),
        crashed: Tuple[int, ...] = (),
        recovery: Optional[RecoveryTimeline] = None,
    ) -> ExecutionTrace:
        # The state rows become the trace's flat storage as they are (the
        # run is over, nothing writes them again): no per-slot copy, no
        # Python object per slot, no dict view.
        return ExecutionTrace.from_arrays(
            network,
            problem,
            state.node_values,
            state.node_rounds,
            state.edge_values,
            state.edge_rounds,
            rounds=rounds,
            completed=completed,
            total_messages=state.messages,
            max_message_bits=None,
            algorithm_name=algorithm.name,
            fault_events=fault_events,
            crashed=crashed,
            recovery=recovery,
        )

