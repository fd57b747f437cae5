"""Vectorised array-native execution engine for the LOCAL-model round loop.

The per-node :class:`~repro.local.runner.Runner` simulates every node as a
Python coroutine: at ``n = 10⁶`` the round loop is ~60 s of a ~65 s pipeline
even after every other phase went array-native.  :class:`ArrayEngine` removes
that last per-node cost for algorithms that implement the
:class:`ArrayAlgorithm` protocol: a round is executed as a handful of numpy
operations over flat per-node/per-edge state arrays and the network's
canonical ``edge_endpoints()`` arrays — no
:class:`~repro.local.node.NodeRuntime`, no inbox dicts, no per-node
generator frames.

Every array run is a batch.  :meth:`ArrayEngine.run_batch` steps ``T``
seeded trials in lockstep over ``(T, n)`` / ``(T, m)`` state arrays, and
:meth:`ArrayEngine.run` is a batch of one; fault schedules included, both go
through one round loop.  Each trial draws only from its own generator, so a
trial's trace is the same for any batch size and any chunking, with or
without faults (batch-size invariance, ``tests/local/test_batch.py``).

Faults.  Under a :class:`~repro.local.faults.FaultSchedule` the round loop
asks the schedule once per round, ``round_faults(round, network, view)``,
passing the view it got for the round before (round 0's view serves the
completion check before round 1).  Every trial row shares that one
:class:`~repro.local.faults.RoundFaults` view: its masks drive the
algorithm's fault-mode kernel, and its ``events`` are the round's fault
events, which each trace records up to its own last round.

Relation to the coroutine runner (the relaxed trace-identity story).  The
coroutine path stays the **exact reference**: its traces are pinned by the
golden digests in ``tests/local/test_runner_golden.py``.  The array engine
mirrors the precedent set by
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

Memory at ``T = 1``.  A batch carves its kernel scratch up front and keeps
it for the whole chunk, so one large trial needs more memory than a loop
that allocates per round.  Randomized matching's is 34 bytes per (trial,
edge), 18 for a lone trial, whose endpoint-slot tables are the network's
own endpoint arrays.  Luby MIS runs its first phase in blocks of at least
2¹⁶ edge slots (one row once ``m ≥ 2¹⁶``), 24 bytes per slot, and its
later worklist takes 32 bytes per edge live after round 2, about a tenth
of them on the graph below.  The kernels read the network's
endpoint, degree and identifier arrays as they are, so a call copies
nothing per network.  Those arrays are all a network stores: its edges
once, plus identifiers and degrees: ``16(n + m)`` bytes, 96 MB on the
graph below.  Measured on a 2-CPU Xeon container on G(10⁶, 10/(n−1))
with seed 1 (``m = 5 000 139``), two runs each: the first ``run`` of a
fresh engine, which fills the engine's scratch arena, peaks at 219 MB of
tracemalloc allocations for Luby MIS and 206 MB for randomized matching; a
rerun on the same engine reuses the arena and peaks at 79 MB and 99 MB;
the best untraced time of three warm reruns is 0.27–0.30 s and
1.30–1.31 s.  The per-round-allocating single-trial loop that preceded the
batch protocol took 0.75–0.79 s with 191 MB and 7.5–8.2 s with 216 MB on
the same graph.

Routing.  ``run_trials`` / :class:`~repro.core.experiment.Experiment` /
:func:`repro.analysis.sweep.sweep` accept
``engine="node" | "array" | "auto"``: ``"node"`` is the coroutine runner
(default — bit-exact traces), ``"array"`` demands the engine (raising if the
algorithm has no array implementation), ``"auto"`` picks the engine exactly
when ``algorithm.as_array_algorithm()`` returns one.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import DTypeLike

from repro.core.errors import RoundLimitExceeded
from repro.core.metrics import RecoveryRecorder
from repro.core.problems import ProblemSpec
from repro.core.trace import ExecutionTrace
from repro.local.faults import FaultEvent, FaultSchedule, RoundFaults
from repro.local.network import Network

__all__ = [
    "ArrayAlgorithm",
    "ArrayEngine",
    "BatchState",
    "ScratchArena",
    "batch_chunk",
]


def _commit_rounds(trials: int, size: int, labelled: bool) -> np.ndarray:
    """``(trials, size)`` commit rounds, all ``-1``.

    An unlabelled side is one read-only row broadcast over the trials: no
    kernel writes it, so every trial (and every trace) shares that row.
    """
    if labelled:
        return np.full((trials, size), -1, dtype=np.int64)
    row = np.full(size, -1, dtype=np.int64)
    row.setflags(write=False)
    return np.broadcast_to(row, (trials, size))


class BatchState:
    """Per-run state of ``T`` independent trials stepped in lockstep.

    Algorithms allocate one in :meth:`ArrayAlgorithm.init_batch`, mutate it
    in :meth:`ArrayAlgorithm.step_batch`, and may hang private scratch off
    ``extra``.  Row ``t`` of every array is trial ``t``'s state.  The engine
    reads:

    * ``node_rounds`` / ``node_values`` — ``(T, n)`` per-vertex commit
      rounds (int64, ``-1`` = uncommitted) and committed values,
    * ``edge_rounds`` / ``edge_values`` — the same per canonical edge slot,
      ``(T, m)``,
    * ``messages`` — per-trial cumulative point-to-point message counts.

    Only the side the algorithm labels is allocated.  The other side's
    values are ``None`` and its rounds one read-only row of ``-1``
    broadcast over the trials and shared by their traces.
    """

    __slots__ = (
        "trials",
        "node_rounds",
        "node_values",
        "edge_rounds",
        "edge_values",
        "messages",
        "extra",
    )

    def __init__(
        self, trials: int, n: int, m: int, *, nodes: bool, edges: bool
    ) -> None:
        self.trials = trials
        self.node_rounds = _commit_rounds(trials, n, nodes)
        self.node_values: Optional[np.ndarray] = (
            np.zeros((trials, n), dtype=bool) if nodes else None
        )
        self.edge_rounds = _commit_rounds(trials, m, edges)
        self.edge_values: Optional[np.ndarray] = (
            np.zeros((trials, m), dtype=bool) if edges else None
        )
        self.messages = np.zeros(trials, dtype=np.int64)
        self.extra: dict = {}

    def labelled_rows(self, t: int) -> List[np.ndarray]:
        """Trial ``t``'s rounds and values rows of the labelled side(s)."""
        return [
            array[t]
            for values, rounds in (
                (self.node_values, self.node_rounds),
                (self.edge_values, self.edge_rounds),
            )
            if values is not None
            for array in (rounds, values)
        ]


#: Alignment of every array :meth:`ScratchArena.carve` hands out, in bytes
#: (one cache line).
_ARENA_ALIGN = 64


class ScratchArena:
    """One growable block of kernel scratch, owned by an :class:`ArrayEngine`.

    :meth:`carve` hands out uninitialised arrays, all views of one block at
    64-byte-aligned addresses.  The block grows to the largest total any
    carve has requested and never shrinks, so the chunks and calls after
    the first reuse pages that are already mapped instead of faulting in
    (and zero-filling) multi-megabyte scratch afresh.  A growth drops the
    old block before allocating the new one, so an arena never holds two.

    Every carve hands out the same bytes again: arrays from an earlier
    carve alias the new ones.  A kernel therefore carves once per chunk, in
    :meth:`ArrayAlgorithm.init_batch`, and keeps the arrays no longer than
    that chunk.
    """

    __slots__ = ("_block", "_start")

    def __init__(self) -> None:
        self._block = np.empty(0, dtype=np.uint8)
        self._start = 0  # first aligned byte of the block

    def carve(
        self, *specs: Tuple[Union[int, Tuple[int, ...]], DTypeLike]
    ) -> List[np.ndarray]:
        """One uninitialised array per ``(shape, dtype)`` spec, in order."""
        layout = []
        total = 0
        for shape, dtype in specs:
            dtype = np.dtype(dtype)
            total += -total % _ARENA_ALIGN
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            layout.append((total, nbytes, shape, dtype))
            total += nbytes
        if self._start + total > self._block.size:
            self._block = np.empty(0, dtype=np.uint8)  # free the old block first
            block = np.empty(total + _ARENA_ALIGN, dtype=np.uint8)
            self._start = -block.ctypes.data % _ARENA_ALIGN
            self._block = block
        start = self._start
        return [
            self._block[start + offset : start + offset + nbytes]
            .view(dtype)
            .reshape(shape)
            for offset, nbytes, shape, dtype in layout
        ]


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
    per node it expresses every synchronous round as numpy operations over
    ``T`` trials of the whole graph.  Subclasses implement:

    * :meth:`init_batch` — allocate the :class:`BatchState` and perform the
      round-0 work (e.g. isolated nodes committing immediately),
    * :meth:`step_batch` — execute one synchronous round for every active
      trial, recording commits into the state's round/value arrays with the
      *same round stamps and message counts* the coroutine twin would
      produce for the same decisions,
    * :meth:`batch_complete` — an optional ``O(T)`` completion mask.

    Row ``t`` draws only from ``rngs[t]``, in the order a lone trial would,
    so its trace does not depend on ``T`` or on the other rows.  The engine
    owns the loop, the round counter, the completion check and the trace
    assembly; per-node coroutine twins advertise their array twin through
    ``NodeAlgorithm.as_array_algorithm()``.
    """

    #: Human-readable name recorded on the trace (match the coroutine twin).
    name: str = "array-algorithm"

    #: Whether :meth:`step_batch` accepts a ``faults`` view and implements
    #: the crash/drop/delay semantics.  The engine refuses fault schedules
    #: for algorithms that do not opt in.
    supports_faults: bool = False

    #: Self-stabilising array algorithms detect crashed neighbours straight
    #: from the round view's ``newly_crashed`` (no engine callback needed,
    #: unlike the coroutine runner's ``neighbor_crashed`` hook) and restart
    #: affected nodes by resetting their ``node_rounds`` slots to ``-1``.
    #: The engine keeps such runs going until the last scheduled crash has
    #: landed and records a per-round
    #: :class:`~repro.core.metrics.RecoveryTimeline` on each trace.
    self_stabilizing: bool = False

    def init_batch(
        self,
        network: Network,
        rngs: Sequence[np.random.Generator],
        scratch: ScratchArena,
    ) -> BatchState:
        """Allocate state for ``len(rngs)`` trials and perform round 0.

        Kernels read the network's own read-only arrays:
        :meth:`~Network.edge_endpoints`, :attr:`~Network.degrees` and
        :attr:`~Network.identifier_array`.  ``scratch`` is the engine's
        :class:`ScratchArena`.  A kernel that needs ``T · m``- or
        ``T · n``-sized scratch carves all of it here, with one
        :meth:`~ScratchArena.carve` call per chunk (a second carve would
        hand out the same bytes again), and writes each carved array before
        it first reads it: the bytes are whatever the engine's previous
        chunk left there.  The arrays live no longer than the chunk.
        Scratch sized by a round's outcome is allocated then.  An algorithm
        without such scratch ignores the argument.
        """
        raise NotImplementedError

    def step_batch(
        self,
        round_index: int,
        batch: BatchState,
        network: Network,
        rngs: Sequence[np.random.Generator],
        active: np.ndarray,
        faults: Optional[RoundFaults] = None,
    ) -> None:
        """Execute round ``round_index`` (1-based) for every trial in ``active``.

        ``active[t]`` is False once trial ``t`` completed: such rows must
        not mutate state, must not accrue messages and — crucially for
        batch-size invariance — must not consume randomness from
        ``rngs[t]``.  Under a fault schedule the engine passes the round's
        :class:`~repro.local.faults.RoundFaults` view as ``faults`` (only
        to algorithms with :attr:`supports_faults`); its masks depend on
        the schedule and the round alone, so one view serves every row.
        """
        raise NotImplementedError

    def batch_complete(self, batch: BatchState) -> Optional[np.ndarray]:
        """Optional O(trials) per-trial completion mask of a fault-free run.

        The engine's generic completion check reduces over every
        ``(trials, n)`` / ``(trials, m)`` round array after *every* round,
        which dominates batched cells with long completion tails.  An
        algorithm that already tracks per-trial liveness (undecided
        counts, degree sums) can return the equivalent boolean mask here;
        returning ``None`` falls back to the generic reduction.  The mask
        must match the generic check exactly — it is a fast path, not a
        different contract.  Under faults the engine always uses its own
        reduction, which excuses crashed entities.
        """
        return None


class ArrayEngine:
    """Drives an :class:`ArrayAlgorithm` and assembles the execution traces.

    The array twin of :class:`~repro.local.runner.Runner`: same constructor
    knobs (``max_rounds``, ``strict``), same completion semantics (node- /
    edge-labelling problems complete when every node / edge committed),
    same strict-mode :class:`~repro.local.runner.RoundLimitExceeded`.
    :meth:`run` and :meth:`run_batch` hand the network itself to the
    kernels, which read its read-only endpoint, degree and identifier
    arrays, so a call builds no per-network structure and the engine holds
    no reference to a network after the call returns.

    Kernel scratch comes from one :class:`ScratchArena` that lives as long
    as the engine and is handed to every
    :meth:`~ArrayAlgorithm.init_batch`.  Every chunk after the first, and
    every call after the first, reuses its warm pages, whatever the
    network: a graph source that rebuilds its network per call gets the
    reuse too.  Memory at rest: the engine keeps its largest chunk's kernel
    scratch until it is dropped — after one ``T = 1`` run on ``G(10⁶,
    10/(n−1))``, 140 MB for Luby MIS (24 bytes per edge plus 20 per node)
    and 107 MB for randomized matching (18 plus 17).
    :class:`~repro.core.experiment.Experiment` keeps one engine for its
    lifetime; ``run_trials`` and sweep cells build one per call and keep
    nothing after they return.  An engine runs one chunk at a time, which
    its arena assumes: do not share an engine between threads.
    """

    def __init__(self, max_rounds: int = 10_000, strict: bool = True) -> None:
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        self.max_rounds = max_rounds
        self.strict = strict
        self._scratch = ScratchArena()

    def run(
        self,
        algorithm: ArrayAlgorithm,
        network: Network,
        problem: ProblemSpec,
        seed: Optional[int] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> ExecutionTrace:
        """Execute one trial of ``algorithm``: a batch of one.

        The trace is bit-identical to trial ``seed`` of any
        :meth:`run_batch` call, with or without ``faults``.
        """
        faults = self._injecting(algorithm, faults, network)
        return self._run_chunk(algorithm, network, problem, [seed], faults)[0]

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

        Trial ``t`` draws from its own ``PCG64(seeds[t])`` generator, and
        completed trials stop stepping, stop accruing messages and stop
        consuming randomness, so every returned trace is **bit-identical**
        to ``run(..., seed=seeds[t])`` (batch-size invariance; pinned in
        ``tests/local/test_batch.py``).  Large cells are stepped in chunks
        sized by :func:`batch_chunk`, which cannot change results because
        the per-trial streams are independent.  ``budget_bytes`` overrides
        the default :data:`_BATCH_BYTE_BUDGET` cost-model budget (``None``
        keeps it): a throughput/footprint knob, never a results knob.

        With a ``faults`` schedule, each round's
        :class:`~repro.local.faults.RoundFaults` view (alive mask plus
        per-direction delivery and one-round delay masks) is queried once and
        handed to ``algorithm.step_batch(..., faults=...)`` for every row.
        Completion excuses entities only a crashed node could still decide;
        each trace records the fault events of the rounds its trial ran,
        and validation scores the surviving subgraph.
        """
        faults = self._injecting(algorithm, faults, network)
        seeds = list(seeds)
        traces: List[ExecutionTrace] = []
        chunk = batch_chunk(
            network.n,
            network.m,
            len(seeds),
            _BATCH_BYTE_BUDGET if budget_bytes is None else int(budget_bytes),
        )
        for start in range(0, len(seeds), chunk):
            traces.extend(
                self._run_chunk(
                    algorithm, network, problem, seeds[start : start + chunk], faults
                )
            )
        return traces

    @staticmethod
    def _injecting(
        algorithm: ArrayAlgorithm,
        faults: Optional[FaultSchedule],
        network: Network,
    ) -> Optional[FaultSchedule]:
        """``faults`` if it injects anything, else ``None`` (empty schedules
        are inert); refuses algorithms without fault-aware stepping and
        crashes outside the graph before round 1."""
        if faults is None or not faults.active:
            return None
        if not getattr(algorithm, "supports_faults", False):
            raise TypeError(
                f"{algorithm.name} has no fault-aware array implementation; "
                f"use the coroutine runner (engine='node') for fault injection"
            )
        faults.check_vertices(network.n)
        return faults

    def _run_chunk(
        self,
        algorithm: ArrayAlgorithm,
        network: Network,
        problem: ProblemSpec,
        seeds: Sequence[Optional[int]],
        faults: Optional[FaultSchedule],
    ) -> List[ExecutionTrace]:
        """The round loop: one chunk of trials, with or without faults.

        Completion is row-wise.  Under ``faults`` every row shares the
        round's view, which also carries the round's fault events; the
        loop passes each view into the next round's query.
        Self-stabilising rows also wait for the schedule's final crash and
        keep one :class:`~repro.core.metrics.RecoveryRecorder` each; a
        row's entry is only recomputed when a crash landed or its state
        rows differ from the snapshot taken at its last recomputation — an
        O(n + m) comparison, far cheaper than validating an unchanged
        configuration again.
        """
        rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        trials = len(rngs)
        batch = algorithm.init_batch(network, rngs, self._scratch)
        view: Optional[RoundFaults] = None
        events: List[Tuple[FaultEvent, ...]] = []
        recorders: List[RecoveryRecorder] = []
        # Per row: the state rows at its last recomputed recovery entry
        # (empty until round 1, whose entry the recorder always computes).
        snapshots: List[List[np.ndarray]] = [[] for _ in range(trials)]
        final_crash = 0
        if faults is not None:
            view = faults.round_faults(0, network)
            if getattr(algorithm, "self_stabilizing", False):
                recorders = [RecoveryRecorder(faults.crashes) for _ in range(trials)]
                final_crash = recorders[0].final_crash

        def recovery_entry(t: int) -> Tuple[int, bool]:
            snapshots[t] = [row.copy() for row in batch.labelled_rows(t)]
            return self._recovery_round_entry(batch, t, problem, view, network)

        trial_rounds = np.zeros(trials, dtype=np.int64)
        active = ~(
            self._complete(algorithm, batch, problem, network, view)
            & (final_crash <= 0)
        )
        rounds = 0
        while active.any() and rounds < self.max_rounds:
            rounds += 1
            if faults is None:
                algorithm.step_batch(rounds, batch, network, rngs, active)
            else:
                view = faults.round_faults(rounds, network, view)
                events.append(view.events)
                algorithm.step_batch(rounds, batch, network, rngs, active, faults=view)
            complete = self._complete(algorithm, batch, problem, network, view) & (
                rounds >= final_crash
            )
            if recorders:
                crashed = bool(view.newly_crashed)
                for t in np.flatnonzero(active).tolist():
                    changed = not all(
                        np.array_equal(row, seen)
                        for row, seen in zip(batch.labelled_rows(t), snapshots[t])
                    )
                    recorders[t].record(
                        rounds, crashed, changed, partial(recovery_entry, t)
                    )
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

        traces = []
        for t in range(trials):
            last = int(trial_rounds[t])
            traces.append(
                ExecutionTrace(
                    network,
                    problem,
                    *self._trace_rows(batch.node_values, batch.node_rounds, t),
                    *self._trace_rows(batch.edge_values, batch.edge_rounds, t),
                    rounds=last,
                    completed=not active[t],
                    total_messages=int(batch.messages[t]),
                    max_message_bits=None,
                    algorithm_name=algorithm.name,
                    fault_events=tuple(
                        event for per_round in events[:last] for event in per_round
                    ),
                    crashed=() if faults is None else faults.crashed_within(last),
                    recovery=recorders[t].timeline() if recorders else None,
                )
            )
        return traces

    @staticmethod
    def _trace_rows(
        values: Optional[np.ndarray], rounds: np.ndarray, t: int
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Trial ``t``'s ``(values, rounds)`` rows as its trace keeps them.

        A labelled side is copied (one memcpy each): a view into the
        chunk's matrices would keep the whole chunk alive for as long as
        any one trace is retained.  An unlabelled side is the shared
        read-only row of ``-1``, kept as it is.
        """
        if values is None:
            return None, rounds[t]
        return values[t].copy(), rounds[t].copy()

    @staticmethod
    def _complete(
        algorithm: ArrayAlgorithm,
        batch: BatchState,
        problem: ProblemSpec,
        network: Network,
        view: Optional[RoundFaults],
    ) -> np.ndarray:
        """Per-trial completion mask.

        Fault-free, the algorithm's own :meth:`~ArrayAlgorithm.batch_complete`
        answers when it can.  Under faults (``view``), crash excusals mirror
        the runner's ``_CompletionTracker``: uncommitted nodes only block
        completion while alive, uncommitted edges only while both endpoints
        are alive.
        """
        labels_nodes, labels_edges = problem.labels_nodes, problem.labels_edges
        if view is None:
            mask = algorithm.batch_complete(batch)
            if mask is not None:
                return mask
            # min-reductions rather than `(rounds < 0).any(axis=1)`: one
            # pass, no (trials, n) boolean temporary — this runs every round.
            complete = np.ones(batch.trials, dtype=bool)
            if labels_nodes and batch.node_rounds.size:
                complete &= batch.node_rounds.min(axis=1) >= 0
            if labels_edges and batch.edge_rounds.size:
                complete &= batch.edge_rounds.min(axis=1) >= 0
            return complete
        alive = view.alive
        complete = np.ones(batch.trials, dtype=bool)
        if labels_nodes:
            complete &= ~((batch.node_rounds < 0) & alive).any(axis=1)
        if labels_edges:
            us, vs = network.edge_endpoints()
            live = alive[us] & alive[vs]
            complete &= ~((batch.edge_rounds < 0) & live).any(axis=1)
        return complete

    @staticmethod
    def _recovery_round_entry(
        batch: BatchState,
        t: int,
        problem: ProblemSpec,
        round_faults: RoundFaults,
        network: Network,
    ) -> Tuple[int, bool]:
        """Trial ``t``'s ``(pending, valid)`` recovery-timeline entry.

        Mirrors the coroutine runner's helper: ``pending`` counts required
        outputs still undecided among survivors; survivor-complete
        configurations are strictly validated on the induced survivor
        subnetwork so crashed commitments never carry an epoch.
        """
        alive = round_faults.alive
        node_rounds, edge_rounds = batch.node_rounds[t], batch.edge_rounds[t]
        pending = 0
        if problem.labels_nodes:
            pending += int(((node_rounds < 0) & alive).sum())
        if problem.labels_edges:
            us, vs = network.edge_endpoints()
            pending += int(((edge_rounds < 0) & alive[us] & alive[vs]).sum())
        if pending > 0:
            return pending, False
        # The state rows and the round's alive mask go to the problem's
        # kernel as they are: no per-round list, crashed set or subnetwork.
        result = problem.validate_induced(
            network,
            None if batch.node_values is None else batch.node_values[t],
            None if batch.edge_values is None else batch.edge_values[t],
            node_committed=node_rounds >= 0,
            edge_committed=edge_rounds >= 0,
            alive=alive,
        )
        return 0, bool(result)
