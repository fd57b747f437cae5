"""Batch-size invariance of :meth:`ArrayEngine.run_batch`.

The contract under test: stepping ``T`` trials together over ``(T, n)`` /
``(T, m)`` state arrays is a *layout* change, not a semantics change.  Trial
``t`` of a batch draws from its own ``PCG64(seeds[t])`` stream — the same
stream a single-trial run uses — and completed trials stop mutating state,
stop accruing messages, and stop consuming randomness.  Every trace a batch
returns must therefore be bit-identical to the corresponding single-trial
run, for every batch size and chunking, with or without a fault schedule.
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

from repro.algorithms.matching.randomized import (
    RandomizedMatchingArray,
    RandomizedMaximalMatching,
)
from repro.algorithms.mis.luby import LubyMIS, LubyMISArray
from repro.algorithms.selfstab import SelfStabilizingLubyMISArray
from repro.core import problems
from repro.core.experiment import Experiment, resolve_network, run_trials, trial_seed
from repro.core.metrics import measure
from repro.graphs.edgelist import EdgeArrays
from repro.graphs.generators import cycle_edges, fast_gnp_edges
from repro.local.engine import ArrayEngine, batch_chunk
from repro.local.network import Network
from repro.local.runner import Runner

from test_selfstab_golden import GRAPHS, SCHEDULES, digest_of, graph, trace_payload

engine_module = sys.modules["repro.local.engine"]

BATCH_SIZES = (1, 2, 7, 64)
SEEDS = list(range(100, 164))


def cycle_network(n: int = 48) -> Network:
    return Network.from_edge_arrays(cycle_edges(n))


def gnp_network(n: int = 40, seed: int = 5) -> Network:
    rng = np.random.Generator(np.random.PCG64(seed))
    us, vs = np.triu_indices(n, k=1)
    keep = rng.random(us.size) < 0.12
    return Network.from_edge_arrays(EdgeArrays(n, us[keep], vs[keep]))


ALGORITHMS = [
    ("luby", lambda: LubyMIS().as_array_algorithm(), problems.MIS),
    (
        "matching",
        lambda: RandomizedMaximalMatching().as_array_algorithm(),
        problems.MAXIMAL_MATCHING,
    ),
]


def assert_traces_identical(got, want):
    assert got.rounds == want.rounds
    assert got.completed == want.completed
    assert got.total_messages == want.total_messages
    assert bytes(got.node_completion_array().tobytes()) == bytes(
        want.node_completion_array().tobytes()
    )
    assert bytes(got.edge_completion_array().tobytes()) == bytes(
        want.edge_completion_array().tobytes()
    )
    assert got.node_outputs == want.node_outputs
    assert got.edge_outputs == want.edge_outputs


class TestBatchSizeInvariance:
    @pytest.mark.parametrize("name,factory,problem", ALGORITHMS)
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_batched_traces_match_single_trial_runs(
        self, name, factory, problem, batch_size
    ):
        network = gnp_network()
        engine = ArrayEngine()
        seeds = SEEDS[:batch_size]
        singles = [
            engine.run(factory(), network, problem, seed=seed) for seed in seeds
        ]
        batched = engine.run_batch(factory(), network, problem, seeds)
        assert len(batched) == batch_size
        for got, want in zip(batched, singles):
            assert_traces_identical(got, want)

    @pytest.mark.parametrize("name,factory,problem", ALGORITHMS)
    def test_batched_traces_validate(self, name, factory, problem):
        network = cycle_network()
        engine = ArrayEngine()
        for trace in engine.run_batch(factory(), network, problem, SEEDS[:8]):
            trace.require_valid()

    @pytest.mark.parametrize("name,factory,problem", ALGORITHMS)
    def test_trials_of_one_batch_are_independent(self, name, factory, problem):
        # The same seed at different batch positions produces the same trace:
        # position in the batch must not leak into any trial's randomness.
        network = gnp_network(seed=9)
        engine = ArrayEngine()
        lone = engine.run_batch(factory(), network, problem, [SEEDS[3]])[0]
        crowded = engine.run_batch(factory(), network, problem, SEEDS[:8])[3]
        assert_traces_identical(crowded, lone)


FAULT_TWINS = [
    ("luby", LubyMISArray, problems.MIS),
    ("matching", RandomizedMatchingArray, problems.MAXIMAL_MATCHING),
    ("selfstab", SelfStabilizingLubyMISArray, problems.MIS),
]


def faulted_outcomes(twin, problem, network, seeds, faults, **batch_options):
    """Per-seed ``run`` payloads (``None`` for a ``TypeError``) and the
    ``run_batch`` payloads of the seeds that ran through."""
    engine = ArrayEngine(max_rounds=400, strict=False)
    singles = []
    for seed in seeds:
        try:
            singles.append(
                trace_payload(engine.run(twin(), network, problem, seed=seed, faults=faults))
            )
        except TypeError:
            singles.append(None)
    finished = [seed for seed, single in zip(seeds, singles) if single is not None]
    batched = [
        trace_payload(trace)
        for trace in engine.run_batch(
            twin(), network, problem, finished, faults=faults, **batch_options
        )
    ]
    return singles, batched


class TestFaultedBatchSizeInvariance:
    """Faulted batches: one round view shared by every row, row-wise
    completion, and per-row fault events, crashes and recovery timelines."""

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("name,twin,problem", FAULT_TWINS)
    def test_batched_traces_match_single_trial_runs(
        self, name, twin, problem, schedule, monkeypatch
    ):
        # The three smallest golden graphs (both network storage paths).
        for graph_seed, n in GRAPHS[:3]:
            network = graph(graph_seed, n)
            faults = SCHEDULES[schedule](n, graph_seed)
            seeds = [graph_seed + 100 * k for k in range(4)]
            singles, whole = faulted_outcomes(twin, problem, network, seeds, faults)
            assert whole == [single for single in singles if single is not None]
            with monkeypatch.context() as patch:
                patch.setattr(engine_module, "batch_chunk", lambda *a, **k: 3)
                _, chunked = faulted_outcomes(twin, problem, network, seeds, faults)
            assert chunked == whole
            if None in singles:
                # A batch raises exactly when one of its trials does.
                with pytest.raises(TypeError):
                    ArrayEngine(max_rounds=400, strict=False).run_batch(
                        twin(), network, problem, seeds, faults=faults
                    )

    @pytest.mark.parametrize("name,twin,problem", FAULT_TWINS)
    def test_rows_finishing_in_different_rounds(self, name, twin, problem):
        graph_seed, n = GRAPHS[0]
        network = graph(graph_seed, n)
        faults = SCHEDULES["single-round-1"](n, graph_seed)
        seeds = list(range(6))
        singles, batched = faulted_outcomes(
            twin, problem, network, seeds, faults, budget_bytes=1
        )
        assert len({payload["rounds"] for payload in batched}) > 1
        assert batched == singles

    def test_recovery_timelines_are_per_row(self):
        network = graph(*GRAPHS[2])
        faults = SCHEDULES["waves"](GRAPHS[2][1], GRAPHS[2][0])
        traces = ArrayEngine(max_rounds=400).run_batch(
            SelfStabilizingLubyMISArray(), network, problems.MIS, [5, 6, 7, 8], faults=faults
        )
        timelines = {trace.recovery for trace in traces}
        assert len(timelines) > 1
        for trace in traces:
            assert len(trace.recovery.pending) == trace.rounds
            assert trace.crashed == faults.crashed_within(trace.rounds)


class TestChunking:
    def test_batch_chunk_respects_budget(self):
        per_trial = 48 * (1000 + 2000)
        assert batch_chunk(1000, 2000, 10, budget_bytes=per_trial * 4) == 4
        assert batch_chunk(1000, 2000, 3, budget_bytes=per_trial * 4) == 3

    def test_batch_chunk_never_returns_zero(self):
        assert batch_chunk(10**6, 10**7, 100, budget_bytes=1) == 1
        assert batch_chunk(0, 0, 5) == 5

    @pytest.mark.parametrize("name,factory,problem", ALGORITHMS)
    def test_chunked_execution_is_invariant(
        self, name, factory, problem, monkeypatch
    ):
        # Force run_batch to split 10 seeds into chunks of 3; the per-trial
        # streams are independent, so the traces cannot change.
        network = gnp_network()
        engine = ArrayEngine()
        whole = engine.run_batch(factory(), network, problem, SEEDS[:10])
        monkeypatch.setattr(engine_module, "batch_chunk", lambda *a, **k: 3)
        chunked = engine.run_batch(factory(), network, problem, SEEDS[:10])
        for got, want in zip(chunked, whole):
            assert_traces_identical(got, want)


def _gnp(n: int, degree: float, seed: int) -> Network:
    """``fast_gnp_edges`` at expected degree ``degree``, as a network."""
    return Network.from_edge_arrays(fast_gnp_edges(n, degree / (n - 1), seed=seed))


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFootprint:
    """Traced allocations stay within a fixed number of bytes per edge, for
    a lone trial and per trial of a batch: the kernels' scratch is sized to
    live work, and an engine's later runs reuse the scratch of its first."""

    @pytest.mark.parametrize("name,factory,problem", ALGORITHMS)
    def test_single_trial_peak_allocation_per_edge(self, name, factory, problem):
        # The first run of a fresh engine allocates its kernel scratch; the
        # kernels read the network's own arrays, so nothing else is built.
        network = _gnp(20_000, 10, seed=1)
        engine = ArrayEngine()
        peak = _traced_peak(lambda: engine.run(factory(), network, problem, seed=0))
        assert peak / network.m <= 70

    @pytest.mark.parametrize("name,factory,problem", ALGORITHMS)
    def test_rerun_reuses_the_engine_scratch(self, name, factory, problem):
        network = _gnp(20_000, 10, seed=1)
        engine = ArrayEngine()
        engine.run(factory(), network, problem, seed=0)
        peak = _traced_peak(lambda: engine.run(factory(), network, problem, seed=0))
        assert peak / network.m <= 30

    @pytest.mark.parametrize(
        "name,factory,problem,bound",
        [(*ALGORITHMS[0], 20), (*ALGORITHMS[1], 51)],
        ids=["luby", "matching"],
    )
    def test_batch_peak_allocation_per_trial_edge(self, name, factory, problem, bound):
        # The `luby-gnp-t20` benchmark's shape, 20 trials in chunks of 17
        # and 3, on a fresh engine.  Luby's first phase runs in row blocks
        # and its worklist holds only the edges live after it: about 14
        # bytes per (trial, edge), against 38 with T·m worklist buffers.
        # Matching draws into its idle worklist buffer and keeps no
        # per-edge undecided mask: about 47, against 55.
        network = _gnp(5_000, 10, seed=1)
        trials = 20
        engine = ArrayEngine()
        peak = _traced_peak(
            lambda: engine.run_batch(factory(), network, problem, list(range(trials)))
        )
        assert peak / (trials * network.m) <= bound

    def test_permuted_network_build_peak_allocation_per_node(self):
        # The benchmarks' network (permuted identifiers), everything the
        # kernels read included: the identifiers stay one int64 array from
        # the seeded shuffle to the kernels.  With a dict and a tuple of
        # ints on the way the whole build peaked at about 660 bytes per
        # node; without them, about 400; without the CSR copy of the
        # edges, about 155.
        n = 20_000
        edges = fast_gnp_edges(n, 10 / (n - 1), seed=1)
        peak = _traced_peak(lambda: resolve_network(edges, seed=1))
        assert peak / n <= 200

    def test_network_holds_its_edges_once(self):
        # What a network keeps: the endpoint arrays (16 bytes per edge),
        # the identifiers and the degrees (16 bytes per node), and a few
        # object headers.  A CSR copy of the edges would add 8n + 16m.
        n = 20_000
        edges = fast_gnp_edges(n, 10 / (n - 1), seed=1)
        tracemalloc.start()
        try:
            network = resolve_network(edges, seed=1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 16 * (network.n + network.m) + 4096


class TestIdentifierArray:
    """Array consumers take the network's arrays as they are: the engine
    hands the network itself to the kernels, and no array run builds the
    tuple view that only the coroutine runner needs."""

    @pytest.mark.parametrize("name,factory,problem", ALGORITHMS)
    def test_kernels_get_the_network_itself(self, name, factory, problem):
        network = resolve_network(fast_gnp_edges(500, 0.02, seed=3))
        algorithm = factory()
        seen = []
        init_batch, step_batch = algorithm.init_batch, algorithm.step_batch

        def record_init(net, *args):
            seen.append(net)
            return init_batch(net, *args)

        def record_step(round_index, batch, net, *args, **kwargs):
            seen.append(net)
            return step_batch(round_index, batch, net, *args, **kwargs)

        algorithm.init_batch, algorithm.step_batch = record_init, record_step
        ArrayEngine().run_batch(algorithm, network, problem, [0, 1])
        assert len(seen) > 1 and all(net is network for net in seen)

    @pytest.mark.parametrize("name,factory,problem", ALGORITHMS)
    def test_array_run_validate_and_measure_leave_the_tuple_unbuilt(
        self, name, factory, problem
    ):
        network = resolve_network(fast_gnp_edges(500, 0.02, seed=3))
        trace = ArrayEngine().run(factory(), network, problem, seed=0)
        assert trace.validate()
        measure(trace)
        assert network._ids_cache is None


class TestScratchReuse:
    """One engine's arena serves batches of every shape, in any order,
    without an earlier chunk's bytes reaching a later trace."""

    def test_reused_engine_traces_match_fresh_engines(self):
        dense, sparse = _gnp(5_000, 10, seed=1), _gnp(2_000, 2, seed=2)
        # Two chunks (17 + 3) for the 20-seed Luby batches on `dense`, and
        # isolated vertices on `sparse`.
        assert batch_chunk(dense.n, dense.m, 20) == 17
        assert (sparse.degrees == 0).any()
        luby, matching = ALGORITHMS[0][1:], ALGORITHMS[1][1:]
        calls = [
            (luby, dense, list(range(20))),
            (matching, dense, list(range(10))),
            (matching, sparse, None),
            (luby, sparse, [3, 4, 5]),
            (luby, dense, list(range(20))),
        ]

        def digest(engine, call) -> str:
            (factory, problem), network, seeds = call
            if seeds is None:
                traces = [engine.run(factory(), network, problem, seed=0)]
            else:
                traces = engine.run_batch(factory(), network, problem, seeds)
            return digest_of([trace_payload(trace) for trace in traces])

        reused = ArrayEngine()
        for call in calls:
            assert digest(reused, call) == digest(ArrayEngine(), call)


class TestBatchRouting:
    """run_trials / Experiment route multi-trial array cells through run_batch."""

    def test_run_trials_array_engine_matches_per_trial_calls(self):
        network = cycle_network(30)
        runner = Runner(max_rounds=10_000)
        batched = run_trials(
            LubyMIS,
            network,
            problems.MIS,
            trials=5,
            seed=11,
            runner=runner,
            engine="array",
        )
        for trial, trace in enumerate(batched):
            single = run_trials(
                LubyMIS,
                network,
                problems.MIS,
                trials=1,
                seed=trial_seed(11, trial),
                runner=runner,
                engine="array",
            )[0]
            assert_traces_identical(trace, single)

    def test_run_trials_invokes_factory_once_per_trial(self):
        calls = []

        def factory():
            calls.append(1)
            return LubyMIS()

        run_trials(
            factory,
            cycle_network(16),
            problems.MIS,
            trials=4,
            seed=2,
            runner=Runner(max_rounds=10_000),
            engine="auto",
        )
        assert len(calls) == 4

    def test_experiment_auto_engine_matches_node_free_batching(self):
        network = cycle_network(24)
        batched = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=network,
            trials=4,
            seed=7,
            engine="array",
        ).run()
        singles = [
            Experiment(
                problem=problems.MIS,
                algorithm=LubyMIS,
                graphs=network,
                seeds=[trial_seed(7, trial)],
                engine="array",
            ).run()
            for trial in range(4)
        ]
        assert batched.ok
        for trial, trace in enumerate(batched.run.traces):
            assert_traces_identical(trace, singles[trial].run.traces[0])
