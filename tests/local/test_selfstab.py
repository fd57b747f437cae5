"""Tests for the self-stabilising recovery layer.

Self-stabilising algorithms never treat a commit as final: when a neighbour
crashes, affected survivors revoke their outputs and locally recompute, and
both engines keep executing until the fault schedule's last crash has landed
so every fault epoch is observed.  The invariants pinned here:

* after every crash wave the surviving subgraph re-reaches a *strictly*
  valid configuration (checked through :meth:`ProblemSpec.validate_induced`,
  never the lenient surviving validators);
* the per-round :class:`RecoveryTimeline` records one entry per executed
  round and its ``time_to_restabilize`` bookkeeping matches the definition
  "first strictly-valid round at or after the crash, within the epoch";
* fault *events* stay engine-identical on the common round prefix (the
  schedule is engine-independent; only algorithm randomness differs);
* revocation plumbing (``NodeRuntime.revoke`` / ``revoke_edge`` and the
  completion tracker's bookkeeping) keeps counts exact, so completion is
  never declared while a revoked output is outstanding;
* recovery metrics aggregate through ``measure()``, the ``Experiment``
  facade, and the sweep row protocol (including the JSON checkpoint round
  trip) without loss;
* the recovery memo (one ``RecoveryRecorder`` for both engines) reuses a
  round's entry only where a full recomputation agrees, and quiescent
  rounds of the array twin draw no randomness and charge only beacons.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.mis.luby import LubyMIS
from repro.algorithms.selfstab import (
    SelfStabilizingLubyMIS,
    SelfStabilizingLubyMISArray,
    SelfStabilizingMatching,
)
from repro.core import problems
from repro.core.experiment import Experiment, run_trials, trial_seed
from repro.core.metrics import RecoveryRecorder, RecoveryTimeline, measure
from repro.graphs import generators as gen
from repro.local.algorithm import NodeAlgorithm
from repro.local.engine import ArrayEngine, ScratchArena
from repro.local.faults import FaultSchedule
from repro.graphs.edgelist import EdgeArrays
from repro.local.network import Network
from repro.local.node import NodeRuntime
from repro.local.runner import Runner, _CompletionTracker


def er_network(n: int, seed: int) -> Network:
    return Network.from_edge_arrays(gen.erdos_renyi_edges(n, 3.0, seed=seed))


def wave_schedule(n: int, seed: int, rounds=(2, 6)) -> FaultSchedule:
    """Crash six vertices spread across the given rounds (deterministic)."""
    import random

    rng = random.Random(seed)
    victims = rng.sample(range(n), 6)
    crashes = {v: rounds[i % len(rounds)] for i, v in enumerate(victims)}
    return FaultSchedule(crashes=crashes, seed=seed)


def assert_recovered(trace, problem, network) -> None:
    """The end state is strictly valid on the induced surviving subgraph."""
    assert trace.completed
    assert bool(trace.validate())
    assert bool(
        problem.validate_induced(
            network,
            trace.node_outputs,
            trace.edge_outputs,
            trace.crashed,
        )
    )
    timeline = trace.recovery
    assert timeline is not None
    assert len(timeline.pending) == trace.rounds
    assert len(timeline.valid) == trace.rounds
    times = timeline.time_to_restabilize()
    assert len(times) == timeline.epochs
    # The final epoch always restabilises (execution only completes once the
    # configuration is decided again, and decided implies checked-valid).
    if times:
        assert times[-1] is not None
        assert times[-1] >= 0


def assert_fault_events_agree(runner_trace, array_trace) -> None:
    """The engines record the same fault events on the rounds both executed."""
    common = min(runner_trace.rounds, array_trace.rounds)
    runner_prefix = tuple(e for e in runner_trace.fault_events if e[1] <= common)
    array_prefix = tuple(e for e in array_trace.fault_events if e[1] <= common)
    assert runner_prefix == array_prefix


class TestRecoveryTimeline:
    def test_time_to_restabilize_within_epochs(self):
        # Crash at round 2 recovers immediately (entry for round 2 is valid);
        # crash at round 5 recovers one round later.
        timeline = RecoveryTimeline(
            crash_rounds=(2, 5),
            pending=(1, 0, 0, 1, 1, 0),
            valid=(False, True, False, False, False, True),
        )
        assert timeline.epochs == 2
        assert timeline.time_to_restabilize() == (0, 1)

    def test_epoch_never_recovering_is_none(self):
        timeline = RecoveryTimeline(
            crash_rounds=(1,), pending=(2, 2, 1), valid=(False, False, False)
        )
        assert timeline.time_to_restabilize() == (None,)

    def test_recovery_after_next_crash_does_not_credit_earlier_epoch(self):
        # Valid only at round 4, after the second crash at round 3: epoch 1
        # (crash at 1) never recovered inside [1, 3).
        timeline = RecoveryTimeline(
            crash_rounds=(1, 3),
            pending=(1, 1, 1, 0),
            valid=(False, False, False, True),
        )
        assert timeline.time_to_restabilize() == (None, 1)

    def test_empty_timeline(self):
        timeline = RecoveryTimeline(crash_rounds=(), pending=(), valid=())
        assert timeline.epochs == 0
        assert timeline.time_to_restabilize() == ()


class TestSelfStabDefaults:
    def test_plain_algorithms_are_not_self_stabilizing(self):
        assert NodeAlgorithm.self_stabilizing is False
        assert LubyMIS().self_stabilizing is False

    def test_neighbor_crashed_default_is_a_no_op(self):
        algorithm = LubyMIS()
        assert algorithm.neighbor_crashed(object(), 3) is None

    def test_selfstab_algorithms_declare_the_flag(self):
        assert SelfStabilizingLubyMIS().self_stabilizing
        assert SelfStabilizingLubyMISArray().self_stabilizing
        assert SelfStabilizingMatching().self_stabilizing
        assert SelfStabilizingLubyMIS().as_array_algorithm().self_stabilizing


class TestSelfStabLubyRecovery:
    @pytest.mark.parametrize("seed", range(8))
    def test_coroutine_recovers_after_every_wave(self, seed):
        network = er_network(24 + seed, seed)
        faults = wave_schedule(network.n, seed)
        trace = Runner(max_rounds=500).run(
            SelfStabilizingLubyMIS(), network, problems.MIS, seed=seed, faults=faults
        )
        assert_recovered(trace, problems.MIS, network)

    @pytest.mark.parametrize("seed", range(8))
    def test_array_engine_recovers_after_every_wave(self, seed):
        network = er_network(24 + seed, seed)
        faults = wave_schedule(network.n, seed)
        trace = ArrayEngine(max_rounds=500).run(
            SelfStabilizingLubyMISArray(),
            network,
            problems.MIS,
            seed=seed,
            faults=faults,
        )
        assert_recovered(trace, problems.MIS, network)

    @pytest.mark.parametrize("seed", range(4))
    def test_fault_events_agree_on_the_common_round_prefix(self, seed):
        network = er_network(20, seed)
        faults = wave_schedule(network.n, seed)
        runner_trace = Runner(max_rounds=500).run(
            SelfStabilizingLubyMIS(), network, problems.MIS, seed=seed, faults=faults
        )
        array_trace = ArrayEngine(max_rounds=500).run(
            SelfStabilizingLubyMISArray(),
            network,
            problems.MIS,
            seed=seed,
            faults=faults,
        )
        assert_fault_events_agree(runner_trace, array_trace)

    def test_every_crash_epoch_restabilizes_on_both_engines(self):
        # assert_recovered checks the final epoch only.  Twelve crashes spread
        # evenly over G(1000, 8/(n-1)), in waves at rounds 2 and 14, and two
        # trials per engine: every epoch must restabilise.
        n = 1000
        arrays = gen.fast_gnp_edges(n, 8.0 / (n - 1), seed=1)
        network = Network.from_edge_arrays(arrays)
        faults = FaultSchedule(
            crashes={i * (n // 12): (2, 14)[i % 2] for i in range(12)}, seed=0
        )
        for trial in range(2):
            seed = trial_seed(0, trial)
            runner_trace = Runner(max_rounds=500).run(
                SelfStabilizingLubyMIS(), network, problems.MIS, seed=seed, faults=faults
            )
            array_trace = ArrayEngine(max_rounds=500).run(
                SelfStabilizingLubyMISArray(),
                network,
                problems.MIS,
                seed=seed,
                faults=faults,
            )
            for trace in (runner_trace, array_trace):
                trace.require_valid()
                assert problems.MIS.validate_induced(
                    network, trace.node_outputs, trace.edge_outputs, trace.crashed
                )
                times = trace.recovery.time_to_restabilize()
                assert len(times) == 2 and None not in times
            assert_fault_events_agree(runner_trace, array_trace)

    def test_execution_waits_for_the_final_crash(self):
        # Luby on a path finishes in a couple of rounds, but a crash is
        # scheduled at round 12: a self-stabilising run must keep executing
        # (and observing) until that last fault epoch has landed.
        network = Network.from_edge_arrays(EdgeArrays.from_pairs(4, [(0, 1), (1, 2), (2, 3)]))
        faults = FaultSchedule(crashes={1: 12}, seed=0)
        for trace in (
            Runner(max_rounds=100).run(
                SelfStabilizingLubyMIS(), network, problems.MIS, seed=3, faults=faults
            ),
            ArrayEngine(max_rounds=100).run(
                SelfStabilizingLubyMISArray(),
                network,
                problems.MIS,
                seed=3,
                faults=faults,
            ),
        ):
            assert trace.rounds >= 12
            assert trace.recovery.crash_rounds == (12,)
            assert_recovered(trace, problems.MIS, network)

    def test_non_selfstab_runs_carry_no_timeline(self):
        network = er_network(16, 1)
        faults = FaultSchedule(crashes={0: 2}, seed=1)
        trace = Runner(max_rounds=500).run(
            LubyMIS(), network, problems.MIS, seed=1, faults=faults
        )
        assert trace.recovery is None


class TestSelfStabMatching:
    @pytest.mark.parametrize("seed", range(8))
    def test_recovers_after_crash_waves(self, seed):
        network = er_network(24 + seed, 100 + seed)
        faults = wave_schedule(network.n, seed, rounds=(2, 8))
        trace = Runner(max_rounds=3000).run(
            SelfStabilizingMatching(),
            network,
            problems.MAXIMAL_MATCHING,
            seed=seed,
            faults=faults,
        )
        assert_recovered(trace, problems.MAXIMAL_MATCHING, network)

    @pytest.mark.parametrize("seed", range(4))
    def test_widow_rematches_on_a_path(self, seed):
        # P4 with the inner vertex 1 crashing late: whoever had matched
        # across a (0,1)/(1,2) edge revokes, and the surviving path 2-3 must
        # re-reach a maximal matching (the crash-adjacent edges are excused).
        network = Network.from_edge_arrays(EdgeArrays.from_pairs(4, [(0, 1), (1, 2), (2, 3)]))
        faults = FaultSchedule(crashes={1: 10}, seed=seed)
        trace = Runner(max_rounds=3000).run(
            SelfStabilizingMatching(),
            network,
            problems.MAXIMAL_MATCHING,
            seed=seed,
            faults=faults,
        )
        assert_recovered(trace, problems.MAXIMAL_MATCHING, network)
        # Edge (2, 3) is between two degree-1 survivors post-crash, so a
        # maximal matching must contain it.
        assert trace.edge_outputs.get((2, 3)) is True


class _RecordingObserver:
    def __init__(self):
        self.events = []

    def node_committed(self, vertex):
        pass

    def edge_committed(self, vertex, neighbor):
        pass

    def node_revoked(self, vertex):
        self.events.append(("node", vertex))

    def edge_revoked(self, vertex, neighbor):
        self.events.append(("edge", vertex, neighbor))


class TestRevocationPlumbing:
    def _node(self, observer=None) -> NodeRuntime:
        import random

        return NodeRuntime(0, 17, (1, 2), random.Random(0), observer=observer)

    def test_revoke_before_commit_is_a_no_op(self):
        observer = _RecordingObserver()
        node = self._node(observer)
        node.revoke()
        assert observer.events == []

    def test_revoke_clears_output_and_notifies(self):
        observer = _RecordingObserver()
        node = self._node(observer)
        node._current_round = 3
        node.commit(True)
        node.revoke()
        assert node._output is None and node._output_round is None
        assert not node.has_committed
        assert observer.events == [("node", 0)]

    def test_revoke_edge_only_removes_own_record(self):
        observer = _RecordingObserver()
        node = self._node(observer)
        node._current_round = 2
        node.commit_edge(1, True)
        node.revoke_edge(2)  # never committed: no-op
        assert observer.events == []
        node.revoke_edge(1)
        assert 1 not in node._edge_outputs
        assert observer.events == [("edge", 0, 1)]

    def test_recommit_after_revoke_is_allowed(self):
        node = self._node()
        node._current_round = 1
        node.commit(True)
        node.revoke()
        node._current_round = 4
        node.commit(False)
        assert node._output is False and node._output_round == 4


class TestRecoveryMetrics:
    def _selfstab_traces(self, count=3):
        network = er_network(20, 5)
        faults = wave_schedule(network.n, 5)
        runner = Runner(max_rounds=500)
        return [
            runner.run(
                SelfStabilizingLubyMIS(),
                network,
                problems.MIS,
                seed=seed,
                faults=faults,
            )
            for seed in range(count)
        ]

    def test_measure_aggregates_recovery(self):
        traces = self._selfstab_traces()
        measurement = measure(traces)
        flat = [
            t
            for trace in traces
            for t in trace.recovery.time_to_restabilize()
        ]
        recovered = [t for t in flat if t is not None]
        assert measurement.recovery_epochs == len(flat)
        assert measurement.unrecovered_epochs == len(flat) - len(recovered)
        assert measurement.max_time_to_restabilize == max(recovered)
        assert measurement.mean_time_to_restabilize == pytest.approx(
            sum(recovered) / len(recovered)
        )
        row = measurement.as_dict()
        assert row["recovery_epochs"] == len(flat)
        assert "mean_time_to_restabilize" in row

    def test_measure_without_recovery_leaves_fields_none(self):
        network = er_network(12, 2)
        trace = Runner().run(LubyMIS(), network, problems.MIS, seed=0)
        measurement = measure([trace])
        assert measurement.recovery_epochs is None
        assert "recovery_epochs" not in measurement.as_dict()


class TestFacadeThreading:
    def test_run_trials_auto_routes_selfstab_to_the_array_engine(self):
        network = er_network(18, 3)
        faults = wave_schedule(network.n, 3)
        traces = run_trials(
            SelfStabilizingLubyMIS,
            network,
            problems.MIS,
            trials=2,
            seed=0,
            engine="auto",
            faults=faults,
        )
        direct = ArrayEngine(max_rounds=Runner().max_rounds).run(
            SelfStabilizingLubyMISArray(), network, problems.MIS, seed=0, faults=faults
        )
        assert traces[0] == direct  # routed to the array engine, same schedule
        assert traces[0].recovery is not None

    def test_experiment_reports_recovery_fields(self):
        faults = FaultSchedule(crashes={1: 2, 4: 2, 9: 5}, seed=7)
        result = Experiment(
            problem=problems.MIS,
            algorithm=SelfStabilizingLubyMIS,
            graphs=gen.erdos_renyi_edges(30, 3.0, seed=1),
            trials=3,
            engine="auto",
            faults=faults,
        ).run()
        row = result.run.as_row()
        assert result.ok
        assert row["recovery_epochs"] > 0
        assert row["unrecovered_epochs"] == 0

    def test_sweep_checkpoint_round_trips_recovery(self, tmp_path):
        from repro.analysis.sweep import read_checkpoint, sweep

        faults = FaultSchedule(crashes={1: 2, 4: 2}, seed=7)
        path = str(tmp_path / "ckpt.db")
        algorithms = {
            "selfstab-luby": (
                lambda network: SelfStabilizingLubyMIS(),
                lambda network: problems.MIS,
            )
        }

        def graphs(n):
            return gen.erdos_renyi_edges(n, 3.0, seed=n)

        first = sweep(
            "n", [20, 26], graphs, algorithms, trials=2, faults=faults,
            checkpoint=path, on_error="record",
        )
        header, rows = read_checkpoint(path)
        assert len(rows) == 4
        for row in rows.values():  # the timeline rides in the journal row
            assert set(row["recovery"]) == {"crash_rounds", "pending", "valid"}
        resumed = sweep(
            "n", [20, 26], graphs, algorithms, trials=2, faults=faults,
            checkpoint=path, on_error="record",
        )
        assert first.ok and resumed.ok
        for a, b in zip(first, resumed):
            assert a.measurement.as_dict() == b.measurement.as_dict()
            assert a.measurement.recovery_epochs is not None


class TestRecoveryRecorder:
    @staticmethod
    def _entries(*values):
        calls = []
        queue = list(values)

        def entry():
            calls.append(1)
            return queue.pop(0)

        return entry, calls

    def test_unchanged_rounds_reuse_the_previous_entry(self):
        recorder = RecoveryRecorder({3: 2, 5: 4})
        assert recorder.final_crash == 4
        entry, calls = self._entries((2, False), (0, True), (0, False))
        recorder.record(1, False, False, entry)  # the first round is computed
        recorder.record(2, True, False, entry)  # a crash landed
        recorder.record(3, False, False, entry)  # nothing moved: reused
        recorder.record(4, False, True, entry)  # state changed
        recorder.record(5, False, False, entry)
        assert len(calls) == 3
        assert recorder.timeline() == RecoveryTimeline(
            crash_rounds=(2,),
            pending=(2, 0, 0, 0, 0),
            valid=(False, True, True, False, False),
        )

    def test_no_crashes_means_no_final_crash(self):
        recorder = RecoveryRecorder({})
        assert recorder.final_crash == 0
        assert recorder.timeline() == RecoveryTimeline((), (), ())


class TestRecoveryMemo:
    """The memo reuses entries only where a full recomputation agrees."""

    RUNS = [
        ("array", SelfStabilizingLubyMIS, problems.MIS),
        ("node", SelfStabilizingLubyMIS, problems.MIS),
        ("node", SelfStabilizingMatching, problems.MAXIMAL_MATCHING),
    ]

    @staticmethod
    def _run(engine, algorithm, problem, network, seed, faults):
        if engine == "array":
            return ArrayEngine(max_rounds=300).run(
                algorithm().as_array_algorithm(), network, problem, seed=seed,
                faults=faults,
            )
        return Runner(max_rounds=300).run(
            algorithm(), network, problem, seed=seed, faults=faults
        )

    @pytest.mark.parametrize("engine, algorithm, problem", RUNS)
    @pytest.mark.parametrize("seed", range(4))
    def test_timeline_equals_a_full_recomputation(
        self, monkeypatch, engine, algorithm, problem, seed
    ):
        network = er_network(40, seed)
        faults = wave_schedule(network.n, seed, rounds=(2, 7, 40))
        memoised = self._run(engine, algorithm, problem, network, seed, faults)
        record = RecoveryRecorder.record

        def always_recompute(self, round_index, crashed, changed, entry):
            record(self, round_index, crashed, True, entry)

        monkeypatch.setattr(RecoveryRecorder, "record", always_recompute)
        full = self._run(engine, algorithm, problem, network, seed, faults)
        assert memoised.recovery == full.recovery
        assert memoised == full

    @pytest.mark.parametrize("engine, algorithm, problem", RUNS)
    def test_quiescent_rounds_are_not_validated_again(
        self, monkeypatch, engine, algorithm, problem
    ):
        calls = []
        validate_induced = problems.ProblemSpec.validate_induced

        def counting(self, *args, **kwargs):
            calls.append(1)
            return validate_induced(self, *args, **kwargs)

        monkeypatch.setattr(problems.ProblemSpec, "validate_induced", counting)
        network = er_network(40, 1)
        faults = wave_schedule(network.n, 1, rounds=(60,))
        trace = self._run(engine, algorithm, problem, network, 1, faults)
        assert trace.rounds >= 60
        # Valid long before the wave, then idle until it lands: every idle
        # round reuses the verdict of the round that last changed something.
        assert sum(trace.recovery.valid) > 40
        assert len(calls) < 20


class TestChangeCounter:
    def test_commit_revoke_and_crash_events_bump_the_counter(self):
        import random

        network = Network.from_edge_arrays(EdgeArrays.from_pairs(3, [(0, 1), (0, 2)]))
        tracker = _CompletionTracker(network, problems.MAXIMAL_MATCHING)
        node = NodeRuntime(0, 17, (1, 2), random.Random(0), observer=tracker)
        node._current_round = 1
        node.commit(True)
        node.commit(True)  # same value again: no event
        assert tracker.changes == 1
        node.revoke()
        node.commit_edge(1, True)
        node.revoke_edge(1)
        assert tracker.changes == 4
        tracker.node_crashed(2, False)
        assert tracker.changes == 5


class TestQuiescentRound:
    def test_draws_nothing_and_charges_only_beacons(self):
        network = er_network(30, 2)
        algorithm = SelfStabilizingLubyMISArray()
        rngs = [np.random.Generator(np.random.PCG64(0))]
        active = np.ones(1, dtype=bool)
        batch = algorithm.init_batch(network, rngs, ScratchArena())
        rounds = 0
        while (batch.node_rounds < 0).any():
            rounds += 1
            algorithm.step_batch(rounds, batch, network, rngs, active)
        before = rngs[0].bit_generator.state
        node_rounds = batch.node_rounds.copy()
        messages = int(batch.messages[0])
        algorithm.step_batch(rounds + 1, batch, network, rngs, active)
        assert rngs[0].bit_generator.state == before
        assert (batch.node_rounds == node_rounds).all()
        members = batch.extra["status"][0] == 1
        assert int(batch.messages[0]) - messages == int(network.degrees[members].sum())
