"""Tests for fault injection (`repro.local.faults`) through both engines.

The cross-engine parity contract under faults is deliberately layered:

* **fault events and crash sets** come from the engine-independent
  :class:`FaultSchedule` (PCG64 keyed by ``(seed, round)``), so both engines
  record literally identical events for the rounds they execute — pinned
  here on the common round prefix;
* **committed outputs** only coincide where the adversary forces them (a
  crashed neighbour silencing a K2, a drop-everything schedule): the two
  engines draw algorithm randomness from different documented streams, so
  generic executions diverge while both stay valid on the surviving
  subgraph;
* **validity on the surviving subgraph** is engine-invariant for crash-only
  Luby schedules (announcements never mislead under crash-stop), and is
  checked per engine elsewhere.  Under message drops, invalid outputs are a
  legitimate recorded outcome (two neighbours can both join when both
  announcement directions drop), so no cross-engine validity invariant is
  asserted there.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.algorithms.matching.randomized import RandomizedMaximalMatching
from repro.algorithms.mis.luby import LubyMIS
from repro.core import problems
from repro.core.errors import classify_failure
from repro.core.problems import MISSING
from repro.graphs import generators as gen
from repro.graphs.edgelist import EdgeArrays
from repro.local.algorithm import Broadcast
from repro.local.coroutine import CoroutineAlgorithm
from repro.local.engine import ArrayAlgorithm, ArrayEngine, BatchState
from repro.local.faults import FaultSchedule
from repro.local.network import Network
from repro.local.runner import Runner


def k2() -> Network:
    return Network.from_edge_arrays(EdgeArrays.from_pairs(2, [(0, 1)]))


def p3() -> Network:
    return Network.from_edge_arrays(EdgeArrays.from_pairs(3, [(0, 1), (1, 2)]))


def pinned_network() -> Network:
    """The n=12, m=19 G(n, p) instance all pinned fault executions use."""
    return Network.from_edge_arrays(
        gen.erdos_renyi_edges(12, 3.0, seed=7), id_scheme="permuted"
    )


def run_both(algorithm, net, problem, seed, faults, max_rounds=200):
    runner_trace = Runner(strict=False, max_rounds=max_rounds).run(
        algorithm, net, problem, seed=seed, faults=faults
    )
    array_trace = ArrayEngine(strict=False, max_rounds=max_rounds).run(
        algorithm.as_array_algorithm(), net, problem, seed=seed, faults=faults
    )
    return runner_trace, array_trace


class TestFaultScheduleValidation:
    def test_rejects_bad_crash_vertex(self):
        with pytest.raises(ValueError, match="crash vertex"):
            FaultSchedule(crashes={-1: 3})

    def test_rejects_bad_crash_round(self):
        with pytest.raises(ValueError, match="crash round"):
            FaultSchedule(crashes={0: 0})

    @pytest.mark.parametrize("rates", [(-0.1, 0.0), (1.5, 0.0), (0.0, -0.2), (0.0, 2.0)])
    def test_rejects_out_of_range_rates(self, rates):
        drop, delay = rates
        with pytest.raises(ValueError):
            FaultSchedule(drop_rate=drop, delay_rate=delay)

    def test_rejects_rate_sum_above_one(self):
        with pytest.raises(ValueError, match="must not exceed 1"):
            FaultSchedule(drop_rate=0.6, delay_rate=0.6)

    def test_crash_queries(self):
        fs = FaultSchedule(crashes={4: 2, 1: 2, 7: 5})
        assert fs.crashes_at(2) == (1, 4)
        assert fs.crashes_at(3) == ()
        assert fs.crashed_by(4) == (1, 4)
        assert fs.crashed_by(5) == (1, 4, 7)
        assert fs.crashed_within(1) == ()
        alive = fs.alive_mask(2, 8)
        assert not alive[1] and not alive[4] and alive[7]

    def test_fate_blocks_are_deterministic_and_round_keyed(self):
        net = pinned_network()
        fs = FaultSchedule(drop_rate=0.3, delay_rate=0.2, seed=11)
        again = FaultSchedule(drop_rate=0.3, delay_rate=0.2, seed=11)
        for r in (1, 2, 7):
            fates = fs.round_faults(r, net).fates
            assert (fates == again.round_faults(r, net).fates).all()
            # The documented block: PCG64(SeedSequence([seed, r])), 2m draws.
            draws = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([11, r]))
            ).random(2 * net.m)
            assert (fates == np.where(draws < 0.3, 1, np.where(draws < 0.5, 2, 0))).all()
        # Different rounds draw different blocks.
        assert (fs.round_faults(1, net).fates != fs.round_faults(2, net).fates).any()
        # No message faults => no block at all; round 0 sends nothing.
        assert FaultSchedule(crashes={0: 1}).round_faults(1, net).fates is None
        assert fs.round_faults(0, net).fates is None

    def test_round_events_skip_crashed_endpoints_and_keep_order(self):
        net = pinned_network()
        fs = FaultSchedule(crashes={3: 2, 8: 4}, drop_rate=0.2, delay_rate=0.1, seed=5)
        crash_events = [e for e in fs.round_faults(2, net).events if e[0] == "crash"]
        assert crash_events == [("crash", 2, 3)]
        view = None
        for r in range(0, 6):
            view = fs.round_faults(r, net, view)
            assert view.events == _brute_events(fs, r, net, view.fates)
            for event in view.events:
                if event[0] == "crash":
                    continue
                _, _, source, target = event
                assert source not in fs.crashed_by(r)
                assert target not in fs.crashed_by(r)


class TestForcedParity:
    """Adversaries strong enough to force identical outputs on both engines."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_k2_crash_silences_the_neighbour(self, seed):
        fs = FaultSchedule(crashes={1: 1})
        for trace in run_both(LubyMIS(), k2(), problems.MIS, seed, fs):
            assert dict(trace.node_outputs) == {0: True}
            assert trace.rounds == 1
            assert trace.completed
            assert trace.crashed == (1,)
            assert trace.fault_events == (("crash", 1, 1),)
            assert trace.validate().valid

    @pytest.mark.parametrize("seed", [0, 5])
    def test_p3_middle_crash_isolates_the_endpoints(self, seed):
        fs = FaultSchedule(crashes={1: 1})
        for trace in run_both(LubyMIS(), p3(), problems.MIS, seed, fs):
            assert dict(trace.node_outputs) == {0: True, 2: True}
            assert trace.rounds == 1
            assert trace.validate().valid

    @pytest.mark.parametrize("seed", [0, 7])
    def test_k2_total_drop_makes_both_join(self, seed):
        """With every message dropped, both K2 nodes see silence and join.

        The resulting outputs are *invalid* as an MIS — a legitimate
        recorded outcome of the adversary, identical on both engines.
        """
        fs = FaultSchedule(drop_rate=1.0, seed=3)
        for trace in run_both(LubyMIS(), k2(), problems.MIS, seed, fs):
            assert dict(trace.node_outputs) == {0: True, 1: True}
            assert trace.rounds == 1
            assert trace.fault_events == (("drop", 1, 0, 1), ("drop", 1, 1, 0))
            assert not trace.validate().valid

    def test_k2_matching_crash_excuses_the_edge(self):
        fs = FaultSchedule(crashes={1: 1})
        for trace in run_both(
            RandomizedMaximalMatching(), k2(), problems.MAXIMAL_MATCHING, 0, fs
        ):
            assert dict(trace.edge_outputs) == {}
            assert trace.rounds == 1
            assert trace.completed
            assert trace.validate().valid

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_empty_schedule_is_bit_identical_to_no_faults(self, seed):
        """``FaultSchedule()`` must not perturb either engine in any way."""
        net = Network.from_edge_arrays(
            gen.erdos_renyi_edges(10, 2.5, seed=3), id_scheme="permuted"
        )
        fs = FaultSchedule()
        plain = Runner(max_rounds=500).run(LubyMIS(), net, problems.MIS, seed=seed)
        faulted = Runner(max_rounds=500).run(
            LubyMIS(), net, problems.MIS, seed=seed, faults=fs
        )
        assert plain == faulted
        assert faulted.fault_events == ()
        assert faulted.crashed == ()
        engine = ArrayEngine(max_rounds=500)
        array_plain = engine.run(
            LubyMIS().as_array_algorithm(), net, problems.MIS, seed=seed
        )
        array_faulted = engine.run(
            LubyMIS().as_array_algorithm(), net, problems.MIS, seed=seed, faults=fs
        )
        assert array_plain == array_faulted


class TestPinnedFaultedExecutions:
    """Fixed-seed pins so neither the fault schedule nor either engine drifts."""

    LUBY_FAULTS = dict(crashes={3: 2, 8: 4}, drop_rate=0.2, seed=5)

    COMMON_EVENTS = (
        ("drop", 1, 9, 0),
        ("drop", 1, 5, 1),
        ("drop", 1, 7, 2),
        ("drop", 1, 6, 7),
        ("crash", 2, 3),
        ("drop", 2, 0, 7),
        ("drop", 2, 0, 9),
        ("drop", 2, 9, 0),
        ("drop", 2, 11, 0),
        ("drop", 2, 2, 7),
        ("drop", 3, 2, 0),
        ("drop", 3, 0, 7),
        ("drop", 3, 7, 0),
        ("drop", 3, 0, 11),
        ("drop", 3, 2, 1),
        ("drop", 3, 2, 7),
        ("drop", 3, 7, 2),
        ("drop", 3, 7, 6),
        ("drop", 3, 6, 10),
        ("drop", 3, 7, 8),
        ("drop", 3, 8, 7),
    )

    def test_runner_luby_crash_and_drop_pin(self):
        fs = FaultSchedule(**self.LUBY_FAULTS)
        trace = Runner(strict=False, max_rounds=200).run(
            LubyMIS(), pinned_network(), problems.MIS, seed=1, faults=fs
        )
        assert dict(trace.node_outputs) == {
            0: False, 1: True, 2: False, 4: True, 5: False, 6: False,
            7: False, 8: True, 9: True, 10: True, 11: False,
        }
        assert trace.rounds == 3
        assert trace.total_messages == 74
        # Node 8's crash is scheduled for round 4, after this run finished.
        assert trace.crashed == (3,)
        assert trace.fault_events == self.COMMON_EVENTS
        assert trace.validate().valid

    def test_array_luby_crash_and_drop_pin(self):
        fs = FaultSchedule(**self.LUBY_FAULTS)
        trace = ArrayEngine(strict=False, max_rounds=200).run(
            LubyMIS().as_array_algorithm(),
            pinned_network(),
            problems.MIS,
            seed=1,
            faults=fs,
        )
        assert dict(trace.node_outputs) == {
            0: False, 1: True, 2: False, 3: True, 4: False, 5: False,
            6: False, 7: True, 8: True, 9: True, 10: True, 11: True,
        }
        assert trace.rounds == 4
        assert trace.total_messages == 102
        assert trace.crashed == (3, 8)
        assert trace.fault_events == self.COMMON_EVENTS + (
            ("crash", 4, 8),
            ("drop", 4, 2, 0),
            ("drop", 4, 7, 0),
            ("drop", 4, 1, 2),
            ("drop", 4, 1, 5),
            ("drop", 4, 6, 1),
            ("drop", 4, 2, 7),
        )
        assert trace.validate().valid

    def test_matching_crash_pin_both_engines(self):
        fs = FaultSchedule(crashes={0: 3})
        runner_trace, array_trace = run_both(
            RandomizedMaximalMatching(),
            pinned_network(),
            problems.MAXIMAL_MATCHING,
            2,
            fs,
            max_rounds=400,
        )
        assert runner_trace.rounds == 67
        assert array_trace.rounds == 39
        for trace in (runner_trace, array_trace):
            assert trace.completed
            assert trace.crashed == (0,)
            assert trace.validate().valid
        matched = {e for e, flag in runner_trace.edge_outputs.items() if flag}
        assert matched == {(1, 5), (2, 6), (3, 9), (4, 11), (7, 8)}
        array_matched = {e for e, flag in array_trace.edge_outputs.items() if flag}
        assert array_matched == {(1, 5), (2, 3), (4, 11), (6, 10), (7, 8)}


class TestCrossEngineContract:
    """The engine-invariant parts of faulted executions, over seed sweeps."""

    @pytest.mark.parametrize("seed", range(10))
    def test_crash_only_luby_is_always_surviving_valid(self, seed):
        net = pinned_network()
        fs = FaultSchedule(crashes={seed % net.n: 1 + seed % 3, (seed + 5) % net.n: 2})
        for trace in run_both(LubyMIS(), net, problems.MIS, seed, fs):
            assert trace.completed
            verdict = trace.validate()
            assert verdict.valid, verdict.reason

    @pytest.mark.parametrize("seed", range(6))
    def test_fault_events_agree_on_the_common_round_prefix(self, seed):
        """Both engines record the schedule's events for the rounds they ran."""
        net = pinned_network()
        fs = FaultSchedule(crashes={2: 2}, drop_rate=0.15, seed=seed)
        runner_trace, array_trace = run_both(LubyMIS(), net, problems.MIS, seed, fs)
        common = min(runner_trace.rounds, array_trace.rounds)
        runner_prefix = tuple(e for e in runner_trace.fault_events if e[1] <= common)
        array_prefix = tuple(e for e in array_trace.fault_events if e[1] <= common)
        assert runner_prefix == array_prefix
        for trace in (runner_trace, array_trace):
            assert trace.crashed == fs.crashed_within(trace.rounds)

    def test_unsupported_array_algorithm_is_rejected(self):
        class Opaque(ArrayAlgorithm):
            name = "opaque"

            def init_batch(self, network, rngs, scratch):
                return BatchState(
                    len(rngs), network.n, network.m, nodes=True, edges=False
                )

            def step_batch(self, round_index, batch, network, rngs, active):
                batch.node_values[active] = True
                batch.node_rounds[active] = round_index
                batch.halted[active] = True

            def batch_complete(self, batch):
                return None

        with pytest.raises(TypeError, match="no fault-aware array implementation"):
            ArrayEngine().run(
                Opaque(), k2(), problems.MIS, seed=0, faults=FaultSchedule(crashes={0: 1})
            )

    def test_array_engine_accepts_delays(self):
        """Delay schedules run on the array engine (late carry masks)."""
        trace = ArrayEngine(strict=False, max_rounds=200).run(
            LubyMIS().as_array_algorithm(),
            pinned_network(),
            problems.MIS,
            seed=0,
            faults=FaultSchedule(delay_rate=0.1, seed=2),
        )
        assert trace.completed
        assert any(e[0] == "delay" for e in trace.fault_events)


# The hand-pinned surviving cases: the crash-stop concessions
# (``ProblemSpec.validate_surviving``) on graphs small enough to check by eye.


def surviving_nodes(spec, net, values, crashed):
    return spec.validate_surviving(net, values, None, crashed)


def surviving_edges(spec, net, values, crashed):
    return spec.validate_surviving(net, None, values, crashed)


class TestSurvivingValidators:
    def test_mis_adjacent_joins_excused_only_via_crashes(self):
        net = p3()
        values = [True, True, False]
        assert not surviving_nodes(problems.MIS, net, values, set()).valid
        # Crashing one endpoint of the violating edge excuses it...
        assert surviving_nodes(problems.MIS, net, values, {0}).valid
        # ...but an unrelated crash does not.
        assert not surviving_nodes(problems.MIS, net, values, {2}).valid

    def test_mis_coverage_may_come_from_a_crashed_true_neighbour(self):
        net = p3()
        values = [True, False, False]
        # Node 2 is uncovered: no True neighbour, crashed or not.
        assert not surviving_nodes(problems.MIS, net, values, set()).valid
        # A crashed-but-committed True neighbour covers it exactly.
        covered = [True, False, True]
        assert surviving_nodes(problems.MIS, net, covered, {2}).valid

    def test_matching_crashed_node_cannot_be_matched_twice(self):
        net = p3()
        both_matched = [True, True]
        verdict = surviving_edges(problems.MAXIMAL_MATCHING, net, both_matched, {1})
        assert not verdict.valid
        assert "not a matching" in verdict.reason

    def test_matching_maximality_excuses_crashed_endpoints(self):
        net = p3()
        nothing_matched = [False, False]
        assert not surviving_edges(
            problems.MAXIMAL_MATCHING, net, nothing_matched, set()
        ).valid
        # Edge (0, 1) is excused by node 0's crash; (1, 2) still addable.
        assert not surviving_edges(
            problems.MAXIMAL_MATCHING, net, nothing_matched, {0}
        ).valid
        # Crashing the middle node excuses both edges.
        assert surviving_edges(problems.MAXIMAL_MATCHING, net, nothing_matched, {1}).valid

    def test_matching_match_towards_crashed_node_justifies_false_edges(self):
        net = p3()
        values = [True, False]
        assert surviving_edges(problems.MAXIMAL_MATCHING, net, values, {0}).valid
        assert surviving_edges(problems.MAXIMAL_MATCHING, net, values, set()).valid

    def test_missing_values_count_as_unmatched(self):
        net = p3()
        values = [MISSING, False]
        verdict = surviving_edges(problems.MAXIMAL_MATCHING, net, values, set())
        assert not verdict.valid

    def test_coloring_monochromatic_only_on_surviving_edges(self):
        net = p3()
        values = [0, 0, 1]
        assert not surviving_nodes(problems.coloring(None), net, values, set()).valid
        # Crashing one endpoint of the clashing edge removes it from the
        # surviving subgraph...
        assert surviving_nodes(problems.coloring(None), net, values, {0}).valid
        # ...but an unrelated crash leaves the clash in force.
        assert not surviving_nodes(problems.coloring(None), net, values, {2}).valid

    def test_coloring_palette_only_binds_survivors(self):
        net = p3()
        values = [0, 5, 1]
        assert not surviving_nodes(problems.coloring(2), net, values, set()).valid
        # The out-of-palette colour belongs to a corpse: not held against
        # the surviving configuration.
        assert surviving_nodes(problems.coloring(2), net, values, {1}).valid

    def test_coloring_spec_registers_the_surviving_validator(self):
        spec = problems.coloring(2)
        verdict = spec.validate_surviving(net := p3(), {0: 0, 2: 1}, {}, crashed=[1])
        assert verdict.valid
        assert not spec.validate_surviving(net, {0: 0, 1: 0, 2: 1}, {}, crashed=[]).valid

    def p4(self):
        return Network.from_edge_arrays(EdgeArrays.from_pairs(4, [(0, 1), (1, 2), (2, 3)]))

    def test_ruling_set_domination_respects_the_horizon(self):
        net = self.p4()
        values = [True, False, False, False]
        # Node 3 is at distance 3 > beta=2 from the only ruler.
        assert not surviving_nodes(problems.ruling_set(2, 2), net, values, set()).valid
        # Crashing it removes the only uncovered survivor.
        assert surviving_nodes(problems.ruling_set(2, 2), net, values, {3}).valid

    def test_ruling_set_relays_must_be_alive(self):
        net = self.p4()
        values = [True, False, False, False]
        # With 1 crashed, node 2's only path to the ruler relays through a
        # corpse: coverage is gone even though dist(0, 2)=2 pre-crash.
        assert not surviving_nodes(
            problems.ruling_set(2, 2), net, values, {1, 3}
        ).valid

    def test_ruling_set_crashed_committed_ruler_still_dominates(self):
        net = self.p4()
        values = [False, True, False, False]
        # Ruler 1 died after committing: nodes 0 and 2 keep their coverage,
        # and node 3 is reached through the *live* relay 2.
        assert surviving_nodes(problems.ruling_set(2, 2), net, values, {1}).valid

    def test_ruling_set_independence_measured_through_survivors(self):
        net = p3()
        values = [True, False, True]
        # alpha=3: rulers 0 and 2 are at distance 2 < 3 through node 1.
        assert not surviving_nodes(problems.ruling_set(3, 3), net, values, set()).valid
        # Once node 1 crashes, no surviving path connects them.
        assert surviving_nodes(problems.ruling_set(3, 3), net, values, {1}).valid

    def test_ruling_set_spec_registers_the_surviving_validator(self):
        spec = problems.ruling_set(2, 2)
        net = self.p4()
        assert spec.validate_surviving(
            net, {0: True, 1: False, 2: False}, {}, crashed=[3]
        ).valid

    def star4(self):
        return Network.from_edge_arrays(EdgeArrays.from_pairs(4, [(0, 1), (0, 2), (0, 3)]))

    def test_sinkless_sink_check_skips_crashed_nodes(self):
        net = self.star4()
        inward = [0, 0, 0]  # every edge points at the degree-3 centre
        assert not surviving_edges(problems.SINKLESS_ORIENTATION, net, inward, set()).valid
        assert surviving_edges(problems.SINKLESS_ORIENTATION, net, inward, {0}).valid

    def test_sinkless_outgoing_edge_towards_a_corpse_counts(self):
        net = self.star4()
        values = [1, 0, 0]  # centre's only outgoing edge points at node 1
        assert surviving_edges(problems.SINKLESS_ORIENTATION, net, values, {1}).valid
        # If that commitment is missing (the edge died undecided), the
        # surviving centre is a sink.
        assert not surviving_edges(
            problems.SINKLESS_ORIENTATION, net, [MISSING, 0, 0], {1}
        ).valid

    def test_sinkless_malformed_head_fails_regardless_of_crashes(self):
        net = self.star4()
        assert not surviving_edges(
            problems.SINKLESS_ORIENTATION, net, [7, 0, 0], {1}
        ).valid

    def test_sinkless_spec_registers_the_surviving_validator(self):
        spec = problems.SINKLESS_ORIENTATION
        net = self.star4()
        verdict = spec.validate_surviving(
            net, {}, {(0, 1): 1, (0, 2): 0, (0, 3): 0}, crashed=[1]
        )
        assert verdict.valid


class _GossipMax(CoroutineAlgorithm):
    """Delay-tolerant probe: flood the maximum identifier for a fixed horizon.

    Every round sends the same message type, so one-round-late stragglers are
    processed like any other message — the delay fault model's clean case.
    """

    name = "gossip-max"

    def __init__(self, rounds: int) -> None:
        self.rounds = rounds

    def run(self, node):
        best = node.identifier
        for _ in range(self.rounds):
            inbox = yield Broadcast(best)
            for value in inbox.values():
                if value > best:
                    best = value
        node.commit(best)


_GOSSIP = problems.ProblemSpec(
    name="gossip-max",
    labels_nodes=True,
    labels_edges=False,
    validator=lambda graph, nodes_out, edges_out: problems.ValidationResult(True),
)


class _GossipMaxArray(ArrayAlgorithm):
    """Array twin of :class:`_GossipMax` with a one-round delay carry buffer.

    Deterministic (no RNG), single message type: the engines' outputs must be
    **bit-identical** under any crash+drop+delay schedule, which makes this
    the exact-parity leg of the delay-port differential tests.  The carry
    buffer holds each node's previous-round payload; a late ``u → v``
    arrival applies ``max`` with that stale payload.  (Gossip payloads only
    grow, so fresh-overwrites-stale never changes the ``max`` — the carry
    needs no overwrite bookkeeping here, unlike phase-alternating Luby.)
    """

    name = "gossip-max"
    labels_nodes = True
    supports_faults = True

    def __init__(self, rounds: int) -> None:
        self.rounds = rounds

    def init_batch(self, network, rngs, scratch):
        trials = len(rngs)
        batch = BatchState(trials, network.n, network.m, nodes=True, edges=False)
        batch.node_values = np.tile(network.identifier_array, (trials, 1))
        batch.extra["best"] = np.tile(network.identifier_array, (trials, 1))
        batch.extra["prev_sent"] = [None] * trials
        return batch

    def batch_complete(self, batch):
        return None

    def step_batch(self, round_index, batch, network, rngs, active, faults=None):
        for t in np.flatnonzero(active):
            self._step_row(round_index, batch, t, network, faults)

    def _step_row(self, round_index, batch, t, network, faults):
        best = batch.extra["best"][t]
        us, vs = network.edge_endpoints()
        sent_now = best.copy()
        if faults is None:
            np.maximum.at(best, vs, sent_now[us])
            np.maximum.at(best, us, sent_now[vs])
            batch.messages[t] += int(2 * network.m)
        else:
            dlv_uv, dlv_vu = faults.deliver_uv, faults.deliver_vu
            np.maximum.at(best, vs[dlv_uv], sent_now[us[dlv_uv]])
            np.maximum.at(best, us[dlv_vu], sent_now[vs[dlv_vu]])
            prev = batch.extra["prev_sent"][t]
            if faults.late_uv is not None and prev is not None:
                late_uv, late_vu = faults.late_uv, faults.late_vu
                np.maximum.at(best, vs[late_uv], prev[us[late_uv]])
                np.maximum.at(best, us[late_vu], prev[vs[late_vu]])
            batch.messages[t] += int(
                network.degrees[faults.alive].sum()
            )
        batch.extra["prev_sent"][t] = sent_now
        if round_index == self.rounds:
            commit = (
                np.ones(network.n, dtype=bool) if faults is None else faults.alive
            )
            batch.node_values[t][commit] = best[commit]
            batch.node_rounds[t][commit] = round_index
            batch.halted[t] |= commit


class TestDelays:
    def test_all_delay_shifts_information_flow_by_one_round(self):
        net = p3()
        fs = FaultSchedule(delay_rate=1.0, seed=0)
        fault_free = Runner(max_rounds=50).run(_GossipMax(2), net, _GOSSIP, seed=0)
        assert dict(fault_free.node_outputs) == {0: 2, 1: 2, 2: 2}
        # Under all-delay, round-r information arrives at round r+1: after
        # two rounds node 0 only knows node 1's *initial* value.
        delayed = Runner(max_rounds=50).run(
            _GossipMax(2), net, _GOSSIP, seed=0, faults=fs
        )
        assert dict(delayed.node_outputs) == {0: 1, 1: 2, 2: 2}
        # Two extra rounds recover exactly the fault-free fixpoint.
        recovered = Runner(max_rounds=50).run(
            _GossipMax(4), net, _GOSSIP, seed=0, faults=fs
        )
        assert dict(recovered.node_outputs) == {0: 2, 1: 2, 2: 2}
        assert recovered.rounds == 4
        # Every directed message of every executed round was delayed.
        assert len(recovered.fault_events) == 16
        assert all(event[0] == "delay" for event in recovered.fault_events)
        assert delayed.fault_events == (
            ("delay", 1, 0, 1),
            ("delay", 1, 1, 0),
            ("delay", 1, 1, 2),
            ("delay", 1, 2, 1),
            ("delay", 2, 0, 1),
            ("delay", 2, 1, 0),
            ("delay", 2, 1, 2),
            ("delay", 2, 2, 1),
        )

    def test_cross_phase_straggler_is_a_classified_algorithm_failure(self):
        """Luby's message types alternate by phase, so a delayed announcement
        can land in a priority-round inbox — the documented structured
        failure mode of delay injection, surfaced as the algorithm's own
        exception (``exception:TypeError`` under the failure taxonomy)."""
        fs = FaultSchedule(drop_rate=0.1, delay_rate=0.3, seed=9)
        with pytest.raises(TypeError) as excinfo:
            Runner(strict=False, max_rounds=100).run(
                LubyMIS(), pinned_network(), problems.MIS, seed=4, faults=fs
            )
        assert classify_failure(excinfo.value) == "exception:TypeError"

    def test_array_cross_phase_straggler_raises_the_same_type(self):
        """The array twin mirrors the straggler failure structurally: a
        visible delayed announcement at a priority-round participant raises
        ``TypeError`` (the seed at which it fires is engine-specific)."""
        raised = 0
        for seed in range(30):
            fs = FaultSchedule(drop_rate=0.1, delay_rate=0.3, seed=seed)
            try:
                ArrayEngine(strict=False, max_rounds=100).run(
                    LubyMIS().as_array_algorithm(),
                    pinned_network(),
                    problems.MIS,
                    seed=seed,
                    faults=fs,
                )
            except TypeError as error:
                assert classify_failure(error) == "exception:TypeError"
                raised += 1
        assert raised > 0

    def test_round_faults_late_masks(self):
        net = pinned_network()
        us, vs = net.edge_endpoints()
        fs = FaultSchedule(crashes={3: 2}, delay_rate=1.0, seed=0)
        first = fs.round_faults(1, net, fs.round_faults(0, net))
        assert first.late_uv is None and first.late_vu is None
        # The late masks are the same whether round 1's view is passed in
        # or not.
        for second in (fs.round_faults(2, net, first), fs.round_faults(2, net)):
            # Everything round 1 sent arrives late at round 2, except into
            # the round-2 crash (node 3 is dead when the straggler would
            # land).
            assert (second.late_uv == (vs != 3)).all()
            assert (second.late_vu == (us != 3)).all()
        # From round 3 on, node 3 was already dead at send time too.
        third = fs.round_faults(3, net, second)
        assert (third.late_uv == ((us != 3) & (vs != 3))).all()
        # Crash-only schedules never build late masks.
        crash_only = FaultSchedule(crashes={0: 1})
        assert crash_only.round_faults(2, net).late_uv is None


class TestArrayDelayParity:
    """The tentpole differential tests for the array-engine delay port."""

    SCHEDULE = dict(crashes={2: 3, 9: 5}, drop_rate=0.1, delay_rate=0.15)

    @pytest.mark.parametrize("seed", range(25))
    def test_gossip_outputs_bit_identical_under_crash_drop_delay(self, seed):
        """Exact-parity leg: a deterministic single-message-type algorithm
        must produce identical outputs, rounds and events on both engines
        under any crash+drop+delay schedule."""
        net = pinned_network()
        fs = FaultSchedule(seed=seed, **self.SCHEDULE)
        runner_trace = Runner(strict=False, max_rounds=50).run(
            _GossipMax(8), net, _GOSSIP, seed=0, faults=fs
        )
        array_trace = ArrayEngine(strict=False, max_rounds=50).run(
            _GossipMaxArray(8), net, _GOSSIP, seed=0, faults=fs
        )
        assert dict(runner_trace.node_outputs) == dict(array_trace.node_outputs)
        assert runner_trace.rounds == array_trace.rounds
        assert runner_trace.completed and array_trace.completed
        assert runner_trace.fault_events == array_trace.fault_events
        assert runner_trace.crashed == array_trace.crashed

    def test_luby_fault_events_identical_across_twenty_seeds(self):
        """Acceptance pin: engine-identical ``fault_events`` on all common
        rounds of a crash+drop+delay schedule, over ≥ 20 fixed seeds.
        Seeds where either engine hits the documented cross-phase-straggler
        ``TypeError`` are skipped; at least 20 of the 40 must survive."""
        net = pinned_network()
        survived = 0
        for seed in range(40):
            fs = FaultSchedule(
                crashes={seed % net.n: 1 + seed % 4},
                drop_rate=0.05,
                delay_rate=0.05,
                seed=seed,
            )
            traces = []
            for run in (
                lambda: Runner(strict=False, max_rounds=200).run(
                    LubyMIS(), net, problems.MIS, seed=seed, faults=fs
                ),
                lambda: ArrayEngine(strict=False, max_rounds=200).run(
                    LubyMIS().as_array_algorithm(),
                    net,
                    problems.MIS,
                    seed=seed,
                    faults=fs,
                ),
            ):
                try:
                    traces.append(run())
                except TypeError:
                    traces.append(None)
            if None in traces:
                continue
            survived += 1
            runner_trace, array_trace = traces
            common = min(runner_trace.rounds, array_trace.rounds)
            runner_prefix = tuple(
                e for e in runner_trace.fault_events if e[1] <= common
            )
            array_prefix = tuple(
                e for e in array_trace.fault_events if e[1] <= common
            )
            assert runner_prefix == array_prefix, f"seed {seed}"
        assert survived >= 20, f"only {survived} of 40 seeds completed on both engines"


def _brute_crashed_by(crashes, round_index):
    return tuple(sorted(v for v, r in crashes.items() if r <= round_index))


def _brute_events(fs, round_index, net, fates):
    """A round's fault events by a scan of every directed slot."""
    us, vs = net.edge_endpoints()
    dead = set(_brute_crashed_by(fs.crashes, round_index))
    events = [
        ("crash", round_index, v)
        for v in sorted(v for v, r in fs.crashes.items() if r == round_index)
    ]
    for code, kind in ((1, "drop"), (2, "delay")):
        for direction in range(0 if fates is None else 2 * net.m):
            if fates[direction] != code:
                continue
            slot, reverse = divmod(direction, 2)
            source, target = int(us[slot]), int(vs[slot])
            if reverse:
                source, target = target, source
            if source not in dead and target not in dead:
                events.append((kind, round_index, source, target))
    return tuple(events)


def _threaded(fs, net, rounds):
    """The views of ``rounds`` as an engine queries them: each round's view
    passed into the next query."""
    views, view = [], None
    for r in rounds:
        view = fs.round_faults(r, net, view)
        views.append(view)
    return views


def _same_view(a, b):
    if (a.round_index, a.newly_crashed, a.events) != (b.round_index, b.newly_crashed, b.events):
        return False
    for name in ("alive", "deliver_uv", "deliver_vu", "late_uv", "late_vu", "fates"):
        x, y = getattr(a, name), getattr(b, name)
        if (x is None) != (y is None) or (x is not None and not np.array_equal(x, y)):
            return False
    return True


#: One schedule of each kind, on ``pinned_network()`` (n=12).
SCHEDULES = {
    "crash-only": dict(crashes={3: 2, 8: 4, 5: 4}),
    "drop": dict(crashes={3: 2}, drop_rate=0.3),
    "delay": dict(crashes={3: 2, 8: 4}, delay_rate=0.3),
    "drop-delay": dict(crashes={8: 3}, drop_rate=0.1, delay_rate=0.15),
}


class TestCrashIndex:
    """The per-schedule crash index against a scan of the crash mapping."""

    @pytest.mark.parametrize("seed", range(5))
    def test_queries_match_a_scan_of_the_mapping(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        victims = rng.choice(n + 5, size=15, replace=False)
        crashes = {int(v): int(rng.integers(1, 8)) for v in victims}
        fs = FaultSchedule(crashes=crashes)
        for r in range(0, 10):
            assert fs.crashes_at(r) == tuple(
                sorted(v for v, cr in crashes.items() if cr == r)
            )
            assert fs.crashed_by(r) == _brute_crashed_by(crashes, r)
            expected = np.ones(n, dtype=bool)
            for v in _brute_crashed_by(crashes, r):
                if v < n:
                    expected[v] = False
            assert (fs.alive_mask(r, n) == expected).all()

class TestThreadedViews:
    """Each engine passes a round's view into the next round's query.

    The view a round gets is one value whichever way it is asked for;
    threading only lets rounds of one crash epoch share read-only arrays.
    """

    @staticmethod
    def _two_graphs():
        # Equal n and m, different edges.
        a = Network.from_edge_arrays(EdgeArrays.from_pairs(5, [(0, 1), (1, 2), (2, 3)]))
        b = Network.from_edge_arrays(EdgeArrays.from_pairs(5, [(0, 4), (1, 3), (2, 4)]))
        return a, b

    def test_one_schedule_on_two_graphs_of_equal_size(self):
        a, b = self._two_graphs()
        fs = FaultSchedule(crashes={4: 2, 1: 3})
        views = {net: _threaded(fs, net, range(0, 6)) for net in (a, b)}
        for net in (a, b):
            us, vs = net.edge_endpoints()
            for view in views[net]:
                r = view.round_index
                alive = np.ones(net.n, dtype=bool)
                alive[list(_brute_crashed_by(fs.crashes, r))] = False
                assert (view.alive == alive).all()
                expected = alive[us] & alive[vs]
                assert (view.deliver_uv == expected).all()
                assert (view.deliver_vu == expected).all()
                assert view.newly_crashed == fs.crashes_at(r)
                assert view.events == tuple(("crash", r, v) for v in fs.crashes_at(r))
        # Each graph's views keep their own arrays.
        assert views[a][3].deliver_uv is not views[b][3].deliver_uv

    def test_views_are_shared_within_an_epoch(self):
        a, _ = self._two_graphs()
        fs = FaultSchedule(crashes={1: 3})
        views = _threaded(fs, a, range(0, 10))
        before, after = views[:3], views[3:]
        assert all(v.alive is before[0].alive for v in before)
        assert all(v.deliver_uv is before[0].deliver_uv for v in before)
        assert all(v.deliver_vu is before[0].deliver_uv for v in before)
        assert all(v.alive is after[0].alive for v in after)
        assert all(v.deliver_uv is after[0].deliver_uv for v in after)
        assert after[0].alive is not before[0].alive
        assert after[0].newly_crashed == (1,) and after[1].newly_crashed == ()
        # A query without the previous view builds arrays of its own.
        alone = fs.round_faults(5, a)
        assert alone.alive is not after[0].alive
        assert _same_view(alone, views[5])

    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    def test_every_view_array_is_read_only(self, kind):
        net = pinned_network()
        fs = FaultSchedule(seed=2, **SCHEDULES[kind])
        for view in _threaded(fs, net, range(0, 6)):
            for name in ("alive", "deliver_uv", "deliver_vu", "late_uv", "late_vu", "fates"):
                array = getattr(view, name)
                if array is None:
                    continue
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]

    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    def test_same_view_for_a_round_every_time(self, kind):
        """Threaded, asked alone, asked back to front, asked of an equal
        schedule or with another round's view: a round's view is the same."""
        net = pinned_network()
        fs = FaultSchedule(seed=2, **SCHEDULES[kind])
        threaded = _threaded(fs, net, range(0, 9))
        for view in reversed(threaded):
            r = view.round_index
            for other in (
                fs.round_faults(r, net),
                FaultSchedule(seed=2, **SCHEDULES[kind]).round_faults(r, net),
                fs.round_faults(r, net, threaded[0]),
                fs.round_faults(r, net, threaded[-1]),
            ):
                assert _same_view(view, other), (kind, r)
        assert sum(len(view.events) for view in threaded) > 0

    @pytest.mark.parametrize("rates", [(0.3, 0.0), (0.0, 0.3)])
    def test_drop_and_delay_views_change_from_round_to_round(self, rates):
        net = pinned_network()
        drop, delay = rates
        fs = FaultSchedule(crashes={3: 5}, drop_rate=drop, delay_rate=delay, seed=2)
        views = _threaded(fs, net, range(1, 5))
        assert any(
            (x.deliver_uv != y.deliver_uv).any() for x, y in zip(views, views[1:])
        )
        for view in views:
            assert (view.deliver_uv == (view.fates[0::2] == 0)).all()
            assert (view.deliver_vu == (view.fates[1::2] == 0)).all()


class TestScheduleIsAPlainValue:
    """A schedule keeps nothing of the runs and queries it served."""

    @staticmethod
    def _run(engine, net, fs):
        if engine == "node":
            return Runner(strict=False, max_rounds=50).run(
                _GossipMax(8), net, _GOSSIP, seed=0, faults=fs
            )
        return ArrayEngine(strict=False, max_rounds=50).run(
            _GossipMaxArray(8), net, _GOSSIP, seed=0, faults=fs
        )

    @staticmethod
    def _assert_as_built(fs, settings):
        fresh = FaultSchedule(seed=4, **settings)
        for slot in FaultSchedule.__slots__:
            value, built = getattr(fs, slot), getattr(fresh, slot)
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, built), slot
            else:
                assert value == built, slot

    def test_slots_hold_only_the_parameters_and_the_crash_index(self):
        assert FaultSchedule.__slots__ == (
            "crashes",
            "drop_rate",
            "delay_rate",
            "seed",
            "_crash_vertices",
            "_crash_rounds",
        )

    @pytest.mark.parametrize("engine", ["node", "array"])
    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    def test_a_run_leaves_the_schedule_as_built(self, engine, kind):
        fs = FaultSchedule(seed=4, **SCHEDULES[kind])
        trace = self._run(engine, pinned_network(), fs)
        assert trace.rounds >= 4 and trace.fault_events
        self._assert_as_built(fs, SCHEDULES[kind])

    def test_a_thousand_threaded_rounds_leave_the_schedule_as_built(self):
        net = pinned_network()
        settings = SCHEDULES["drop-delay"]
        fs = FaultSchedule(seed=4, **settings)
        view = None
        for r in range(0, 1000):
            view = fs.round_faults(r, net, view)
        self._assert_as_built(fs, settings)

    @pytest.mark.parametrize("engine", ["node", "array"])
    @pytest.mark.parametrize("kind", sorted(SCHEDULES))
    def test_a_run_frees_its_endpoint_arrays_while_the_schedule_lives(
        self, engine, kind
    ):
        """Once the network and the trace are dropped, reference counting
        alone frees the network's endpoint arrays: the schedule, which
        outlives the run (an ``Experiment`` or a sweep holds it), keeps
        none of them."""
        fs = FaultSchedule(seed=4, **SCHEDULES[kind])
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            net = pinned_network()
            refs = [weakref.ref(array) for array in net.edge_endpoints()]
            trace = self._run(engine, net, fs)
            assert trace.fault_events
            del net, trace
            assert [ref() for ref in refs] == [None, None]
        finally:
            if was_enabled:
                gc.enable()
        assert fs.round_faults(2, pinned_network()).newly_crashed == fs.crashes_at(2)



class TestCrashVertexOutsideNetwork:
    """A crash vertex outside ``0..n-1`` is refused before round 1."""

    @staticmethod
    def path4() -> Network:
        return Network.from_edge_arrays(EdgeArrays.from_pairs(4, [(0, 1), (1, 2), (2, 3)]))

    def test_check_vertices_names_the_vertex_and_n(self):
        fs = FaultSchedule(crashes={1: 2, 9: 3, 7: 9})
        fs.check_vertices(10)
        with pytest.raises(ValueError, match=r"crash vertex 7 .*\(n=4\)"):
            fs.check_vertices(4)
        FaultSchedule(crashes={4: 1}).check_vertices(5)
        with pytest.raises(ValueError, match=r"crash vertex 4 .*\(n=4\)"):
            FaultSchedule(crashes={4: 1}).check_vertices(4)

    def test_array_engine_refuses(self):
        with pytest.raises(ValueError, match=r"crash vertex 7 .*n=4"):
            ArrayEngine().run(
                LubyMIS().as_array_algorithm(),
                self.path4(),
                problems.MIS,
                seed=0,
                faults=FaultSchedule(crashes={7: 1}),
            )

    def test_array_selfstab_run_is_not_stretched_to_an_impossible_crash(self):
        from repro.algorithms.selfstab import SelfStabilizingLubyMISArray

        with pytest.raises(ValueError, match=r"crash vertex 7 .*n=4"):
            ArrayEngine().run(
                SelfStabilizingLubyMISArray(),
                self.path4(),
                problems.MIS,
                seed=0,
                faults=FaultSchedule(crashes={1: 2, 7: 9}),
            )

    def test_runner_refuses(self):
        with pytest.raises(ValueError, match=r"crash vertex 7 .*n=4"):
            Runner().run(
                LubyMIS(),
                self.path4(),
                problems.MIS,
                seed=0,
                faults=FaultSchedule(crashes={7: 1}),
            )

    @pytest.mark.parametrize("engine", ["node", "array"])
    def test_run_trials_refuses(self, engine):
        from repro.core.experiment import run_trials

        with pytest.raises(ValueError, match=r"crash vertex 7 .*n=4"):
            run_trials(
                LubyMIS,
                self.path4(),
                problems.MIS,
                trials=2,
                engine=engine,
                faults=FaultSchedule(crashes={7: 1}),
            )

    @pytest.mark.parametrize("engine", ["node", "auto"])
    def test_experiment_refuses(self, engine):
        from repro.core.experiment import Experiment

        experiment = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=self.path4(),
            trials=2,
            engine=engine,
            faults=FaultSchedule(crashes={7: 1}),
        )
        with pytest.raises(ValueError, match=r"crash vertex 7 .*n=4"):
            experiment.run()

    def test_in_range_crashes_still_run_on_both_engines(self):
        fs = FaultSchedule(crashes={3: 1})
        runner_trace, array_trace = run_both(
            LubyMIS(), self.path4(), problems.MIS, 0, fs
        )
        assert runner_trace.crashed == array_trace.crashed == (3,)
