"""Tests for the vectorised array engine (`repro.local.engine`).

The engine follows the relaxed trace-identity story established for
``fast_gnp_edges``: exact RNG-stream parity with the per-node Mersenne path
is impossible, so the coroutine runner stays the exact reference and the
engine is pinned by

* validator-verified outputs on shared graphs (same verdicts from the CSR
  validators),
* identical round-stamp *semantics* (Luby joins at odd rounds / removals at
  even rounds; matching completions at rounds ``≡ 3 (mod 4)``),
* round-distribution agreement with the coroutine twin over exhaustive
  fixed-seed sweeps (statistical, like ``tests/graphs/test_fast_gnp.py``),
* a pinned fixed-seed execution so the documented PCG64 block seed schedule
  cannot silently drift.
"""

from __future__ import annotations

import random
import statistics
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.matching.randomized import (
    RandomizedMatchingArray,
    RandomizedMaximalMatching,
)
from repro.algorithms.mis import luby as luby_module
from repro.algorithms.mis.luby import LubyMIS, LubyMISArray, _luby_local_maxima
from repro.algorithms.selfstab import SelfStabilizingLubyMISArray
from repro.core import problems
from repro.core.experiment import Experiment, run_trials, trial_seed
from repro.graphs import generators as gen
from repro.local.engine import ArrayEngine, ScratchArena
from repro.local.faults import FaultSchedule
from repro.graphs.edgelist import EdgeArrays
from repro.local.network import Network
from repro.local.runner import RoundLimitExceeded, Runner


@pytest.fixture
def engine():
    return ArrayEngine()


@pytest.fixture
def runner():
    return Runner()


def _tvd(a: Counter, b: Counter) -> float:
    total_a, total_b = sum(a.values()), sum(b.values())
    keys = set(a) | set(b)
    return sum(abs(a[k] / total_a - b[k] / total_b) for k in keys) / 2.0


class _GridUniforms:
    """A generator stand-in whose uniforms sit on the grid {0, 1/3, 2/3}."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def random(self, size: int) -> np.ndarray:
        return np.floor(self._rng.random(size) * 3) / 3


def _reference_luby(network: Network, rng) -> dict:
    """One trial of Luby in plain Python: the coroutine's (priority,
    identifier) rule over the draws ``rng.random(k)`` gives the ``k``
    nodes undecided at a phase's start, in ascending order (the array
    kernel's seed schedule).  Also reports the phases in which a node's
    priority tied its neighbourhood maximum."""
    ids = network.identifier_array.tolist()
    neighbours = [network.neighbors(v) for v in network.vertices]
    node_rounds = [0 if not row else -1 for row in neighbours]
    node_values = [not row for row in neighbours]
    undecided = [v for v, row in enumerate(neighbours) if row]
    messages = rounds = phase = 0
    tie_phases = set()
    while undecided:
        phase += 1
        priority = dict(zip(undecided, rng.random(len(undecided)).tolist()))
        sent = sum(len(neighbours[v]) for v in undecided)
        joined = set()
        for v in undecided:
            inbox = [(priority[u], ids[u]) for u in neighbours[v] if u in priority]
            if inbox and max(inbox)[0] == priority[v]:
                tie_phases.add(phase)
            if not inbox or (priority[v], ids[v]) > max(inbox):
                joined.add(v)
        for v in joined:
            node_rounds[v], node_values[v] = 2 * phase - 1, True
        messages += sent
        rounds = 2 * phase - 1
        undecided = [v for v in undecided if v not in joined]
        if not undecided:
            break
        messages += sent
        rounds = 2 * phase
        removed = {v for v in undecided if joined.intersection(neighbours[v])}
        for v in removed:
            node_rounds[v] = 2 * phase
        undecided = [v for v in undecided if v not in removed]
    return {
        "node_rounds": node_rounds,
        "node_values": node_values,
        "messages": messages,
        "rounds": rounds,
        "tie_phases": tie_phases,
    }


class _ReferenceFaulted:
    """One row of a faulted Luby kernel in plain Python, vertex by vertex.

    ``step(round_index, view)`` applies one round under a
    :class:`~repro.local.faults.RoundFaults` view — a message ``u → v``
    arrives iff the view delivers that direction — and returns the sets
    that joined and left.  ``selfstab=False`` is :class:`LubyMIS`'s
    two-round phase; ``selfstab=True`` is the one-round bid/beacon rule of
    :class:`SelfStabilizingLubyMIS` with the array twin's orphan reset.
    Bids are drawn ``rng.random(k)`` for the ``k`` alive undecided nodes in
    ascending order, the kernels' seed schedule; ``ties`` counts the bidders
    whose bid equalled the largest bid they received.
    """

    def __init__(self, network: Network, rng, selfstab: bool) -> None:
        self.ids = network.identifier_array.tolist()
        self.neighbours = [network.neighbors(v) for v in network.vertices]
        self.us, self.vs = (a.tolist() for a in network.edge_endpoints())
        # 0 undecided, 1 in, 2 out; isolated nodes join at round 0.
        self.status = [0 if row else 1 for row in self.neighbours]
        self.rng, self.selfstab = rng, selfstab
        self.joined = set()
        self.ties = 0

    def _bids(self, alive, delivered):
        """Each alive undecided node's bid, and the bids each one hears."""
        bidders = [v for v, s in enumerate(self.status) if s == 0 and alive[v]]
        bid = dict(zip(bidders, self.rng.random(len(bidders)).tolist()))
        heard = {
            v: [(bid[u], self.ids[u]) for u in self.neighbours[v] if u in bid and delivered[u, v]]
            for v in bidders
        }
        return bid, heard

    def _wins(self, v, bid, rivals) -> bool:
        if rivals and max(rivals)[0] == bid[v]:
            self.ties += 1
        return not rivals or (bid[v], self.ids[v]) > max(rivals)

    def step(self, round_index: int, view):
        alive = view.alive.tolist()
        delivered = {}
        for u, v, uv, vu in zip(
            self.us, self.vs, view.deliver_uv.tolist(), view.deliver_vu.tolist()
        ):
            delivered[u, v], delivered[v, u] = uv, vu
        status = self.status
        if not self.selfstab and round_index % 2 == 0:
            # Announcement round: an undecided node hearing a joiner leaves.
            outs = {
                v
                for v, s in enumerate(status)
                if s == 0 and any(u in self.joined and delivered[u, v] for u in self.neighbours[v])
            }
            for v in outs:
                status[v] = 2
            return set(), outs
        if self.selfstab and view.newly_crashed:
            # An alive out node without an alive member neighbour rebids.
            for v, s in enumerate(status):
                if s == 2 and alive[v]:
                    if not any(status[u] == 1 and alive[u] for u in self.neighbours[v]):
                        status[v] = 0
        bid, heard = self._bids(alive, delivered)
        outs = set()
        if self.selfstab:
            outs = {
                v
                for v in bid
                if any(status[u] == 1 and delivered[u, v] for u in self.neighbours[v])
            }
        joins = {v for v in bid if v not in outs and self._wins(v, bid, heard[v])}
        for v in joins:
            status[v] = 1
        for v in outs:
            status[v] = 2
        self.joined = joins
        return joins, outs


class TestEngineBasics:
    def test_luby_trace_is_valid_and_array_backed(self, engine):
        net = Network.from_edge_arrays(gen.cycle_edges(20))
        trace = engine.run(LubyMISArray(), net, problems.MIS, seed=0)
        assert trace.completed
        assert trace.validate()
        assert trace.algorithm_name == "luby-mis"
        # The trace keeps the engine's rows: the dict views stay unbuilt
        # until asked for.
        assert not trace._views
        assert len(trace.node_outputs) == net.n
        assert set(trace._views) == {"node_outputs"}

    def test_matching_trace_is_valid(self, engine):
        net = Network.from_edge_arrays(gen.random_regular_edges(4, 30, seed=1))
        trace = engine.run(
            RandomizedMatchingArray(), net, problems.MAXIMAL_MATCHING, seed=0
        )
        assert trace.completed
        assert trace.validate()
        assert len(trace.edge_outputs) == net.m

    def test_edgeless_graphs_finish_in_round_zero(self, engine):
        net = Network.from_edge_arrays(EdgeArrays.from_pairs(5, []))
        mis = engine.run(LubyMISArray(), net, problems.MIS, seed=0)
        assert mis.rounds == 0 and mis.completed
        assert mis.node_outputs == {v: True for v in range(5)}
        assert mis.node_commit_round == {v: 0 for v in range(5)}
        matching = engine.run(
            RandomizedMatchingArray(), net, problems.MAXIMAL_MATCHING, seed=0
        )
        assert matching.rounds == 0 and matching.completed
        assert matching.edge_outputs == {}

    def test_isolated_nodes_commit_at_round_zero(self, engine):
        net = Network.from_edge_arrays(EdgeArrays.from_pairs(4, [(0, 1)]))
        trace = engine.run(LubyMISArray(), net, problems.MIS, seed=3)
        assert trace.node_commit_round[2] == 0 and trace.node_commit_round[3] == 0
        assert trace.node_outputs[2] is True and trace.node_outputs[3] is True
        assert trace.validate()

    def test_same_seed_reproduces_the_trace_exactly(self, engine):
        net = Network.from_edge_arrays(gen.erdos_renyi_edges(40, 4.0, seed=5))
        first = engine.run(LubyMISArray(), net, problems.MIS, seed=11)
        second = ArrayEngine().run(LubyMISArray(), net, problems.MIS, seed=11)
        assert first == second

    def test_different_seeds_usually_differ(self, engine):
        net = Network.from_edge_arrays(gen.erdos_renyi_edges(40, 4.0, seed=5))
        traces = [engine.run(LubyMISArray(), net, problems.MIS, seed=s) for s in range(6)]
        outputs = {tuple(sorted(t.selected_nodes())) for t in traces}
        assert len(outputs) > 1

    def test_round_limit_strict_raises(self):
        net = Network.from_edge_arrays(gen.cycle_edges(64))
        engine = ArrayEngine(max_rounds=1, strict=True)
        with pytest.raises(RoundLimitExceeded):
            engine.run(LubyMISArray(), net, problems.MIS, seed=0)

    def test_round_limit_lenient_returns_incomplete(self):
        net = Network.from_edge_arrays(gen.cycle_edges(64))
        engine = ArrayEngine(max_rounds=1, strict=False)
        trace = engine.run(LubyMISArray(), net, problems.MIS, seed=0)
        assert not trace.completed
        assert trace.rounds == 1
        # Only round-1 joiners committed; everything else has no output.
        assert set(trace.node_commit_round.values()) == {1}
        assert all(value is True for value in trace.node_outputs.values())

    def test_invalid_max_rounds(self):
        with pytest.raises(ValueError):
            ArrayEngine(max_rounds=-1)

    def test_experiment_engine_keeps_no_network_of_a_dropped_run(self):
        # An Experiment keeps one ArrayEngine across run() calls, and a
        # callable source builds a new network on every call: once a run's
        # result is dropped, nothing may keep that run's network alive.
        experiment = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=lambda: gen.cycle_edges(40),
            seeds=[0, 1],
            engine="auto",
        )
        result = experiment.run()
        network = weakref.ref(result.run.network)
        del result
        assert network() is None

    @pytest.mark.parametrize("call", ["run", "run_batch"])
    def test_engine_keeps_no_network_after_a_call(self, engine, call):
        # The engine outlives the networks it ran on: once the caller drops
        # a network and its traces, nothing in the engine keeps it alive.
        net = Network.from_edge_arrays(gen.cycle_edges(30))
        if call == "run":
            traces = [engine.run(LubyMISArray(), net, problems.MIS, seed=0)]
        else:
            traces = engine.run_batch(LubyMISArray(), net, problems.MIS, seeds=[0, 1, 2])
        assert all(trace.validate() for trace in traces)
        network = weakref.ref(net)
        del net, traces
        assert network() is None

    @pytest.mark.parametrize(
        "algorithm, problem",
        [
            (LubyMISArray, problems.MIS),
            (RandomizedMatchingArray, problems.MAXIMAL_MATCHING),
        ],
        ids=["luby", "matching"],
    )
    def test_alternating_networks_match_fresh_engines(self, engine, algorithm, problem):
        # One engine serving networks of different sizes in turn (its
        # scratch arena is reused across calls) gives each network the
        # traces a fresh engine gives it.
        nets = [
            Network.from_edge_arrays(gen.erdos_renyi_edges(n, 4.0, seed=n))
            for n in (40, 12, 25)
        ]
        for _ in range(2):
            for net in nets:
                seeds = [net.n, net.n + 1]
                fresh = ArrayEngine().run_batch(algorithm(), net, problem, seeds)
                assert engine.run_batch(algorithm(), net, problem, seeds) == fresh

    def test_works_on_graph_and_array_built_networks(self, engine):
        graph_net = Network.from_graph(gen.erdos_renyi_graph(50, 4.0, seed=9))
        array_net = Network.from_edge_arrays(gen.erdos_renyi_edges(50, 4.0, seed=9))
        a = engine.run(LubyMISArray(), graph_net, problems.MIS, seed=4)
        b = ArrayEngine().run(LubyMISArray(), array_net, problems.MIS, seed=4)
        # Same topology + identifiers + seed schedule → identical execution.
        assert a.node_outputs == b.node_outputs
        assert a.node_commit_round == b.node_commit_round
        assert a.rounds == b.rounds and a.total_messages == b.total_messages


class TestScratchArena:
    def test_carve_hands_out_aligned_disjoint_arrays(self):
        arena = ScratchArena()
        specs = ((3, np.int64), ((2, 5), bool), (7, np.float64), (0, np.int64))
        arrays = arena.carve(*specs)
        for array, (shape, dtype) in zip(arrays, specs):
            assert array.shape == np.empty(shape).shape and array.dtype == dtype
            assert array.size == 0 or array.ctypes.data % 64 == 0
        a, b, c, _ = arrays
        assert not (np.shares_memory(a, b) or np.shares_memory(b, c))
        # A second carve hands out the same bytes again.
        again = arena.carve(*specs)
        assert [x.ctypes.data for x in again] == [x.ctypes.data for x in arrays]

    def test_block_grows_and_never_shrinks(self):
        arena = ScratchArena()
        arena.carve((10, np.int64))
        (large,) = arena.carve((10_000, np.int64))
        (small,) = arena.carve((10, np.int64))
        assert small.ctypes.data == large.ctypes.data


class TestLubyArraySemantics:
    def test_commit_round_parity_matches_the_coroutine_timeline(self, engine):
        net = Network.from_edge_arrays(gen.erdos_renyi_edges(80, 5.0, seed=3))
        trace = engine.run(LubyMISArray(), net, problems.MIS, seed=2)
        for v, value in trace.node_outputs.items():
            r = trace.node_commit_round[v]
            if value:
                # Joins happen at odd rounds (or round 0 for isolated nodes).
                assert r == 0 or r % 2 == 1
            else:
                assert r % 2 == 0 and r > 0

    @staticmethod
    def joins(priorities, undecided, network, identifiers=None):
        # The neutral-element kernel with every message delivered
        # (fault-free): a silent vertex's priority is −1.0.
        _, joins = _luby_local_maxima(
            priorities,
            undecided,
            network.identifier_array if identifiers is None else identifiers,
            *network.edge_endpoints(),
        )
        return joins

    def test_tie_breaking_uses_identifiers(self):
        net = Network.from_edge_arrays(EdgeArrays.from_pairs(3, [(0, 1), (1, 2)]))
        undecided = np.ones(3, dtype=bool)
        priorities = np.array([0.5, 0.5, 0.1])
        joins = self.joins(priorities, undecided, net)
        # Nodes 0 and 1 tie; the larger identifier (1) wins, exactly the
        # coroutine's (priority, identifier) tuple comparison.
        assert joins.tolist() == [False, True, False]
        flipped = self.joins(priorities, undecided, net, identifiers=np.array([5, 1, 0]))
        assert flipped.tolist() == [True, False, False]

    @pytest.mark.parametrize("rows_per_block", [None, 2])
    @pytest.mark.parametrize("graph", ["gnp", "cycle", "grid"])
    def test_batch_kernel_breaks_exact_ties_by_identifier(
        self, monkeypatch, graph, rows_per_block
    ):
        # Uniforms on a grid of three values make exact ties common, in
        # phase 1 and later, so the batch kernel's tie branch runs; each row
        # must equal a pure-Python Luby fed the same draws.  With two rows
        # per block, the five rows span three blocks, the last one short.
        edges = {
            "gnp": gen.fast_gnp_edges(40, 3 / 39, seed=7),
            "cycle": gen.cycle_edges(30),
            "grid": gen.grid_edges(4, 5),
        }[graph]
        network = Network.from_edge_arrays(edges, "permuted", random.Random(5))
        if rows_per_block is not None:
            monkeypatch.setattr(
                luby_module, "_BLOCK_SLOTS", rows_per_block * network.m, raising=False
            )
        # The engine seeds its own PCG64 generators, so the stubs go to the
        # kernel directly, stepped as the engine steps a fault-free batch.
        seeds = range(5)
        algorithm = LubyMISArray()
        rngs = [_GridUniforms(seed) for seed in seeds]
        batch = algorithm.init_batch(network, rngs, ScratchArena())
        rounds = np.zeros(len(rngs), dtype=np.int64)
        active = ~algorithm.batch_complete(batch)
        round_index = 0
        while active.any():
            round_index += 1
            algorithm.step_batch(round_index, batch, network, rngs, active)
            done = algorithm.batch_complete(batch)
            rounds[active & done] = round_index
            active &= ~done
        tie_phases = set()
        for t, seed in enumerate(seeds):
            want = _reference_luby(network, _GridUniforms(seed))
            assert batch.node_rounds[t].tolist() == want["node_rounds"]
            assert batch.node_values[t].tolist() == want["node_values"]
            assert int(batch.messages[t]) == want["messages"]
            assert int(rounds[t]) == want["rounds"]
            tie_phases |= want["tie_phases"]
        assert 1 in tie_phases and max(tie_phases) > 1

    def test_lonely_undecided_node_joins(self):
        # A node whose undecided neighbourhood is empty joins like its
        # coroutine twin does on an empty inbox: its decided neighbour is
        # silent, so it holds the neutral −1.0, and a bid of 0.0 beats it.
        net = Network.from_edge_arrays(EdgeArrays.from_pairs(2, [(0, 1)]))
        undecided = np.array([True, False])
        joins = self.joins(np.array([0.0, -1.0]), undecided, net)
        assert joins.tolist() == [True, False]

    def test_first_phase_message_count_matches_coroutine_exactly(self):
        # Message accounting is decision-dependent from phase 2 on, but the
        # first phase is deterministic: every node broadcasts in both of its
        # rounds, 2m messages each.  Cap the run at the first phase and the
        # two engines must agree exactly.
        net = Network.from_edge_arrays(gen.cycle_edges(30))
        a = ArrayEngine(max_rounds=2, strict=False).run(
            LubyMISArray(), net, problems.MIS, seed=1
        )
        c = Runner(max_rounds=2, strict=False).run(
            LubyMIS(), net, problems.MIS, seed=1
        )
        assert a.total_messages == c.total_messages == 2 * (2 * net.m)


#: What a vertex can hold in one round: silent, a bid on the tie-prone grid
#: of ``_GridUniforms``, or a self-stabilising member's beacon.
_ROUND_VALUES = (-1.0, 0.0, 1 / 3, 2 / 3, 2.0)


@st.composite
def _rounds(draw):
    """A graph on n ≤ 12 vertices with permuted identifiers, one value per
    vertex from ``_ROUND_VALUES``, and per-edge delivery of each direction."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    network = Network.from_edge_arrays(EdgeArrays.from_pairs(n, edges))
    values = np.array(draw(st.lists(st.sampled_from(_ROUND_VALUES), min_size=n, max_size=n)))
    identifiers = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    m = network.m
    deliver_uv, deliver_vu = (
        np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
        for _ in range(2)
    )
    return network, values, identifiers, deliver_uv, deliver_vu


class TestLocalMaxima:
    """``_luby_local_maxima`` against brute force over delivered messages."""

    @given(_rounds())
    @settings(max_examples=200, deadline=None)
    def test_best_and_joins_are_maxima_over_delivered_in_neighbours(self, case):
        network, values, identifiers, deliver_uv, deliver_vu = case
        bidders = (values >= 0.0) & (values < 1.0)
        us, vs = network.edge_endpoints()
        best, joins = _luby_local_maxima(
            values, bidders, identifiers, us, vs, deliver_uv, deliver_vu
        )
        inbox = [[] for _ in network.vertices]
        for u, v, uv, vu in zip(us.tolist(), vs.tolist(), deliver_uv, deliver_vu):
            if uv:
                inbox[v].append(u)
            if vu:
                inbox[u].append(v)
        for v in network.vertices:
            assert best[v] == max([-1.0] + [values[u] for u in inbox[v]])
            mine = (values[v], identifiers[v])
            beats = all(mine > (values[u], identifiers[u]) for u in inbox[v])
            assert joins[v] == (bidders[v] and beats)

    @given(_rounds(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_no_masks_equal_the_alive_masks_when_the_dead_are_silent(self, case, data):
        # A crash-only round: its delivery masks are "both endpoints
        # alive", and a dead vertex holds the neutral −1.0.
        network, values, identifiers, _, _ = case
        alive = np.array(
            data.draw(st.lists(st.booleans(), min_size=network.n, max_size=network.n)),
            dtype=bool,
        )
        values = np.where(alive, values, -1.0)
        bidders = alive & (values >= 0.0) & (values < 1.0)
        us, vs = network.edge_endpoints()
        both = alive[us] & alive[vs]
        bare = _luby_local_maxima(values, bidders, identifiers, us, vs)
        masked = _luby_local_maxima(values, bidders, identifiers, us, vs, both, both)
        assert bare[1].tolist() == masked[1].tolist()
        # A dead receiver hears nothing through the masks; its bare maximum
        # is never read.
        assert bare[0][alive].tolist() == masked[0][alive].tolist()


class TestFaultedLubyKernels:
    """Both faulted Luby kernels against a per-vertex reference, with exact
    bid ties forced by uniforms on {0, 1/3, 2/3}."""

    SCHEDULES = {
        # Crashes in priority and announcement rounds, so joiners die
        # before announcing and members die under their covered nodes.
        "crashes": FaultSchedule(crashes={3: 2, 11: 3, 17: 4, 22: 6, 30: 7, 38: 9}),
        # Drops force the kernels onto their delivery masks.
        "drops": FaultSchedule(crashes={5: 3, 24: 6}, drop_rate=0.25, seed=4),
    }

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("kernel", ["luby", "selfstab"])
    def test_every_round_matches_the_reference(self, kernel, schedule):
        faults = self.SCHEDULES[schedule]
        network = Network.from_edge_arrays(
            gen.fast_gnp_edges(40, 3 / 39, seed=7), "permuted", random.Random(5)
        )
        selfstab = kernel == "selfstab"
        algorithm = SelfStabilizingLubyMISArray() if selfstab else LubyMISArray()
        seeds = range(5)
        rngs = [_GridUniforms(seed) for seed in seeds]
        references = [_ReferenceFaulted(network, _GridUniforms(seed), selfstab) for seed in seeds]
        batch = algorithm.init_batch(network, rngs, ScratchArena())
        active = np.ones(len(rngs), dtype=bool)
        view = None
        # The stubs go to the kernel directly, with one threaded view per
        # round as the engine passes it; every row runs all 16 rounds, by
        # which every alive node has decided.
        for round_index in range(1, 17):
            view = faults.round_faults(round_index, network, view)
            algorithm.step_batch(round_index, batch, network, rngs, active, faults=view)
            for t, reference in enumerate(references):
                joins, outs = reference.step(round_index, view)
                now = batch.node_rounds[t] == round_index
                assert set(np.flatnonzero(now & batch.node_values[t]).tolist()) == joins
                assert set(np.flatnonzero(now & ~batch.node_values[t]).tolist()) == outs
                if selfstab:
                    assert batch.extra["status"][t].tolist() == reference.status
                else:
                    undecided = [s == 0 for s in reference.status]
                    assert batch.extra["undecided"][t].tolist() == undecided
        # Every row decided every alive node, and the tie branch ran.
        assert all(
            all(s != 0 or not alive for s, alive in zip(ref.status, view.alive.tolist()))
            for ref in references
        )
        assert sum(ref.ties for ref in references) > 0


class TestMatchingArraySemantics:
    def test_completion_rounds_are_3_mod_4_on_both_engines(self, engine, runner):
        net = Network.from_edge_arrays(gen.random_regular_edges(3, 20, seed=2))
        for seed in range(5):
            a = engine.run(
                RandomizedMatchingArray(), net, problems.MAXIMAL_MATCHING, seed=seed
            )
            c = runner.run(
                RandomizedMaximalMatching(), net, problems.MAXIMAL_MATCHING, seed=seed
            )
            assert a.rounds % 4 == 3
            assert c.rounds % 4 == 3

    def test_matched_edges_commit_before_removals_propagate(self, engine):
        net = Network.from_edge_arrays(gen.erdos_renyi_edges(40, 3.0, seed=8))
        trace = engine.run(
            RandomizedMatchingArray(), net, problems.MAXIMAL_MATCHING, seed=1
        )
        # Every commit round is ≡ 3 (mod 4): the matched endpoint's commit,
        # never the other endpoint's round-4k duplicate.
        assert all(r % 4 == 3 for r in trace.edge_commit_round.values())

    def test_first_iteration_message_count_matches_coroutine_exactly(self):
        # Rounds 4k−3 / 4k−2 / 4k−1 each cost one message per direction of
        # every undecided edge; capped at round 3 the count is exactly 6m on
        # both engines (round 4k is the first decision-dependent count).
        net = Network.from_edge_arrays(gen.cycle_edges(20))
        a = ArrayEngine(max_rounds=3, strict=False).run(
            RandomizedMatchingArray(), net, problems.MAXIMAL_MATCHING, seed=1
        )
        c = Runner(max_rounds=3, strict=False).run(
            RandomizedMaximalMatching(), net, problems.MAXIMAL_MATCHING, seed=1
        )
        assert a.total_messages == c.total_messages == 3 * (2 * net.m)

    def test_marking_factor_validated_and_forwarded(self):
        with pytest.raises(ValueError):
            RandomizedMatchingArray(marking_factor=0.0)
        twin = RandomizedMaximalMatching(marking_factor=2.5).as_array_algorithm()
        assert isinstance(twin, RandomizedMatchingArray)
        assert twin.marking_factor == 2.5


class TestDifferentialAgainstCoroutine:
    @pytest.mark.parametrize(
        "workload",
        [
            gen.cycle_edges(15),
            gen.random_regular_edges(4, 24, seed=1),
            gen.erdos_renyi_edges(50, 5.0, seed=2),
        ],
        ids=["cycle", "regular", "gnp"],
    )
    def test_verdicts_agree_on_shared_graphs(self, workload, engine, runner):
        net = Network.from_edge_arrays(workload, id_scheme="permuted")
        for seed in range(4):
            mis_a = engine.run(LubyMISArray(), net, problems.MIS, seed=seed)
            mis_c = runner.run(LubyMIS(), net, problems.MIS, seed=seed)
            assert bool(mis_a.validate()) and bool(mis_c.validate())
            match_a = engine.run(
                RandomizedMatchingArray(), net, problems.MAXIMAL_MATCHING, seed=seed
            )
            match_c = runner.run(
                RandomizedMaximalMatching(), net, problems.MAXIMAL_MATCHING, seed=seed
            )
            assert bool(match_a.validate()) and bool(match_c.validate())

    def test_luby_round_distributions_agree_over_seed_sweep(self, engine, runner):
        """Exhaustive fixed-seed sweep: the two engines sample the same
        round-count distribution (deterministic test: fixed seeds)."""
        net = Network.from_edge_arrays(gen.cycle_edges(12))
        seeds = range(300)
        dist_a = Counter(
            engine.run(LubyMISArray(), net, problems.MIS, seed=s).rounds for s in seeds
        )
        dist_c = Counter(
            runner.run(LubyMIS(), net, problems.MIS, seed=s).rounds for s in seeds
        )
        assert _tvd(dist_a, dist_c) < 0.15

    def test_luby_round_distributions_agree_on_gnp(self, engine, runner):
        net = Network.from_edge_arrays(gen.erdos_renyi_edges(60, 5.0, seed=2))
        seeds = range(200)
        dist_a = Counter(
            engine.run(LubyMISArray(), net, problems.MIS, seed=s).rounds for s in seeds
        )
        dist_c = Counter(
            runner.run(LubyMIS(), net, problems.MIS, seed=s).rounds for s in seeds
        )
        assert _tvd(dist_a, dist_c) < 0.2

    def test_single_edge_matching_is_geometric_on_both_engines(self, engine, runner):
        """On K₂ the iteration count is exactly Geometric(1/8); both paths
        must land on its mean (8) within sampling tolerance."""
        net = Network.from_edge_arrays(EdgeArrays.from_pairs(2, [(0, 1)]))
        seeds = range(1500)
        iters_a = [
            (engine.run(
                RandomizedMatchingArray(), net, problems.MAXIMAL_MATCHING, seed=s
            ).rounds + 1) // 4
            for s in seeds
        ]
        iters_c = [
            (runner.run(
                RandomizedMaximalMatching(), net, problems.MAXIMAL_MATCHING, seed=s
            ).rounds + 1) // 4
            for s in seeds
        ]
        assert abs(statistics.mean(iters_a) - 8.0) < 1.0
        assert abs(statistics.mean(iters_c) - 8.0) < 1.0

    def test_matching_mean_rounds_agree_over_seed_sweep(self, engine, runner):
        net = Network.from_edge_arrays(gen.cycle_edges(12))
        seeds = range(800)
        mean_a = statistics.mean(
            engine.run(
                RandomizedMatchingArray(), net, problems.MAXIMAL_MATCHING, seed=s
            ).rounds
            for s in seeds
        )
        mean_c = statistics.mean(
            runner.run(
                RandomizedMaximalMatching(), net, problems.MAXIMAL_MATCHING, seed=s
            ).rounds
            for s in seeds
        )
        assert abs(mean_a - mean_c) / mean_c < 0.10

    def test_mis_sizes_agree_in_expectation(self, engine, runner):
        net = Network.from_edge_arrays(gen.erdos_renyi_edges(60, 5.0, seed=2))
        seeds = range(200)
        mean_a = statistics.mean(
            len(engine.run(LubyMISArray(), net, problems.MIS, seed=s).selected_nodes())
            for s in seeds
        )
        mean_c = statistics.mean(
            len(runner.run(LubyMIS(), net, problems.MIS, seed=s).selected_nodes())
            for s in seeds
        )
        assert abs(mean_a - mean_c) / mean_c < 0.05


class TestPinnedSeedSchedule:
    """Fixed-seed executions pin the documented PCG64 block schedule.

    If these fail after a refactor, the engine's seed schedule drifted —
    that is a breaking change for reproducibility and must be deliberate
    (bump the documentation in ``repro/local/engine.py`` and
    ``docs/seed-schedules.md`` alongside).
    """

    def test_luby_on_cycle9_seed7(self):
        net = Network.from_edge_arrays(gen.cycle_edges(9))
        trace = ArrayEngine().run(LubyMISArray(), net, problems.MIS, seed=7)
        assert trace.node_outputs == {
            0: False, 1: True, 2: False, 3: True, 4: False,
            5: True, 6: False, 7: True, 8: False,
        }
        assert trace.node_commit_round == {
            0: 2, 1: 1, 2: 2, 3: 3, 4: 2, 5: 1, 6: 2, 7: 1, 8: 2,
        }
        assert trace.rounds == 3
        assert trace.total_messages == 38

    def test_matching_on_cycle9_seed7(self):
        net = Network.from_edge_arrays(gen.cycle_edges(9))
        trace = ArrayEngine().run(
            RandomizedMatchingArray(), net, problems.MAXIMAL_MATCHING, seed=7
        )
        assert trace.selected_edges() == [(0, 1), (3, 4), (5, 6), (7, 8)]
        assert trace.edge_commit_round == {
            (0, 1): 27, (0, 8): 19, (1, 2): 27, (2, 3): 51, (3, 4): 51,
            (4, 5): 3, (5, 6): 3, (6, 7): 3, (7, 8): 19,
        }
        assert trace.rounds == 51
        assert trace.total_messages == 414


class TestEngineRouting:
    def test_run_trials_engine_array_uses_the_engine(self):
        net = Network.from_edge_arrays(gen.cycle_edges(16))
        traces = run_trials(
            LubyMIS, net, problems.MIS, trials=3, seed=5, engine="array"
        )
        expected = [
            ArrayEngine().run(LubyMISArray(), net, problems.MIS, seed=trial_seed(5, i))
            for i in range(3)
        ]
        assert [t.node_outputs for t in traces] == [t.node_outputs for t in expected]
        assert [t.rounds for t in traces] == [t.rounds for t in expected]

    def test_run_trials_engine_auto_picks_array_for_protocol_algorithms(self):
        net = Network.from_edge_arrays(gen.cycle_edges(16))
        auto = run_trials(LubyMIS, net, problems.MIS, trials=2, seed=1, engine="auto")
        explicit = run_trials(
            LubyMIS, net, problems.MIS, trials=2, seed=1, engine="array"
        )
        assert [t.node_outputs for t in auto] == [t.node_outputs for t in explicit]

    def test_run_trials_engine_node_stays_on_the_coroutine_path(self):
        net = Network.from_edge_arrays(gen.cycle_edges(16))
        node = run_trials(LubyMIS, net, problems.MIS, trials=2, seed=1, engine="node")
        reference = [
            Runner().run(LubyMIS(), net, problems.MIS, seed=trial_seed(1, i))
            for i in range(2)
        ]
        assert [t.node_outputs for t in node] == [t.node_outputs for t in reference]

    def test_engine_auto_falls_back_for_non_protocol_algorithms(self):
        from repro.algorithms.ruling_set.randomized import RandomizedTwoTwoRulingSet

        net = Network.from_edge_arrays(gen.cycle_edges(12))
        problem = problems.ruling_set(2, 2)
        traces = run_trials(
            lambda: RandomizedTwoTwoRulingSet(),
            net,
            problem,
            trials=1,
            seed=0,
            engine="auto",
        )
        reference = Runner().run(RandomizedTwoTwoRulingSet(), net, problem, seed=0)
        assert traces[0].node_outputs == reference.node_outputs
        assert traces[0].rounds == reference.rounds

    def test_engine_array_rejects_non_protocol_algorithms(self):
        from repro.algorithms.ruling_set.randomized import RandomizedTwoTwoRulingSet

        net = Network.from_edge_arrays(gen.cycle_edges(12))
        with pytest.raises(TypeError):
            run_trials(
                lambda: RandomizedTwoTwoRulingSet(),
                net,
                problems.ruling_set(2, 2),
                trials=1,
                engine="array",
            )

    def test_unknown_engine_rejected(self):
        net = Network.from_edge_arrays(gen.cycle_edges(12))
        with pytest.raises(ValueError):
            run_trials(LubyMIS, net, problems.MIS, trials=1, engine="vectorised")
        with pytest.raises(ValueError):
            Experiment(
                problem=problems.MIS,
                algorithm=LubyMIS,
                graphs=net,
                trials=1,
                engine="vectorised",
            )

    def test_experiment_engine_auto_matches_manual_engine_runs(self):
        arrays = gen.fast_gnp_edges(300, 8.0 / 299, seed=11)
        result = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=arrays,
            trials=2,
            id_scheme="sequential",
            engine="auto",
        ).run()
        run = result.run
        assert run.ok
        net = run.network
        expected = [
            ArrayEngine(max_rounds=20_000).run(
                LubyMISArray(), net, problems.MIS, seed=trial_seed(0, i)
            )
            for i in range(2)
        ]
        assert [t.node_outputs for t in run.traces] == [
            t.node_outputs for t in expected
        ]
        assert [t.rounds for t in run.traces] == [t.rounds for t in expected]

    def test_experiment_default_stays_bit_exact_on_the_node_path(self):
        arrays = gen.fast_gnp_edges(300, 8.0 / 299, seed=11)
        result = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=arrays,
            trials=2,
            id_scheme="sequential",
        ).run()
        net = result.run.network
        reference = [
            Runner(max_rounds=20_000).run(
                LubyMIS(), net, problems.MIS, seed=trial_seed(0, i)
            )
            for i in range(2)
        ]
        assert [t.node_outputs for t in result.run.traces] == [
            t.node_outputs for t in reference
        ]

    def test_sweep_engine_array_produces_valid_measurements(self):
        from repro.analysis.sweep import sweep

        points = sweep(
            "n",
            [24, 36],
            lambda n: gen.cycle_edges(n),
            {
                "luby": (lambda net: LubyMIS(), lambda net: problems.MIS),
                "matching": (
                    lambda net: RandomizedMaximalMatching(),
                    lambda net: problems.MAXIMAL_MATCHING,
                ),
            },
            trials=2,
            seed=0,
            engine="auto",
        )
        assert len(points) == 4
        for point in points:
            assert point.measurement.worst_case >= 1
            assert point.measurement.trials == 2
