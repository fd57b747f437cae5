"""Tests for the synchronous runner, commit semantics, and coroutine wrapper.

The completion-time stamps produced here are the raw material of every
averaged-complexity measurement, so these tests pin down the exact semantics:
round-0 commits during ``init``, commits while processing round ``t`` are
stamped ``t``, halted nodes stop sending, and conflicting edge commits are
rejected.
"""

from __future__ import annotations

import gc
import weakref

import networkx as nx
import pytest

from repro.algorithms.mis.luby import LubyMIS
from repro.core import problems
from repro.core.problems import ProblemSpec, ValidationResult
from repro.graphs.edgelist import EdgeArrays
from repro.graphs.generators import cycle_edges
from repro.local.algorithm import Broadcast, NodeAlgorithm
from repro.local.coroutine import CoroutineAlgorithm
from repro.local.network import Network
from repro.local.node import CommitError
from repro.local.runner import Runner, RoundLimitExceeded, estimate_message_bits

from test_runner_golden import ALGORITHMS as GOLDEN_ALGORITHMS, FAULTED
from test_selfstab_golden import MAX_ROUNDS, SCHEDULES, trace_payload
from test_selfstab_golden import graph as golden_graph


def _always_valid(name: str, labels_nodes: bool = True, labels_edges: bool = False) -> ProblemSpec:
    return ProblemSpec(
        name=name,
        labels_nodes=labels_nodes,
        labels_edges=labels_edges,
        validator=lambda *_: ValidationResult(True),
    )


class CommitAtInit(NodeAlgorithm):
    name = "commit-at-init"

    def init(self, node):
        node.commit(node.identifier)


class CommitAfterOneRound(NodeAlgorithm):
    name = "commit-after-one-round"

    def send(self, node):
        return {u: node.identifier for u in node.neighbors}

    def receive(self, node, messages):
        node.commit(min([node.identifier, *messages.values()]))


class EchoDegree(CoroutineAlgorithm):
    name = "echo-degree"

    def run(self, node):
        inbox = yield {u: "ping" for u in node.neighbors}
        node.commit(len(inbox))


class CommitEdgesToSmallerId(CoroutineAlgorithm):
    name = "edge-committer"

    def run(self, node):
        inbox = yield {u: node.identifier for u in node.neighbors}
        for u, their_id in inbox.items():
            node.commit_edge(u, min(node.identifier, their_id))


class ConflictingEdgeCommitter(CoroutineAlgorithm):
    name = "conflicting-edges"

    def run(self, node):
        inbox = yield {u: node.identifier for u in node.neighbors}
        for u in inbox:
            node.commit_edge(u, node.identifier)  # endpoints commit different values


class NeverCommits(NodeAlgorithm):
    name = "never-commits"


class TestBasicExecution:
    def test_init_commits_are_round_zero(self, runner):
        net = Network.from_graph(nx.path_graph(5))
        trace = runner.run(CommitAtInit(), net, _always_valid("p"), seed=0)
        assert trace.rounds == 0
        assert all(r == 0 for r in trace.node_commit_round.values())

    def test_one_round_commit_stamps_round_one(self, runner):
        net = Network.from_graph(nx.cycle_graph(6))
        trace = runner.run(CommitAfterOneRound(), net, _always_valid("p"), seed=0)
        assert trace.rounds == 1
        assert set(trace.node_commit_round.values()) == {1}

    def test_callback_and_coroutine_styles_agree(self, runner):
        net = Network.from_graph(nx.cycle_graph(6))
        a = runner.run(CommitAfterOneRound(), net, _always_valid("p"), seed=0)
        b = runner.run(EchoDegree(), net, _always_valid("p"), seed=0)
        assert a.rounds == b.rounds == 1

    def test_degree_counted_from_messages(self, runner):
        net = Network.from_graph(nx.star_graph(5))
        trace = runner.run(EchoDegree(), net, _always_valid("p"), seed=0)
        assert trace.node_outputs[0] == 5
        assert all(trace.node_outputs[v] == 1 for v in range(1, 6))

    def test_message_count_tracked(self, runner):
        net = Network.from_graph(nx.cycle_graph(10))
        trace = runner.run(EchoDegree(), net, _always_valid("p"), seed=0)
        assert trace.total_messages == 20  # every node messages both neighbours once

    def test_edge_commits_collected_consistently(self, runner):
        net = Network.from_graph(nx.cycle_graph(8))
        problem = _always_valid("edges", labels_nodes=False, labels_edges=True)
        trace = runner.run(CommitEdgesToSmallerId(), net, problem, seed=0)
        assert len(trace.edge_outputs) == net.m
        for (u, v), value in trace.edge_outputs.items():
            assert value == min(net.identifier(u), net.identifier(v))

    def test_conflicting_edge_commits_raise(self, runner):
        net = Network.from_graph(nx.path_graph(3))
        problem = _always_valid("edges", labels_nodes=False, labels_edges=True)
        with pytest.raises(CommitError):
            runner.run(ConflictingEdgeCommitter(), net, problem, seed=0)

    def test_round_limit_strict_raises(self):
        net = Network.from_graph(nx.path_graph(4))
        runner = Runner(max_rounds=5, strict=True)
        with pytest.raises(RoundLimitExceeded):
            runner.run(NeverCommits(), net, _always_valid("p"), seed=0)

    def test_round_limit_lenient_returns_incomplete(self):
        net = Network.from_graph(nx.path_graph(4))
        runner = Runner(max_rounds=5, strict=False)
        trace = runner.run(NeverCommits(), net, _always_valid("p"), seed=0)
        assert not trace.completed
        assert trace.rounds == 5
        # Uncommitted nodes are charged the full execution length.
        assert all(t == 5 for t in trace.node_completion_times())

    def test_sending_to_non_neighbor_rejected(self, runner):
        class BadSender(NodeAlgorithm):
            name = "bad-sender"

            def send(self, node):
                return {node.vertex + 100: "boom"}

        net = Network.from_graph(nx.path_graph(4))
        with pytest.raises(ValueError):
            runner.run(BadSender(), net, _always_valid("p"), seed=0)

    def test_determinism_with_equal_seed(self, runner):
        from repro.algorithms.mis.luby import LubyMIS

        net = Network.from_graph(nx.gnp_random_graph(30, 0.15, seed=2))
        a = runner.run(LubyMIS(), net, problems.MIS, seed=42)
        b = runner.run(LubyMIS(), net, problems.MIS, seed=42)
        assert a.node_outputs == b.node_outputs
        assert a.node_commit_round == b.node_commit_round

    @pytest.mark.parametrize("algorithm_key", ["luby", "matching", "orientation"])
    def test_full_trace_determinism_across_runner_instances(self, algorithm_key):
        """Equal seeds give identical traces — outputs, commit rounds, messages.

        Runs each seed through a *shared* runner (which reuses its node pool
        between runs) and a *fresh* runner (which builds nodes from scratch);
        the two code paths must agree exactly, for node- and edge-labelling
        problems alike.
        """
        from repro.algorithms.matching.randomized import RandomizedMaximalMatching
        from repro.algorithms.mis.luby import LubyMIS
        from repro.algorithms.orientation.randomized import RandomizedSinklessOrientation

        make, problem, graph = {
            "luby": (LubyMIS, problems.MIS, nx.gnp_random_graph(40, 0.15, seed=3)),
            "matching": (
                RandomizedMaximalMatching,
                problems.MAXIMAL_MATCHING,
                nx.random_regular_graph(4, 40, seed=4),
            ),
            "orientation": (
                RandomizedSinklessOrientation,
                problems.SINKLESS_ORIENTATION,
                nx.random_regular_graph(4, 30, seed=5),
            ),
        }[algorithm_key]
        net = Network.from_graph(graph, id_scheme="permuted")
        shared = Runner(max_rounds=20_000)
        for seed in (0, 7, 123):
            traces = [
                shared.run(make(), net, problem, seed=seed),
                shared.run(make(), net, problem, seed=seed),  # pooled re-run
                Runner(max_rounds=20_000).run(make(), net, problem, seed=seed),
            ]
            first = traces[0]
            for other in traces[1:]:
                assert other.node_outputs == first.node_outputs
                assert other.node_commit_round == first.node_commit_round
                assert other.edge_outputs == first.edge_outputs
                assert other.edge_commit_round == first.edge_commit_round
                assert other.rounds == first.rounds
                assert other.completed == first.completed
                assert other.total_messages == first.total_messages

    def test_different_seeds_usually_differ(self, runner):
        from repro.algorithms.mis.luby import LubyMIS

        net = Network.from_graph(nx.gnp_random_graph(40, 0.2, seed=2))
        a = runner.run(LubyMIS(), net, problems.MIS, seed=1)
        b = runner.run(LubyMIS(), net, problems.MIS, seed=2)
        assert a.node_outputs != b.node_outputs

    def test_recommitting_same_value_is_noop(self, runner):
        class DoubleCommit(NodeAlgorithm):
            name = "double-commit"

            def init(self, node):
                node.commit(1)
                node.commit(1)

        net = Network.from_graph(nx.path_graph(3))
        trace = runner.run(DoubleCommit(), net, _always_valid("p"), seed=0)
        assert set(trace.node_outputs.values()) == {1}

    def test_recommitting_different_value_raises(self, runner):
        class Flaky(NodeAlgorithm):
            name = "flaky"

            def init(self, node):
                node.commit(1)
                node.commit(2)

        net = Network.from_graph(nx.path_graph(3))
        with pytest.raises(CommitError):
            runner.run(Flaky(), net, _always_valid("p"), seed=0)

    def test_invalid_max_rounds(self):
        with pytest.raises(ValueError):
            Runner(max_rounds=-1)


class TestBroadcast:
    def test_broadcast_equals_explicit_neighbor_dict(self, runner):
        class DictSender(CoroutineAlgorithm):
            name = "dict-sender"

            def run(self, node):
                inbox = yield {u: node.identifier for u in node.neighbors}
                node.commit(min([node.identifier, *inbox.values()]))

        class BroadcastSender(CoroutineAlgorithm):
            name = "broadcast-sender"

            def run(self, node):
                inbox = yield Broadcast(node.identifier)
                node.commit(min([node.identifier, *inbox.values()]))

        net = Network.from_graph(nx.gnp_random_graph(25, 0.2, seed=8))
        a = runner.run(DictSender(), net, _always_valid("p"), seed=0)
        b = runner.run(BroadcastSender(), net, _always_valid("p"), seed=0)
        assert a.node_outputs == b.node_outputs
        assert a.node_commit_round == b.node_commit_round
        assert a.total_messages == b.total_messages

    def test_broadcast_from_callback_send(self, runner):
        class CallbackBroadcaster(NodeAlgorithm):
            name = "callback-broadcast"

            def send(self, node):
                return Broadcast("ping")

            def receive(self, node, messages):
                node.commit(len(messages))

        net = Network.from_graph(nx.star_graph(5))
        trace = runner.run(CallbackBroadcaster(), net, _always_valid("p"), seed=0)
        assert trace.node_outputs[0] == 5
        assert all(trace.node_outputs[v] == 1 for v in range(1, 6))
        assert trace.total_messages == 10


class TestMessageSizeEstimates:
    @pytest.mark.parametrize(
        "payload, minimum",
        [
            (None, 1),
            (True, 1),
            (7, 3),
            (3.5, 64),
            ("abc", 24),
            ((1, 2, 3), 6),
            ({"a": 1}, 8),
        ],
    )
    def test_estimates_are_positive_and_sane(self, payload, minimum):
        assert estimate_message_bits(payload) >= minimum

    def test_congest_tracking(self):
        net = Network.from_graph(nx.cycle_graph(6))
        runner = Runner(track_message_bits=True)
        trace = runner.run(EchoDegree(), net, _always_valid("p"), seed=0)
        assert trace.max_message_bits is not None
        assert trace.max_message_bits < 64  # "ping" strings are tiny


class TestCoroutineWrapper:
    def test_returning_immediately_halts_node(self, runner):
        class InstantReturn(CoroutineAlgorithm):
            name = "instant"

            def run(self, node):
                node.commit("done")
                return
                yield {}  # pragma: no cover

        net = Network.from_graph(nx.path_graph(4))
        trace = runner.run(InstantReturn(), net, _always_valid("p"), seed=0)
        assert trace.rounds == 0

    def test_yield_without_messages_keeps_listening(self, runner):
        class Listener(CoroutineAlgorithm):
            name = "listener"

            def run(self, node):
                inbox = yield {}
                node.commit(len(inbox))

        class Talker(CoroutineAlgorithm):
            name = "talker"

            def run(self, node):
                inbox = yield {u: "hello" for u in node.neighbors}
                node.commit(len(inbox))

        net = Network.from_graph(nx.path_graph(3))
        silent = runner.run(Listener(), net, _always_valid("p"), seed=0)
        chatty = runner.run(Talker(), net, _always_valid("p"), seed=0)
        assert all(v == 0 for v in silent.node_outputs.values())
        assert chatty.node_outputs[1] == 2


def run_and_drop(build, seed, faults=None):
    """Run ``build() -> (network, algorithm, problem)`` with the collector
    off, drop the runner, the trace and the network, and return the type of
    the error the run raised (``None`` when it finished).

    Each node references the run's completion tracker, which holds the node
    tuple, and an unfinished node's program holds its node.  The runner
    breaks both cycles, so reference counting alone must free the network
    and every node, whether the run finished or raised.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        network, algorithm, problem = build()
        runner = Runner(max_rounds=MAX_ROUNDS, strict=False)
        trace, raised = None, None
        try:
            trace = runner.run(algorithm, network, problem, seed=seed, faults=faults)
        except (TypeError, CommitError) as exc:
            raised = type(exc)
        network_ref = weakref.ref(network)
        # NodeRuntime has no weakref slot; each node's own Random dies
        # with it.
        rng_refs = [weakref.ref(node.rng) for node in runner._pool_nodes]
        del runner, trace, network, algorithm
        assert network_ref() is None
        assert not any(ref() is not None for ref in rng_refs)
        return raised
    finally:
        if was_enabled:
            gc.enable()


#: The golden faulted runs that raise on ``golden_graph(1, 30)``.
RAISING = [
    ("luby-mis", "waves-delay", TypeError),
    ("randomized-matching", "waves-drop", CommitError),
]


class TestRunLifetime:
    def test_finished_run_is_freed_without_the_collector(self):
        def build():
            return Network.from_edge_arrays(cycle_edges(2000)), LubyMIS(), problems.MIS

        assert run_and_drop(build, seed=0) is None

    @pytest.mark.parametrize("name", sorted(GOLDEN_ALGORITHMS))
    def test_every_algorithm_frees_its_run(self, name):
        def build():
            network = golden_graph(1, 30)
            return (network, *GOLDEN_ALGORITHMS[name](network))

        assert run_and_drop(build, seed=1) is None

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("name", sorted(FAULTED))
    def test_faulted_run_is_freed_whether_it_finishes_or_raises(self, name, schedule):
        raised = run_and_drop(
            lambda: (golden_graph(1, 30), *FAULTED[name]()),
            seed=1,
            faults=SCHEDULES[schedule](30, 1),
        )
        expected = {(n, s): error for n, s, error in RAISING}.get((name, schedule))
        assert raised is expected

    @pytest.mark.parametrize("name, schedule, error", RAISING)
    def test_runner_reused_after_a_raising_run_matches_a_fresh_one(
        self, name, schedule, error
    ):
        # The raising run leaves its nodes mid-program; the pooled rerun on
        # the same network must start them afresh.
        network = golden_graph(1, 30)
        shared = Runner(max_rounds=MAX_ROUNDS, strict=False)
        algorithm, problem = FAULTED[name]()
        with pytest.raises(error):
            shared.run(algorithm, network, problem, seed=1, faults=SCHEDULES[schedule](30, 1))
        payloads = []
        for runner in (shared, Runner(max_rounds=MAX_ROUNDS, strict=False)):
            algorithm, problem = FAULTED[name]()
            payloads.append(trace_payload(runner.run(algorithm, network, problem, seed=2)))
        assert payloads[0] == payloads[1]


class TestEdgeHotPathLaziness:
    """ISSUE-5 regressions: edge-labelling runs resolve edge slots through
    the packed-key int index, so networks never materialise a tuple per
    edge (the `edges` view) on the runner hot path."""

    def _array_network(self, n=60, seed=4):
        from repro.graphs.generators import fast_gnp_edges

        arrays = fast_gnp_edges(n, 5.0 / (n - 1), seed=seed)
        return Network.from_edge_arrays(arrays)

    def test_matching_run_keeps_edge_tuples_lazy(self):
        from repro.algorithms.matching.randomized import RandomizedMaximalMatching

        net = self._array_network()
        runner = Runner(max_rounds=5000)
        trace = runner.run(
            RandomizedMaximalMatching(), net, problems.MAXIMAL_MATCHING, seed=0
        )
        assert trace.completed
        # Tracker + trace collection went through the packed int index:
        assert net._edges_cache is None, "edge tuple view was materialised"
        assert net._rows is not None  # the per-node simulator does need rows

    def test_packed_collection_matches_graph_network_run(self):
        from repro.algorithms.matching.randomized import RandomizedMaximalMatching
        from repro.graphs.generators import erdos_renyi_edges, erdos_renyi_graph

        graph_net = Network.from_graph(erdos_renyi_graph(50, 4.0, seed=7))
        array_net = Network.from_edge_arrays(erdos_renyi_edges(50, 4.0, seed=7))
        runner = Runner(max_rounds=5000)
        a = runner.run(
            RandomizedMaximalMatching(), graph_net, problems.MAXIMAL_MATCHING, seed=3
        )
        b = Runner(max_rounds=5000).run(
            RandomizedMaximalMatching(), array_net, problems.MAXIMAL_MATCHING, seed=3
        )
        assert a.edge_outputs == b.edge_outputs
        assert a.edge_commit_round == b.edge_commit_round
        assert a.rounds == b.rounds and a.total_messages == b.total_messages

    def test_commits_towards_non_neighbours_still_ignored(self, runner):
        class StrayCommitter(CoroutineAlgorithm):
            name = "stray-committer"

            def run(self, node):
                # Commit the real incident edges plus a fake far-away one.
                for u in node.neighbors:
                    node.commit_edge(u, True)
                node.commit_edge(node.vertex + 10_000, True)
                return
                yield {}

        net = Network.from_graph(nx.path_graph(4))
        problem = _always_valid("edges", labels_nodes=False, labels_edges=True)
        trace = runner.run(StrayCommitter(), net, problem, seed=0)
        assert set(trace.edge_outputs) == set(net.edges)
        assert all(value is True for value in trace.edge_outputs.values())

    def test_out_of_range_commits_do_not_alias_packed_keys(self, runner):
        # n=5: a commit towards vertex 7 from vertex 0 packs to the same
        # key as the real edge (1, 2); it must be ignored, not mark (1, 2)
        # decided (premature completion) or leak into the trace.
        class AliasingCommitter(CoroutineAlgorithm):
            name = "aliasing-committer"

            def run(self, node):
                if node.vertex == 0:
                    node.commit_edge(7, True)
                inbox = yield {}
                for u in node.neighbors:
                    node.commit_edge(u, False)
                return

        net = Network.from_edge_arrays(EdgeArrays.from_pairs(5, [(1, 2), (0, 3)]))
        problem = _always_valid("edges", labels_nodes=False, labels_edges=True)
        trace = runner.run(AliasingCommitter(), net, problem, seed=0)
        assert trace.edge_outputs == {(0, 3): False, (1, 2): False}
        assert trace.edge_commit_round == {(0, 3): 1, (1, 2): 1}


class TestFactoryInvocationCount:
    def test_run_trials_calls_the_factory_once_per_trial(self):
        from repro.algorithms.mis.luby import LubyMIS
        from repro.core.experiment import run_trials

        net = Network.from_graph(nx.cycle_graph(12))
        for engine in ("node", "array", "auto"):
            calls = []

            def factory():
                calls.append(1)
                return LubyMIS()

            run_trials(factory, net, problems.MIS, trials=3, seed=0, engine=engine)
            assert len(calls) == 3, f"engine={engine} called the factory {len(calls)}x"
