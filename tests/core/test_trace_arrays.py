"""Array-backed ExecutionTrace storage and its lazy dict views.

The runner stores outputs and commit rounds in flat per-slot arrays
(:meth:`ExecutionTrace.from_arrays`); the historical dict attributes are
derived lazily.  Hand-built traces (tests) still construct dict-first.  These tests pin that the two representations are
interchangeable: same dict views, same completion times, same validation
verdicts, and that the hot paths never export the topology to networkx.
"""

from __future__ import annotations

import pickle
import random
from array import array

import networkx as nx
import pytest

from repro.algorithms.mis.luby import LubyMIS
from repro.core import problems
from repro.core.experiment import run_trials
from repro.core.metrics import measure
from repro.core.trace import ExecutionTrace
from repro.graphs import generators as gen
from repro.local.network import Network
from repro.local.runner import Runner


def _mis_trace_pair():
    """The same MIS execution result built dict-first and array-first."""
    network = Network.from_edges(*gen.cycle_edges(6))
    node_outputs = {0: True, 1: False, 2: True, 3: False, 4: True, 5: False}
    node_rounds_dict = {0: 0, 1: 1, 2: 0, 3: 2, 4: 1, 5: 1}
    dict_trace = ExecutionTrace(
        network=network,
        problem=problems.MIS,
        node_outputs=dict(node_outputs),
        node_commit_round=dict(node_rounds_dict),
        rounds=3,
        algorithm_name="manual",
    )
    node_values = [node_outputs[v] for v in range(6)]
    node_rounds = array("q", [node_rounds_dict[v] for v in range(6)])
    array_trace = ExecutionTrace.from_arrays(
        network,
        problems.MIS,
        node_values,
        node_rounds,
        [None] * network.m,
        array("q", [-1]) * network.m,
        rounds=3,
        algorithm_name="manual",
    )
    return dict_trace, array_trace


class TestRepresentationEquivalence:
    def test_dict_views_match(self):
        dict_trace, array_trace = _mis_trace_pair()
        assert array_trace.node_outputs == dict_trace.node_outputs
        assert array_trace.node_commit_round == dict_trace.node_commit_round
        assert array_trace.edge_outputs == dict_trace.edge_outputs == {}
        assert array_trace.edge_commit_round == dict_trace.edge_commit_round == {}

    def test_array_views_match(self):
        dict_trace, array_trace = _mis_trace_pair()
        assert list(dict_trace.node_commit_rounds()) == list(array_trace.node_commit_rounds())
        assert list(dict_trace.edge_commit_rounds()) == list(array_trace.edge_commit_rounds())

    def test_completion_times_match(self):
        dict_trace, array_trace = _mis_trace_pair()
        assert dict_trace.node_completion_times() == array_trace.node_completion_times()
        assert dict_trace.edge_completion_times() == array_trace.edge_completion_times()
        assert dict_trace.worst_case_rounds() == array_trace.worst_case_rounds()
        for v in range(6):
            assert dict_trace.node_completion_time(v) == array_trace.node_completion_time(v)
        for u, v in dict_trace.network.edges:
            assert dict_trace.edge_completion_time(u, v) == array_trace.edge_completion_time(u, v)

    def test_validation_and_selection_match(self):
        dict_trace, array_trace = _mis_trace_pair()
        assert bool(dict_trace.validate()) == bool(array_trace.validate())
        assert dict_trace.selected_nodes() == array_trace.selected_nodes()
        assert dict_trace.selected_edges() == array_trace.selected_edges()
        assert dict_trace.summary() == array_trace.summary()

    def test_measure_matches(self):
        dict_trace, array_trace = _mis_trace_pair()
        assert measure([dict_trace]) == measure([array_trace])


class TestUncommittedSlots:
    def test_missing_slots_charged_full_length(self):
        network = Network.from_edges(*gen.path_edges(3))
        trace = ExecutionTrace.from_arrays(
            network,
            problems.MIS,
            [True, None, None],
            array("q", [1, -1, -1]),
            [None] * network.m,
            array("q", [-1]) * network.m,
            rounds=7,
            completed=False,
        )
        assert trace.node_completion_times() == [1, 7, 7]
        assert trace.node_outputs == {0: True}
        assert trace.node_commit_round == {0: 1}
        result = trace.validate()
        assert not result and "missing node outputs" in result.reason

    def test_committed_none_is_not_missing(self):
        """A node that committed the value None must count as committed."""
        network = Network.from_edges(2, [(0, 1)])
        trace = ExecutionTrace.from_arrays(
            network,
            problems.coloring(None),
            [None, 0],
            array("q", [0, 0]),
            [None] * network.m,
            array("q", [-1]) * network.m,
            rounds=1,
        )
        assert trace.node_outputs == {0: None, 1: 0}
        # No "missing" failure: the validator itself decides (here the two
        # distinct labels are a proper colouring).
        assert trace.validate()


class TestRunnerProducesArrayTraces:
    def test_runner_trace_is_array_canonical(self):
        network = Network.from_edges(*gen.cycle_edges(12))
        trace = Runner().run(LubyMIS(), network, problems.MIS, seed=0)
        assert trace._node_values is not None
        assert trace._node_rounds is not None
        # Dict views derive lazily and agree with the arrays.
        rounds_arr = trace.node_commit_rounds()
        assert set(trace.node_outputs) == {v for v in range(12) if rounds_arr[v] >= 0}
        trace.require_valid()

    def test_engine_trace_adopts_the_state_rows(self):
        """Engine traces keep the engine's numpy rows: GC-untracked storage,
        Python scalars through the dict views."""
        import gc

        from repro.local.engine import ArrayEngine

        network = Network.from_edges(*gen.cycle_edges(12))
        trace = ArrayEngine().run(
            LubyMIS().as_array_algorithm(), network, problems.MIS, seed=0
        )
        for row in (trace._node_values, trace._node_rounds, trace._edge_values):
            assert not gc.is_tracked(row)
        assert not trace.node_commit_rounds().flags.writeable
        assert {type(value) for value in trace.node_outputs.values()} == {bool}
        assert {type(r) for r in trace.node_commit_round.values()} == {int}
        assert trace.validate()

    @pytest.mark.parametrize("name", ["mis", "matching"])
    def test_engine_trace_pickles(self, name):
        from repro.algorithms.matching.randomized import RandomizedMaximalMatching
        from repro.local.engine import ArrayEngine

        algorithm, problem = {
            "mis": (LubyMIS(), problems.MIS),
            "matching": (RandomizedMaximalMatching(), problems.MAXIMAL_MATCHING),
        }[name]
        network = Network.from_edges(*gen.cycle_edges(12))
        trace = ArrayEngine().run(algorithm.as_array_algorithm(), network, problem, seed=0)
        copy = pickle.loads(pickle.dumps(trace))
        assert copy.problem == problem
        assert copy.node_outputs == trace.node_outputs
        assert copy.edge_outputs == trace.edge_outputs
        assert copy.node_completion_times() == trace.node_completion_times()
        assert copy.validate()

    def test_batch_traces_own_their_rows(self):
        """A retained batch trace must not keep the whole chunk's matrices alive."""
        from repro.local.engine import ArrayEngine

        network = Network.from_edges(*gen.cycle_edges(12))
        traces = ArrayEngine().run_batch(
            LubyMIS().as_array_algorithm(), network, problems.MIS, seeds=range(4)
        )
        for trace in traces:
            for row in (trace._node_values, trace._node_rounds, trace._edge_rounds):
                owner = row
                while owner.base is not None:
                    owner = owner.base
                assert owner.nbytes == row.nbytes

    def test_hot_path_never_exports_networkx(self, monkeypatch):
        """run_trials(validate=True) must not call Network.to_networkx()."""
        network = Network.from_edges(*gen.random_regular_edges(4, 40, seed=1))

        def _boom(self):
            raise AssertionError("to_networkx() called on the hot path")

        monkeypatch.setattr(Network, "to_networkx", _boom)
        traces = run_trials(LubyMIS, network, problems.MIS, trials=3, seed=0, validate=True)
        assert len(traces) == 3
        measure(traces)

    def test_sweep_hot_path_never_exports_networkx(self, monkeypatch):
        from repro.analysis.sweep import sweep

        def _boom(self):
            raise AssertionError("to_networkx() called on the sweep hot path")

        monkeypatch.setattr(Network, "to_networkx", _boom)
        points = sweep(
            parameter="n",
            values=[12, 18],
            graph_factory=lambda n: gen.cycle_edges(n),
            algorithms={"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)},
            trials=2,
            seed=0,
        )
        assert len(points) == 2
        assert all(p.measurement.n in (12, 18) for p in points)


class TestLegacyDictConstruction:
    def test_post_construction_assignment_still_works(self):
        """Hand-built traces fill dicts after construction."""
        network = Network.from_edges(*gen.path_edges(4))
        trace = ExecutionTrace(network=network, problem=problems.MAXIMAL_MATCHING, rounds=2)
        trace.edge_outputs[(0, 1)] = True
        trace.edge_outputs[(1, 2)] = False
        trace.edge_outputs[(2, 3)] = True
        trace.edge_commit_round[(0, 1)] = 0
        trace.edge_commit_round[(1, 2)] = 1
        trace.edge_commit_round[(2, 3)] = 1
        assert trace.validate()
        assert list(trace.edge_commit_rounds()) == [0, 1, 1]
        assert trace.edge_completion_times() == [0, 1, 1]
        assert trace.selected_edges() == [(0, 1), (2, 3)]

    def test_setter_invalidates_caches(self):
        network = Network.from_edges(*gen.path_edges(3))
        trace = ExecutionTrace(network=network, problem=problems.MIS, rounds=4)
        trace.node_outputs = {0: True, 1: False, 2: True}
        trace.node_commit_round = {0: 0, 1: 2, 2: 4}
        assert trace.node_completion_times() == [0, 2, 4]
        trace.node_commit_round = {0: 1, 1: 1, 2: 1}
        assert trace.node_completion_times() == [1, 1, 1]

    def test_assignment_on_array_backed_trace(self):
        """Assigning one dict view of an array-canonical trace must not leave
        a half-array, half-dict state behind (the sibling view is preserved)."""
        _, trace = _mis_trace_pair()
        original_outputs = dict(trace.node_outputs)
        trace.node_commit_round = {v: 0 for v in range(6)}
        assert trace.node_outputs == original_outputs
        assert trace.node_completion_times() == [0] * 6
        assert trace.validate()
        edge_trace = ExecutionTrace.from_arrays(
            trace.network,
            problems.MAXIMAL_MATCHING,
            [None] * 6,
            array("q", [-1]) * 6,
            [True, False, True, False, True, False],
            array("q", [1] * 6),
            rounds=2,
        )
        original_edge_rounds = dict(edge_trace.edge_commit_round)
        edge_trace.edge_outputs = {e: False for e in trace.network.edges}
        assert edge_trace.edge_commit_round == original_edge_rounds
        assert not edge_trace.validate()
