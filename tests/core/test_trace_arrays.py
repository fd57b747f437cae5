"""ExecutionTrace storage: flat per-slot rows and their read-only dict views.

Both engines hand a trace its outputs and commit rounds as flat per-slot
rows, its only storage; the dict views are derived from them on first use.
These tests pin that uncommitted slots stay out of the views, that the views
are read-only, that traces keep the engines' rows and pickle, and that the
hot paths never export the topology to networkx.
"""

from __future__ import annotations

import pickle
from array import array

import numpy as np
import pytest

from repro.algorithms.mis.luby import LubyMIS
from repro.core import problems
from repro.core.experiment import run_trials
from repro.core.metrics import measure
from repro.core.trace import ExecutionTrace
from repro.graphs import generators as gen
from repro.graphs.edgelist import EdgeArrays
from repro.local.network import Network
from repro.local.runner import Runner


class TestUncommittedSlots:
    def test_missing_slots_charged_full_length(self):
        network = Network.from_edge_arrays(gen.path_edges(3))
        trace = ExecutionTrace(
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
        network = Network.from_edge_arrays(EdgeArrays.from_pairs(2, [(0, 1)]))
        trace = ExecutionTrace(
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
        network = Network.from_edge_arrays(gen.cycle_edges(12))
        trace = Runner().run(LubyMIS(), network, problems.MIS, seed=0)
        assert type(trace._node_values) is tuple  # the runner's value row
        assert not trace._views
        # Dict views derive lazily and agree with the arrays.
        rounds_arr = trace.node_commit_rounds()
        assert set(trace.node_outputs) == {v for v in range(12) if rounds_arr[v] >= 0}
        trace.require_valid()

    def test_engine_trace_adopts_the_state_rows(self):
        """Engine traces keep the engine's numpy rows: GC-untracked storage,
        Python scalars through the dict views."""
        import gc

        from repro.local.engine import ArrayEngine

        network = Network.from_edge_arrays(gen.cycle_edges(12))
        trace = ArrayEngine().run(
            LubyMIS().as_array_algorithm(), network, problems.MIS, seed=0
        )
        for row in (trace._node_values, trace._node_commits, trace._edge_values):
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
        network = Network.from_edge_arrays(gen.cycle_edges(12))
        trace = ArrayEngine().run(algorithm.as_array_algorithm(), network, problem, seed=0)
        copy = pickle.loads(pickle.dumps(trace))
        assert copy.problem == problem
        assert copy.node_outputs == trace.node_outputs
        assert copy.edge_outputs == trace.edge_outputs
        assert copy.node_completion_times() == trace.node_completion_times()
        assert copy.validate()
        # A trace whose four views were built before pickling: the cached
        # views travel as plain dicts.
        views = (
            trace.node_outputs,
            trace.node_commit_round,
            trace.edge_outputs,
            trace.edge_commit_round,
        )
        again = pickle.loads(pickle.dumps(trace))
        assert (
            again.node_outputs,
            again.node_commit_round,
            again.edge_outputs,
            again.edge_commit_round,
        ) == views
        assert again.edge_completion_times() == trace.edge_completion_times()

    def test_batch_traces_own_their_rows(self):
        """A retained batch trace must not keep the whole chunk's matrices alive."""
        from repro.local.engine import ArrayEngine

        network = Network.from_edge_arrays(gen.cycle_edges(12))
        traces = ArrayEngine().run_batch(
            LubyMIS().as_array_algorithm(), network, problems.MIS, seeds=range(4)
        )
        for trace in traces:
            for row in (trace._node_values, trace._node_commits, trace._edge_commits):
                owner = row
                while owner.base is not None:
                    owner = owner.base
                assert owner.nbytes == row.nbytes

    def test_hot_path_never_exports_networkx(self, monkeypatch):
        """run_trials(validate=True) must not call Network.to_networkx()."""
        network = Network.from_edge_arrays(gen.random_regular_edges(4, 40, seed=1))

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


class TestReadOnlyViews:
    @pytest.mark.parametrize(
        "view, value",
        [
            ("node_outputs", True),
            ("node_commit_round", 0),
            ("edge_outputs", True),
            ("edge_commit_round", 0),
        ],
    )
    @pytest.mark.parametrize("engine", ["auto", "node"])
    def test_assignment_through_a_view_raises(self, engine, view, value):
        """No view can drift from the rows that validate() and the
        completion times read: engine-built ("auto") and runner-built
        ("node") traces refuse assignment through each of the four views."""
        network = Network.from_edge_arrays(gen.cycle_edges(8))

        def luby_trace():
            (trace,) = run_trials(LubyMIS, network, problems.MIS, trials=1, seed=0, engine=engine)
            return trace

        trace, twin = luby_trace(), luby_trace()
        selected = trace.selected_nodes()
        # A neighbour of a selected vertex (True there breaks the MIS), or
        # an edge, which no MIS trace holds.
        key = network.neighbors(selected[0])[0] if view.startswith("node") else network.edges[0]
        with pytest.raises(TypeError):
            getattr(trace, view)[key] = value
        assert trace == twin
        assert trace.selected_nodes() == selected
        assert trace.validate()


class TestEqualityAcrossProcesses:
    """Traces compare their networks by structure, so a trace that crossed a
    process (a pool worker, the service) still equals the original."""

    def test_pickled_engine_trace_is_equal(self):
        from repro.local.engine import ArrayEngine

        network = Network.from_edge_arrays(gen.cycle_edges(12))
        trace = ArrayEngine().run(
            LubyMIS().as_array_algorithm(), network, problems.MIS, seed=0
        )
        copy = pickle.loads(pickle.dumps(trace))
        assert copy.network is not trace.network
        assert copy == trace

    def test_traces_on_two_builds_are_equal(self):
        traces = [
            Runner().run(
                LubyMIS(), Network.from_edge_arrays(gen.cycle_edges(12)), problems.MIS, seed=0
            )
            for _ in range(2)
        ]
        assert traces[0].network is not traces[1].network
        assert traces[0] == traces[1]

    def test_other_identifiers_are_unequal(self):
        arrays = gen.cycle_edges(12)
        n, m = arrays.n, arrays.m
        network = Network.from_edge_arrays(arrays)
        other = Network.from_edge_arrays(arrays, identifiers=range(100, 100 + n))
        trace = ExecutionTrace(network, problems.MIS, [True] * n, [0] * n, None, [-1] * m)
        twin = ExecutionTrace(other, problems.MIS, [True] * n, [0] * n, None, [-1] * m)
        assert not np.array_equal(network.identifier_array, other.identifier_array)
        assert trace != twin
        assert trace == ExecutionTrace(
            Network.from_edge_arrays(arrays), problems.MIS, [True] * n, [0] * n, None, [-1] * m
        )
