"""Tests for the trial-running helpers of repro.core.experiment."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.mis import LubyMIS
from repro.algorithms.ruling_set import RandomizedTwoTwoRulingSet
from repro.core import problems
from repro.core.experiment import run_trials
from repro.core.metrics import measure
from repro.local.network import Network
from repro.local.runner import Runner


@pytest.fixture
def small_network():
    return Network.from_graph(nx.gnp_random_graph(30, 0.15, seed=1), id_scheme="permuted")


class TestRunTrials:
    def test_returns_requested_number_of_traces(self, small_network):
        traces = run_trials(LubyMIS, small_network, problems.MIS, trials=4, seed=0)
        assert len(traces) == 4
        for trace in traces:
            assert trace.completed

    def test_trials_use_distinct_seeds(self, small_network):
        traces = run_trials(LubyMIS, small_network, problems.MIS, trials=3, seed=0)
        outputs = [tuple(sorted(t.selected_nodes())) for t in traces]
        assert len(set(outputs)) > 1

    def test_same_base_seed_reproduces_results(self, small_network):
        first = run_trials(LubyMIS, small_network, problems.MIS, trials=2, seed=7)
        second = run_trials(LubyMIS, small_network, problems.MIS, trials=2, seed=7)
        assert [t.node_outputs for t in first] == [t.node_outputs for t in second]

    def test_validation_can_be_disabled(self, small_network):
        traces = run_trials(
            LubyMIS, small_network, problems.MIS, trials=1, seed=0, validate=False
        )
        assert len(traces) == 1

    def test_invalid_trial_count_rejected(self, small_network):
        with pytest.raises(ValueError):
            run_trials(LubyMIS, small_network, problems.MIS, trials=0)

    def test_custom_runner_is_used(self, small_network):
        strict_runner = Runner(max_rounds=1, strict=False)
        traces = run_trials(
            LubyMIS, small_network, problems.MIS, trials=1, seed=0,
            runner=strict_runner, validate=False,
        )
        assert traces[0].rounds <= 1
        assert not traces[0].completed


class TestMeasureOfRunTrials:
    """``measure(run_trials(...))`` gives one graph's measurement."""

    def test_aggregates_measurement(self, small_network):
        measurement = measure(run_trials(LubyMIS, small_network, problems.MIS, trials=3, seed=0))
        assert measurement.trials == 3
        assert measurement.n == small_network.n
        assert measurement.node_averaged <= measurement.worst_case

    def test_different_problems(self, small_network):
        mis = measure(run_trials(LubyMIS, small_network, problems.MIS, trials=2, seed=0))
        ruling = measure(
            run_trials(
                RandomizedTwoTwoRulingSet,
                small_network,
                problems.ruling_set(2, 2),
                trials=2,
                seed=0,
            )
        )
        assert mis.problem == "maximal-independent-set"
        assert ruling.problem == "(2,2)-ruling-set"


class TestResolveNetwork:
    def test_network_returned_as_is(self, small_network):
        from repro.core.experiment import resolve_network

        assert resolve_network(small_network) is small_network

    def test_equivalent_sources_produce_identical_networks(self):
        from repro.core.experiment import resolve_network
        from repro.graphs import generators as gen

        arrays = gen.cycle_edges(30)
        graph = gen.cycle_graph(30)
        nets = [
            resolve_network(arrays, seed=4),
            resolve_network(graph, seed=4),
            resolve_network(lambda: gen.cycle_edges(30), seed=4),
        ]
        assert len({net.edges for net in nets}) == 1
        assert len({net.identifiers for net in nets}) == 1

    def test_unknown_source_rejected(self):
        from repro.core.experiment import resolve_network

        with pytest.raises(TypeError, match="graph source"):
            resolve_network(3.14)

    def test_edge_pair_is_not_a_graph_source(self):
        from repro.core.experiment import resolve_network

        with pytest.raises(TypeError, match="expected Network, EdgeArrays"):
            resolve_network((3, [(0, 1), (1, 2)]))

    @pytest.mark.parametrize(
        "source",
        [
            (np.int64(3), [(0, 1), (1, 2)]),
            [(0, 1), (1, 2)],
            lambda: (3, [(0, 1), (1, 2)]),
        ],
        ids=["numpy-led-pair", "pair-list", "callable-pair"],
    )
    def test_refusal_names_the_accepted_sources(self, source):
        from repro.core.experiment import resolve_network

        with pytest.raises(TypeError, match="expected Network, EdgeArrays, a networkx graph"):
            resolve_network(source)


class TestExperimentFacade:
    def test_run_returns_structured_results(self):
        from repro.core.experiment import Experiment
        from repro.graphs import generators as gen

        result = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=gen.fast_gnp_edges(120, 0.05, seed=2),
            seeds=[0, 1, 2],
        ).run()
        run = result.run
        assert run.name == "fast_gnp"
        assert run.seeds == (0, 1, 2)
        assert len(run.traces) == 3
        assert run.verdicts == (True, True, True) and run.ok and result.ok
        assert run.measurement.trials == 3
        assert run.measurement.node_quantiles  # quantiles on by default
        assert {"network_s", "runner_s", "validate_s", "measure_s", "total_s"} <= set(
            run.timings
        )

    def test_matches_run_trials_seed_for_seed(self, small_network):
        from repro.core.experiment import Experiment

        result = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=small_network,
            trials=3,
            seed=7,
            quantiles=None,
        ).run()
        reference = run_trials(LubyMIS, small_network, problems.MIS, trials=3, seed=7)
        assert [t.node_outputs for t in result.run.traces] == [
            t.node_outputs for t in reference
        ]
        from repro.core.metrics import measure

        assert result.run.measurement == measure(reference)

    def test_edge_arrays_match_a_hand_built_network_and_runner(self):
        # Same workload, identifiers and per-trial seeds: the facade hands
        # back the traces and measurement of the explicit plumbing.
        from repro.core.experiment import Experiment, trial_seed
        from repro.core.metrics import measure
        from repro.graphs import generators as gen

        arrays = gen.fast_gnp_edges(400, 8.0 / 399, seed=11)
        network = Network.from_edge_arrays(arrays, id_scheme="sequential")
        runner = Runner(max_rounds=20_000)
        traces = [
            runner.run(LubyMIS(), network, problems.MIS, seed=trial_seed(0, i))
            for i in range(2)
        ]
        run = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=arrays,
            trials=2,
            id_scheme="sequential",
            max_rounds=20_000,
            quantiles=None,
        ).run().run
        assert run.ok
        assert run.measurement == measure(traces)
        assert [t.node_outputs for t in run.traces] == [t.node_outputs for t in traces]
        assert [t.node_commit_round for t in run.traces] == [
            t.node_commit_round for t in traces
        ]
        assert [t.rounds for t in run.traces] == [t.rounds for t in traces]

    def test_named_graphs_and_rows(self):
        from repro.core.experiment import Experiment
        from repro.graphs import generators as gen

        result = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs={
                "cycle": gen.cycle_edges(24),
                "grid": lambda: gen.grid_edges(4, 6),
            },
            seeds=[0],
        ).run()
        assert len(result) == 2
        assert [run.name for run in result] == ["cycle", "grid"]
        assert "generate_s" not in result[0].timings
        assert "generate_s" in result[1].timings
        row = result[0].as_row()
        assert row["graph"] == "cycle" and row["valid"] is True
        assert row["problem"] == "maximal-independent-set"
        with pytest.raises(ValueError, match="2 runs"):
            result.run

    def test_sequence_of_graphs_gets_positional_names(self):
        from repro.core.experiment import Experiment
        from repro.graphs import generators as gen

        result = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=[gen.path_graph(10), gen.path_graph(12)],  # no provenance
            seeds=[0],
        ).run()
        assert [run.name for run in result] == ["graph-0", "graph-1"]

    def test_edge_pair_is_refused_as_a_graph_source(self):
        from repro.core.experiment import Experiment

        experiment = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=(3, [(0, 1), (1, 2)]),
            seeds=[0],
        )
        with pytest.raises(TypeError, match="expected Network, EdgeArrays"):
            experiment.run()

    def test_pair_with_numpy_integer_n_is_refused(self):
        from repro.core.experiment import Experiment

        experiment = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=(np.int64(3), [(0, 1), (1, 2)]),
            seeds=[0],
        )
        with pytest.raises(TypeError, match="expected Network, EdgeArrays"):
            experiment.run()

    def test_tuple_of_two_sources_is_two_graphs(self):
        from repro.core.experiment import Experiment
        from repro.graphs import generators as gen

        result = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=(gen.cycle_edges(12), gen.path_edges(10)),
            seeds=[0],
        ).run()
        assert [run.name for run in result] == ["cycle", "path"]
        assert [run.network.n for run in result] == [12, 10]

    def test_graph_i_draws_its_identifiers_with_seed_i(self):
        from repro.core.experiment import Experiment, resolve_network
        from repro.graphs import generators as gen

        result = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=[gen.cycle_edges(40), gen.cycle_edges(40)],
            seeds=[0],
        ).run()
        expected = [resolve_network(gen.cycle_edges(40), seed=i).identifiers for i in range(2)]
        assert [run.network.identifiers for run in result] == expected
        assert expected[0] != expected[1]

    def test_problem_and_algorithm_factories_receive_network(self, small_network):
        from repro.core.experiment import Experiment

        seen = []

        def problem_factory(network):
            seen.append(network)
            return problems.MIS

        result = Experiment(
            problem=problem_factory,
            algorithm=lambda network: LubyMIS(),
            graphs=small_network,
            seeds=[0],
        ).run()
        assert seen == [small_network]
        assert result.ok

    def test_seeds_and_trials_mutually_exclusive(self, small_network):
        from repro.core.experiment import Experiment

        with pytest.raises(ValueError, match="not both"):
            Experiment(
                problem=problems.MIS,
                algorithm=LubyMIS,
                graphs=small_network,
                seeds=[0],
                trials=2,
            )
        with pytest.raises(ValueError, match="at least one"):
            Experiment(
                problem=problems.MIS,
                algorithm=LubyMIS,
                graphs=small_network,
                seeds=[],
            )

    def test_invalid_solutions_surface_in_verdicts_when_not_required(self, small_network):
        from repro.core.experiment import Experiment
        from repro.local.runner import Runner

        # A runner capped at 0 rounds leaves every node uncommitted, so the
        # MIS validator must reject the (empty, non-maximal) output.
        result = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=small_network,
            seeds=[0],
            runner=Runner(max_rounds=0, strict=False),
            require_valid=False,
        ).run()
        assert result.run.verdicts == (False,)
        assert not result.ok

    def test_require_valid_raises_on_invalid_trial(self, small_network):
        from repro.core.experiment import Experiment
        from repro.local.runner import Runner

        with pytest.raises(Exception):
            Experiment(
                problem=problems.MIS,
                algorithm=LubyMIS,
                graphs=small_network,
                seeds=[0],
                runner=Runner(max_rounds=0, strict=False),
            ).run()

    def test_reusable_builder_reproduces_results(self, small_network):
        from repro.core.experiment import Experiment

        experiment = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=small_network,
            seeds=[3, 4],
            quantiles=None,
        )
        first = experiment.run()
        second = experiment.run()
        assert first.run.measurement == second.run.measurement
        assert [t.node_outputs for t in first.run.traces] == [
            t.node_outputs for t in second.run.traces
        ]

    def test_parameterised_algorithm_class_needs_an_explicit_factory(self, small_network):
        from repro.algorithms.ruling_set.deterministic import DeterministicRulingSet
        from repro.core.experiment import Experiment

        # A class whose required __init__ params are config values must not
        # have the network silently bound to the first slot.
        with pytest.raises(TypeError, match="pass a factory instead"):
            Experiment(
                problem=problems.MIS,
                algorithm=DeterministicRulingSet,
                graphs=small_network,
                seeds=[0],
            )

    def test_many_argument_factory_rejected(self, small_network):
        from repro.core.experiment import Experiment

        with pytest.raises(TypeError, match="zero arguments or only the network"):
            Experiment(
                problem=problems.MIS,
                algorithm=lambda network, extra: LubyMIS(),
                graphs=small_network,
                seeds=[0],
            )

    def test_callable_sources_are_named_from_their_provenance(self):
        from repro.core.experiment import Experiment
        from repro.graphs import generators as gen

        result = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=[
                lambda: gen.fast_gnp_edges(60, 0.1, seed=1),
                lambda: gen.path_graph(20),  # no provenance -> positional
            ],
            seeds=[0],
        ).run()
        assert [run.name for run in result] == ["fast_gnp", "graph-1"]

    def test_duplicate_family_names_are_disambiguated(self):
        from repro.core.experiment import Experiment
        from repro.graphs import generators as gen

        result = Experiment(
            problem=problems.MIS,
            algorithm=LubyMIS,
            graphs=[
                gen.fast_gnp_edges(40, 0.1, seed=1),
                gen.fast_gnp_edges(40, 0.1, seed=2),
            ],
            seeds=[0],
        ).run()
        assert [run.name for run in result] == ["fast_gnp", "fast_gnp-1"]

    def test_seeds_with_base_seed_rejected(self, small_network):
        from repro.core.experiment import Experiment

        with pytest.raises(ValueError, match="not both"):
            Experiment(
                problem=problems.MIS,
                algorithm=LubyMIS,
                graphs=small_network,
                seeds=[0, 1],
                seed=42,
            )
