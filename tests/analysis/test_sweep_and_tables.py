"""Tests for the sweep harness and table rendering used by the benchmarks."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.algorithms.mis import LubyMIS
from repro.algorithms.ruling_set import RandomizedTwoTwoRulingSet
from repro.analysis import format_sweep, format_table, sweep
from repro.core import problems
from repro.core.experiment import resolve_network


class TestSweep:
    def test_sweep_runs_all_combinations(self):
        points = sweep(
            parameter="n",
            values=[20, 40],
            graph_factory=lambda n: nx.gnp_random_graph(n, 0.15, seed=1),
            algorithms={
                "luby": (lambda net: LubyMIS(), lambda net: problems.MIS),
                "ruling": (lambda net: RandomizedTwoTwoRulingSet(), lambda net: problems.ruling_set(2, 2)),
            },
            trials=2,
            seed=0,
        )
        assert len(points) == 4
        assert {p.measurement.algorithm for p in points} == {"luby", "ruling"}
        assert {p.value for p in points} == {20, 40}
        for point in points:
            assert point.measurement.node_averaged <= point.measurement.worst_case

    def test_sweep_rows_contain_measurements(self):
        points = sweep(
            parameter="degree",
            values=[3],
            graph_factory=lambda d: nx.random_regular_graph(d, 20, seed=2),
            algorithms={"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)},
            trials=1,
        )
        row = points[0].as_row()
        assert row["parameter"] == "degree" and row["value"] == 3
        assert "node_averaged" in row and "worst_case" in row

    def test_resolve_network_uses_permuted_ids(self):
        net = resolve_network(nx.path_graph(10), seed=3)
        assert sorted(net.identifiers) == list(range(10))


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert format_table([]) == ""
        assert format_table([], title="t") == "t\n"

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_floats(self):
        rows = [{"x": 1.23456}]
        assert "1.235" in format_table(rows)

    def test_format_sweep_output(self):
        points = sweep(
            parameter="n",
            values=[15],
            graph_factory=lambda n: nx.cycle_graph(n),
            algorithms={"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)},
            trials=1,
        )
        text = format_sweep(points, title="E0")
        assert "E0" in text and "luby" in text and "node_averaged" in text


class TestEdgeArraysWorkloads:
    """sweep/resolve_network take EdgeArrays and refuse ``(n, edges)`` pairs."""

    def test_resolve_network_edge_arrays_equals_graph_form(self):
        from repro.graphs import generators as gen

        arrays = gen.random_regular_edges(4, 60, seed=1)
        graph = gen.random_regular_graph(4, 60, seed=1)
        from_arrays = resolve_network(arrays, seed=5)
        from_graph = resolve_network(graph, seed=5)
        assert from_arrays.edges == from_graph.edges
        assert from_arrays.identifiers == from_graph.identifiers

    def test_sweep_identical_for_edge_arrays_and_graph_factories(self):
        from repro.graphs import generators as gen

        algorithms = {"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)}
        graph_points = sweep(
            "n", [20, 30],
            lambda n: gen.cycle_graph(n),
            algorithms, trials=2, seed=3,
        )
        array_points = sweep(
            "n", [20, 30],
            lambda n: gen.cycle_edges(n),
            algorithms, trials=2, seed=3,
        )
        assert [p.measurement for p in graph_points] == [
            p.measurement for p in array_points
        ]

    def test_sweep_refuses_an_edge_pair_factory(self):
        algorithms = {"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)}
        with pytest.raises(TypeError, match="expected Network, EdgeArrays"):
            sweep(
                "n", [4],
                lambda n: (n, [(i, i + 1) for i in range(n - 1)]),
                algorithms, trials=1, seed=3,
            )
