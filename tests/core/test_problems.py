"""Tests for the problem specifications and validity checkers."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import problems
from repro.algorithms.mis.sequential import sequential_greedy_mis
from repro.algorithms.matching.sequential import sequential_greedy_matching


def test_a_problem_labels_nodes_or_edges():
    # Completion is defined by the labelled entities: a problem labelling
    # neither would never complete.
    with pytest.raises(ValueError, match="labels neither nodes nor edges"):
        problems.ProblemSpec(
            name="nothing",
            labels_nodes=False,
            labels_edges=False,
            validator=lambda *_: problems.ValidationResult(True),
        )


class TestMISValidation:
    def test_accepts_greedy_mis(self):
        g = nx.gnp_random_graph(30, 0.2, seed=1)
        mis = sequential_greedy_mis(g)
        outputs = {v: v in mis for v in g.nodes()}
        assert problems.MIS.validate(g, outputs, {})

    def test_rejects_non_independent(self):
        g = nx.path_graph(3)
        outputs = {0: True, 1: True, 2: False}
        result = problems.MIS.validate(g, outputs, {})
        assert not result and "independent" in result.reason

    def test_rejects_non_maximal(self):
        g = nx.path_graph(5)
        outputs = {v: False for v in g.nodes()}
        outputs[0] = True
        result = problems.MIS.validate(g, outputs, {})
        assert not result and "maximal" in result.reason

    def test_rejects_missing_outputs(self):
        g = nx.path_graph(3)
        result = problems.MIS.validate(g, {0: True}, {})
        assert not result and "missing" in result.reason

    def test_empty_graph_trivially_valid(self):
        g = nx.empty_graph(4)
        outputs = {v: True for v in g.nodes()}
        assert problems.MIS.validate(g, outputs, {})


class TestRulingSetValidation:
    def test_mis_is_a_21_ruling_set(self):
        g = nx.gnp_random_graph(25, 0.2, seed=2)
        mis = sequential_greedy_mis(g)
        outputs = {v: v in mis for v in g.nodes()}
        assert problems.ruling_set(2, 1).validate(g, outputs, {})

    def test_two_two_ruling_set_on_path(self):
        g = nx.path_graph(7)
        outputs = {v: v in {0, 3, 6} for v in g.nodes()}
        assert problems.ruling_set(2, 2).validate(g, outputs, {})

    def test_violated_independence(self):
        g = nx.path_graph(4)
        outputs = {0: True, 1: True, 2: False, 3: False}
        result = problems.ruling_set(2, 2).validate(g, outputs, {})
        assert not result and "distance" in result.reason

    def test_violated_domination(self):
        g = nx.path_graph(9)
        outputs = {v: v == 0 for v in g.nodes()}
        result = problems.ruling_set(2, 2).validate(g, outputs, {})
        assert not result and "no ruler" in result.reason

    def test_larger_alpha(self):
        g = nx.cycle_graph(9)
        outputs = {v: v in {0, 3, 6} for v in g.nodes()}
        assert problems.ruling_set(3, 2).validate(g, outputs, {})
        outputs_bad = {v: v in {0, 2, 5} for v in g.nodes()}
        assert not problems.ruling_set(3, 2).validate(g, outputs_bad, {})

    def test_empty_ruling_set_rejected(self):
        g = nx.path_graph(3)
        outputs = {v: False for v in g.nodes()}
        assert not problems.ruling_set(2, 2).validate(g, outputs, {})

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            problems.ruling_set(0, 1)

    def test_params_recorded(self):
        spec = problems.ruling_set(2, 5)
        assert spec.params == {"alpha": 2, "beta": 5}
        assert "(2,5)" in spec.name


class TestMatchingValidation:
    def test_accepts_greedy_matching(self):
        g = nx.gnp_random_graph(30, 0.15, seed=3)
        matching = sequential_greedy_matching(g)
        outputs = {tuple(sorted(e)): tuple(sorted(e)) in matching for e in g.edges()}
        assert problems.MAXIMAL_MATCHING.validate(g, {}, outputs)

    def test_rejects_overlapping_edges(self):
        g = nx.path_graph(4)
        outputs = {(0, 1): True, (1, 2): True, (2, 3): False}
        result = problems.MAXIMAL_MATCHING.validate(g, {}, outputs)
        assert not result and "matching" in result.reason

    def test_rejects_non_maximal(self):
        g = nx.path_graph(4)
        outputs = {(0, 1): True, (1, 2): False, (2, 3): False}
        result = problems.MAXIMAL_MATCHING.validate(g, {}, outputs)
        assert not result and "added" in result.reason

    def test_rejects_matched_non_edge(self):
        g = nx.path_graph(4)
        outputs = {(0, 1): True, (1, 2): False, (2, 3): True, (0, 3): True}
        result = problems.MAXIMAL_MATCHING.validate(g, {}, outputs)
        assert not result

    def test_missing_edge_outputs(self):
        g = nx.path_graph(3)
        result = problems.MAXIMAL_MATCHING.validate(g, {}, {(0, 1): True})
        assert not result and "missing" in result.reason


class TestColoringValidation:
    def test_proper_coloring_accepted(self):
        g = nx.cycle_graph(8)
        outputs = {v: v % 2 for v in g.nodes()}
        assert problems.coloring(3).validate(g, outputs, {})

    def test_monochromatic_edge_rejected(self):
        g = nx.path_graph(3)
        outputs = {0: 1, 1: 1, 2: 0}
        result = problems.coloring(3).validate(g, outputs, {})
        assert not result and "monochromatic" in result.reason

    def test_palette_bound_enforced(self):
        g = nx.path_graph(2)
        outputs = {0: 0, 1: 7}
        assert not problems.coloring(3).validate(g, outputs, {})
        assert problems.coloring(8).validate(g, outputs, {})

    def test_unbounded_palette(self):
        g = nx.path_graph(2)
        outputs = {0: "red", 1: "blue"}
        assert problems.coloring(None).validate(g, outputs, {})


class TestSinklessOrientationValidation:
    def test_cycle_orientation_valid(self):
        # Orient a 3-regular graph along an Euler-style pattern: every node of
        # the complete graph K4 gets out-degree >= 1 with this orientation.
        g = nx.complete_graph(4)
        outputs = {(0, 1): 1, (0, 2): 0, (0, 3): 3, (1, 2): 2, (1, 3): 1, (2, 3): 3}
        assert problems.SINKLESS_ORIENTATION.validate(g, {}, outputs)

    def test_sink_detected(self):
        g = nx.complete_graph(4)
        # All edges incident to node 0 point towards node 0 -> 0 has out-degree 0.
        outputs = {(0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 2): 2, (1, 3): 1, (2, 3): 3}
        result = problems.SINKLESS_ORIENTATION.validate(g, {}, outputs)
        assert not result and "sink" in result.reason

    def test_low_degree_nodes_exempt(self):
        g = nx.path_graph(3)  # degrees 1, 2, 1 are all below 3
        outputs = {(0, 1): 0, (1, 2): 2}
        assert problems.SINKLESS_ORIENTATION.validate(g, {}, outputs)

    def test_head_must_be_endpoint(self):
        g = nx.complete_graph(4)
        outputs = {(0, 1): 9, (0, 2): 0, (0, 3): 3, (1, 2): 2, (1, 3): 1, (2, 3): 3}
        result = problems.SINKLESS_ORIENTATION.validate(g, {}, outputs)
        assert not result and "endpoint" in result.reason


class TestPropertyBased:
    @given(st.integers(min_value=4, max_value=40), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_greedy_mis_always_validates(self, n, seed):
        g = nx.gnp_random_graph(n, 0.2, seed=seed)
        mis = sequential_greedy_mis(g)
        outputs = {v: v in mis for v in g.nodes()}
        assert problems.MIS.validate(g, outputs, {})

    @given(st.integers(min_value=4, max_value=40), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_greedy_matching_always_validates(self, n, seed):
        g = nx.gnp_random_graph(n, 0.2, seed=seed)
        matching = sequential_greedy_matching(g)
        outputs = {tuple(sorted(e)): tuple(sorted(e)) in matching for e in g.edges()}
        assert problems.MAXIMAL_MATCHING.validate(g, {}, outputs)

    @given(st.integers(min_value=3, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_every_mis_of_a_cycle_has_at_least_n_over_3_nodes(self, n):
        g = nx.cycle_graph(n)
        mis = sequential_greedy_mis(g)
        assert len(mis) >= n // 3
