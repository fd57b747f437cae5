"""Tests for the serialisable job language (`repro.service.specs`)."""

from __future__ import annotations

import pytest

from repro.graphs.edgelist import EdgeArrays
from repro.service.specs import (
    ALGORITHMS,
    GRAPH_FAMILIES,
    SPEC_FORMAT,
    SweepSpec,
    register_algorithm,
    register_family,
)


def make_spec(**overrides):
    settings = dict(
        parameter="n",
        values=(8, 10),
        family="cycle",
        algorithms=("luby_mis",),
        trials=2,
        seed=3,
    )
    settings.update(overrides)
    return SweepSpec(**settings)


class TestRoundTrip:
    def test_to_dict_from_dict_is_lossless(self):
        spec = make_spec(
            family="fast_gnp",
            family_params={"expected_degree": 4.0, "graph_seed": 11},
            cell_timeout=2.5,
            batch_budget_bytes=1 << 20,
            name="demo",
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_dict_form_carries_the_format_tag(self):
        assert make_spec().to_dict()["format"] == SPEC_FORMAT

    def test_from_dict_rejects_wrong_format(self):
        data = make_spec().to_dict()
        data["format"] = "sweep-spec/v99"
        with pytest.raises(ValueError, match="format"):
            SweepSpec.from_dict(data)

    def test_from_dict_rejects_unknown_keys(self):
        data = make_spec().to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            SweepSpec.from_dict(data)

    def test_digest_is_stable_and_content_sensitive(self):
        assert make_spec().digest() == make_spec().digest()
        assert make_spec().digest() != make_spec(seed=4).digest()
        # The name is part of the spec (and so the digest): two submitters
        # naming the same workload differently still share the graph cache
        # via graph_key, which ignores the name.
        assert (
            make_spec().graph_key(0)
            == make_spec(name="other").graph_key(0)
        )


class TestValidation:
    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            make_spec(values=())

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            make_spec(values=(8, 8))

    @pytest.mark.parametrize("values", [(12, 12.0), (8, 12, 8.0), (1, True)])
    def test_values_that_compare_equal_are_rejected(self, values):
        # Distinct reprs, but the worker maps a value to its index with
        # ``==``: 12.0 would run on value 12's network, built with value
        # 12's identifier seed.
        with pytest.raises(ValueError, match="distinct"):
            make_spec(values=values)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown graph family"):
            make_spec(family="hypercube")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_spec(algorithms=("luby_mis", "quantum_mis"))

    def test_trivial_bounds(self):
        with pytest.raises(ValueError):
            make_spec(trials=0)
        with pytest.raises(ValueError):
            make_spec(algorithms=())


class TestGraphKeys:
    def test_key_depends_on_value_and_seed(self):
        spec = make_spec()
        assert spec.graph_key(0) != spec.graph_key(1)
        assert spec.graph_key(0) != make_spec(seed=4).graph_key(0)

    def test_key_shared_across_unrelated_spec_fields(self):
        # Same family/value/seed -> same build -> same cache key, even
        # when trials, algorithms or budget differ.
        a = make_spec(trials=2)
        b = make_spec(
            trials=5,
            algorithms=("luby_mis", "randomized_matching"),
            batch_budget_bytes=1 << 16,
        )
        assert a.graph_key(0) == b.graph_key(0)

    def test_network_seed_follows_the_sweep_convention(self):
        spec = make_spec(seed=3)
        assert [spec.network_seed(i) for i in range(2)] == [3, 4]


class TestReconstitution:
    def test_sweep_kwargs_mirror_the_spec(self):
        spec = make_spec(batch_budget_bytes=123456, cell_timeout=9.0)
        kwargs = spec.sweep_kwargs()
        assert kwargs["parameter"] == "n"
        assert kwargs["values"] == [8, 10]
        assert kwargs["trials"] == 2
        assert kwargs["seed"] == 3
        assert kwargs["batch_budget_bytes"] == 123456
        assert kwargs["cell_timeout"] == 9.0
        assert set(kwargs["algorithms"]) == {"luby_mis"}

    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_every_family_builds_edge_arrays(self, family):
        source = GRAPH_FAMILIES[family](20)
        assert isinstance(source, EdgeArrays)
        assert source.meta["family"] == family

    def test_graph_source_dispatches_the_registry(self):
        source = make_spec().graph_source(8)
        assert source.n == 8
        assert len(source.src) == 8  # a cycle has n edges

    def test_registries_are_extensible(self):
        register_family("test_only_cycle", GRAPH_FAMILIES["cycle"])
        register_algorithm("test_only_mis", *ALGORITHMS["luby_mis"])
        try:
            spec = make_spec(
                family="test_only_cycle", algorithms=("test_only_mis",)
            )
            assert spec.graph_source(6).n == 6
        finally:
            del GRAPH_FAMILIES["test_only_cycle"]
            del ALGORITHMS["test_only_mis"]
