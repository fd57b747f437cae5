"""Tests for the EdgeArrays interchange type (repro.graphs.edgelist)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.edgelist import EdgeArrays


class TestConstruction:
    def test_basic_construction_coerces_to_int64(self):
        arrays = EdgeArrays(n=4, src=[0, 1, 2], dst=[1, 2, 3])
        assert arrays.src.dtype == np.int64
        assert arrays.dst.dtype == np.int64
        assert arrays.n == 4
        assert arrays.m == 3
        assert len(arrays) == 3

    def test_arrays_are_frozen(self):
        arrays = EdgeArrays(n=3, src=[0, 1], dst=[1, 2])
        assert not arrays.src.flags.writeable
        assert not arrays.dst.flags.writeable
        with pytest.raises(ValueError):
            arrays.src[0] = 2

    def test_caller_buffer_is_not_aliased_when_writable(self):
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([1, 2], dtype=np.int64)
        arrays = EdgeArrays(n=3, src=src, dst=dst)
        src[0] = 2  # caller's buffer stays writable and independent
        assert arrays.src[0] == 0

    def test_frozen_input_arrays_are_shared_not_copied(self):
        src = np.array([0, 1], dtype=np.int64)
        src.setflags(write=False)
        dst = np.array([1, 2], dtype=np.int64)
        dst.setflags(write=False)
        arrays = EdgeArrays(n=3, src=src, dst=dst)
        assert arrays.src is src
        assert arrays.dst is dst

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            EdgeArrays(n=3, src=[0, 1], dst=[1])

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            EdgeArrays(n=3, src=[[0, 1]], dst=[[1, 2]])

    def test_out_of_range_endpoints_rejected(self):
        with pytest.raises(ValueError, match="outside 0"):
            EdgeArrays(n=3, src=[0], dst=[3])
        with pytest.raises(ValueError, match="outside 0"):
            EdgeArrays(n=3, src=[-1], dst=[1])

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EdgeArrays(n=-1, src=[], dst=[])

    def test_empty_edge_list(self):
        arrays = EdgeArrays(n=5, src=[], dst=[])
        assert arrays.m == 0
        assert arrays.as_pairs() == []


class TestCompatWrappers:
    def test_from_pairs_round_trip(self):
        pairs = [(0, 1), (2, 1), (3, 0)]
        arrays = EdgeArrays.from_pairs(4, pairs)
        assert arrays.as_pairs() == pairs

    def test_from_pairs_empty(self):
        arrays = EdgeArrays.from_pairs(2, [])
        assert arrays.n == 2 and arrays.m == 0

    def test_from_pairs_rejects_non_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            EdgeArrays.from_pairs(3, [(0, 1, 2)])

    def test_meta_provenance_and_with_meta(self):
        arrays = EdgeArrays.from_pairs(3, [(0, 1)], meta={"family": "test", "seed": 3})
        assert arrays.meta["family"] == "test"
        tagged = arrays.with_meta(trial=7)
        assert tagged.meta == {"family": "test", "seed": 3, "trial": 7}
        assert tagged.src is arrays.src  # arrays shared, not copied
        assert arrays.meta == {"family": "test", "seed": 3}  # original untouched


class TestAliasSafety:
    def test_read_only_view_over_writable_base_is_copied(self):
        base = np.arange(10, dtype=np.int64)
        view = base[:3]
        view.setflags(write=False)
        arrays = EdgeArrays(n=10, src=view, dst=view)
        base[0] = 9  # mutating the base must not reach the frozen arrays
        assert arrays.src[0] == 0 and arrays.dst[0] == 0

    def test_float_arrays_are_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="integer array"):
            EdgeArrays(n=3, src=np.array([0.9]), dst=np.array([1.2]))

    def test_from_pairs_rejects_float_endpoints(self):
        with pytest.raises(ValueError, match="integer endpoints"):
            EdgeArrays.from_pairs(3, [(0.9, 1.2)])
