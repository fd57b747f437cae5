"""Shared-memory parallel sweeps and trial-batched sweep cells.

Covers the contracts the parallel rework introduced:

* workers reassemble networks zero-copy from shared CSR segments, and the
  parent unlinks every segment when the sweep returns — including when a
  worker was SIGKILLed mid-task;
* multi-trial cells on the array engines run as one batched group per
  ``(value, algorithm)`` and still journal one row per trial, so journals
  written by batched sweeps resume cell-exactly (including mid-cell);
* a parallel request on a platform without ``fork`` warns instead of
  silently degrading, and the journal header records the effective
  parallelism (as provenance only — never mismatch-enforced).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import sys
import warnings
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.algorithms.mis.luby import LubyMIS
from repro.core import problems
from repro.graphs import generators as gen

import repro.analysis.sweep  # noqa: F401  (loads the module into sys.modules)

sweepmod = sys.modules["repro.analysis.sweep"]
sweep = sweepmod.sweep


def luby_algorithms():
    return {"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)}


def run_sweep(**overrides):
    settings = dict(
        parameter="n",
        values=[8, 10],
        graph_factory=gen.cycle_edges,
        algorithms=luby_algorithms(),
        trials=3,
        seed=3,
        engine="auto",
    )
    settings.update(overrides)
    return sweep(**settings)


def release_exported(manifest, segments):
    """Close this process's attachments and unlink the exported segments."""
    for entry in manifest.values():
        handle = sweepmod._WORKER_SEGMENTS.pop(str(entry["name"]), None)
        if handle is not None:
            try:
                handle.close()
            except BufferError:  # a view outlived the frame; leak, don't fail
                pass
    for segment in segments:
        segment.unlink()
        segment.close()


def edit_journal(path, statement, params=()):
    """Run one SQL statement against a closed sweep journal."""
    db = sqlite3.connect(path)
    try:
        with db:
            db.execute(statement, params)
    finally:
        db.close()


def assert_last_segments_unlinked():
    names = list(sweepmod._LAST_SEGMENT_NAMES)
    assert names, "parallel sweep should have exported shared segments"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestSharedMemoryLifecycle:
    def test_parallel_sweep_matches_serial_and_unlinks_segments(self):
        serial = run_sweep()
        parallel = run_sweep(parallel=2)
        assert parallel == serial
        assert_last_segments_unlinked()

    def test_segments_are_unlinked_after_sigkilled_workers(self, monkeypatch):
        monkeypatch.setattr(sweepmod, "_DEFAULT_STALL_TIMEOUT", 2.0)

        def fragile_factory(net):
            if multiprocessing.parent_process() is not None:
                os.kill(os.getpid(), signal.SIGKILL)
            return LubyMIS()

        result = run_sweep(
            algorithms={"luby": (fragile_factory, lambda net: problems.MIS)},
            parallel=2,
        )
        assert result.ok
        assert result == run_sweep()  # the serial retry reused the seeds
        assert_last_segments_unlinked()

    def test_shared_network_reassembles_identically(self):
        # Round-trip one network through the export/attach pair and compare
        # against the original on every topology view the engines consume.
        spec = {
            "graph_factory": gen.cycle_edges,
            "values": [12],
            "seed": 3,
        }
        manifest, segments, networks = sweepmod._export_shared_networks(spec, [0])

        def compare() -> None:
            # Runs in its own frame so every view into the shared mapping is
            # dropped before the segments are closed below.
            monkey_prev = sweepmod._SHARED_MANIFEST
            sweepmod._SHARED_MANIFEST = manifest
            try:
                attached = sweepmod._attach_shared_network(0)
            finally:
                sweepmod._SHARED_MANIFEST = monkey_prev
            original = networks[0]
            assert attached is not None
            assert attached.n == original.n and attached.m == original.m
            assert attached.identifiers == original.identifiers
            assert list(attached.indptr) == list(original.indptr)
            assert list(attached.indices) == list(original.indices)
            ous, ovs = original.edge_endpoints()
            aus, avs = attached.edge_endpoints()
            assert list(aus) == list(ous) and list(avs) == list(ovs)
            assert attached.max_degree() == original.max_degree()
            assert attached.edges == original.edges

        try:
            compare()
        finally:
            release_exported(manifest, segments)

    def test_shared_network_adopts_the_segment_identifiers(self):
        spec = {"graph_factory": gen.cycle_edges, "values": [12], "seed": 3}
        manifest, segments, networks = sweepmod._export_shared_networks(spec, [0])

        def check() -> None:
            previous = sweepmod._SHARED_MANIFEST
            sweepmod._SHARED_MANIFEST = manifest
            try:
                attached = sweepmod._attach_shared_network(0)
            finally:
                sweepmod._SHARED_MANIFEST = previous
            mapping = sweepmod._WORKER_SEGMENTS[str(manifest[0]["name"])].buf
            ids = attached.identifier_array
            assert np.shares_memory(ids, np.frombuffer(mapping, dtype=np.uint8))
            assert attached._ids_cache is None  # no tuple built on attach
            assert ids.tolist() == list(networks[0].identifiers)

        try:
            check()
        finally:
            release_exported(manifest, segments)


class TestBatchedCells:
    def test_batched_checkpoint_resumes_cell_exactly(self, tmp_path):
        baseline = run_sweep()
        path = str(tmp_path / "sweep.db")
        first = run_sweep(checkpoint=path)
        assert first == baseline
        header, rows = sweepmod.read_checkpoint(path)
        # One row per trial even though the cells ran batched.
        assert len(rows) == 2 * 3
        recomputed = []
        sweepmod_hook_prev = sweepmod._test_hook
        sweepmod._test_hook = recomputed.append
        try:
            resumed = run_sweep(checkpoint=path)
        finally:
            sweepmod._test_hook = sweepmod_hook_prev
        assert resumed == baseline
        assert recomputed == []

    def test_mid_cell_resume_reruns_only_missing_trials(self, tmp_path, monkeypatch):
        baseline = run_sweep()
        for parallel in (None, 2):
            path = str(tmp_path / f"partial-{parallel}.db")
            run_sweep(checkpoint=path)
            # Keep trials 0 and 2 of every cell: the remaining trial set {1}
            # is non-contiguous with nothing, exercising the split-run path.
            edit_journal(path, "DELETE FROM journal_cells WHERE trial = 1")
            recomputed = []
            monkeypatch.setattr(sweepmod, "_test_hook", recomputed.append)
            assert run_sweep(checkpoint=path, parallel=parallel) == baseline
            monkeypatch.setattr(sweepmod, "_test_hook", None)
            assert sorted(sweepmod._cell_key(row) for row in recomputed) == [
                (0, "luby", 1),
                (1, "luby", 1),
            ]

    def test_grouped_failures_still_attribute_per_trial(self):
        def broken_factory(net):
            raise RuntimeError("factory exploded")

        result = run_sweep(
            algorithms={"broken": (broken_factory, lambda net: problems.MIS)},
            on_error="record",
        )
        assert result == []
        assert len(result.failures) == 2 * 3  # values x trials
        trials = sorted(f.trial for f in result.failures if f.value == 8)
        assert trials == [0, 1, 2]
        assert all(f.kind == "exception:RuntimeError" for f in result.failures)


class TestParallelProvenance:
    def test_fork_unavailable_warns_and_runs_serially(self, monkeypatch):
        monkeypatch.setattr(sweepmod, "_fork_available", lambda: False)
        with pytest.warns(RuntimeWarning, match="fork"):
            degraded = run_sweep(parallel=2)
        assert degraded == run_sweep()

    def test_serial_sweeps_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_sweep()

    def test_header_records_effective_parallelism(self, tmp_path, monkeypatch):
        parallel_path = str(tmp_path / "parallel.db")
        run_sweep(parallel=2, checkpoint=parallel_path)
        assert sweepmod.read_checkpoint(parallel_path)[0]["parallel"] is True

        serial_path = str(tmp_path / "serial.db")
        run_sweep(checkpoint=serial_path)
        assert sweepmod.read_checkpoint(serial_path)[0]["parallel"] is False

        # Degraded parallel runs record the truth, not the request.
        monkeypatch.setattr(sweepmod, "_fork_available", lambda: False)
        degraded_path = str(tmp_path / "degraded.db")
        with pytest.warns(RuntimeWarning):
            run_sweep(parallel=2, checkpoint=degraded_path)
        assert sweepmod.read_checkpoint(degraded_path)[0]["parallel"] is False

    def test_parallel_flag_is_not_mismatch_enforced(self, tmp_path):
        # A journal written parallel resumes serially (and vice versa): the
        # flag is provenance, not identity.
        path = str(tmp_path / "sweep.db")
        first = run_sweep(parallel=2, checkpoint=path)
        assert run_sweep(checkpoint=path) == first

    def test_legacy_headers_without_the_flag_still_load(self, tmp_path):
        path = str(tmp_path / "sweep.db")
        first = run_sweep(checkpoint=path)
        header = sweepmod.read_checkpoint(path)[0]
        del header["parallel"]
        edit_journal(path, "UPDATE journals SET header = ?", (json.dumps(header),))
        assert run_sweep(checkpoint=path) == first


class TestExportErrorPath:
    # The orphaned segment object is collected with a CSR view still live
    # (the raising frame survives in the traceback); its __del__ close()
    # then raises BufferError.  Expected here: the unlink is the contract.
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
    def test_segments_created_before_a_failure_are_unlinked(self, monkeypatch):
        # Regression (REP005): an exception mid-export used to leak every
        # segment already created — the caller only unlinks segments it
        # *received*, and the raising call returned nothing.
        spec = {"graph_factory": gen.cycle_edges, "values": [12, 14], "seed": 3}
        created = []
        real_shm = shared_memory.SharedMemory

        def recording_shm(*args, **kwargs):
            segment = real_shm(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

        calls = {"n": 0}
        real_arrays = sweepmod._network_csr_arrays

        def failing_arrays(network):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("export broke mid-loop")
            return real_arrays(network)

        monkeypatch.setattr(sweepmod.shared_memory, "SharedMemory", recording_shm)
        monkeypatch.setattr(sweepmod, "_network_csr_arrays", failing_arrays)
        with pytest.raises(RuntimeError, match="mid-loop"):
            sweepmod._export_shared_networks(spec, [0, 1])

        assert len(created) == 1  # the first value's segment was live...
        for name in created:  # ...and the error path reclaimed it
            with pytest.raises(FileNotFoundError):
                real_shm(name=name)
