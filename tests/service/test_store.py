"""Tests for the sqlite result store and its content-addressed graph cache.

The central invariant: the service is a persistence layer, never a results
layer.  Measurements read back from the store are bit-identical to what the
in-process ``sweep()`` computes, and a cache-hit network is indistinguishable
from the freshly built original.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.algorithms.mis.luby import LubyMIS, LubyMISArray
from repro.analysis import sweep
from repro.analysis.sweep import CHECKPOINT_FORMAT
from repro.core import problems
from repro.core.errors import classify_failure
from repro.core.experiment import resolve_network
from repro.local.engine import ArrayEngine
from repro.local.runner import Runner
from repro.service.scheduler import Scheduler
from repro.service.specs import GRAPH_FAMILIES, SweepSpec
from repro.service import store as store_module
from repro.service.store import RESULT_STORE_SCHEMA, ResultStore


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


def run_one(db_path, spec):
    """Submit + drain one job; returns its id."""
    scheduler = Scheduler(str(db_path), poll_s=0.02, backoff_base_s=0.01)
    try:
        job_id = scheduler.queue.submit(spec)
        scheduler.drain()
        assert scheduler.queue.job(job_id).status == "done"
    finally:
        scheduler.close()
    return job_id


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "service.db")


class TestSchema:
    def test_schema_version_is_stamped(self, db_path):
        with ResultStore(db_path) as store:
            row = store._db.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
            assert row["value"] == RESULT_STORE_SCHEMA

    def test_reopening_an_existing_store_is_idempotent(self, db_path):
        ResultStore(db_path).close()
        with ResultStore(db_path) as store:
            assert store.list_experiments() == []

    def test_a_v1_store_is_refused_untouched(self, db_path):
        # result-store/v1 kept a separate ``cells`` table and journaled to
        # JSON-lines files; this code cannot read it and must not add the
        # v2 tables to it.
        db = sqlite3.connect(db_path)
        with db:
            db.executescript(
                "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
                "INSERT INTO meta VALUES ('schema', 'result-store/v1');"
                "CREATE TABLE cells (experiment_id INTEGER, value_index INTEGER);"
            )
        db.close()
        with pytest.raises(ValueError, match=f"'result-store/v1'.*{RESULT_STORE_SCHEMA!r}"):
            ResultStore(db_path)
        db = sqlite3.connect(db_path)
        try:
            tables = {
                row[0]
                for row in db.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
            }
        finally:
            db.close()
        assert tables == {"meta", "cells"}


class TestBitIdentity:
    def test_stored_points_match_the_in_process_sweep_exactly(self, db_path):
        spec = make_spec()
        job_id = run_one(db_path, spec)
        live = sweep(**spec.sweep_kwargs())
        with ResultStore(db_path) as store:
            stored = store.points(job_id)
        assert len(stored) == len(live)
        for row, point in zip(stored, live):
            assert row["value"] == point.value
            assert row["algorithm"] == point.measurement.algorithm
            # Full float64 precision, field for field — not the rounded
            # ``as_dict`` presentation form.
            live_fields = {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in point.measurement.__dict__.items()
            }
            assert row["measurement"] == live_fields

    def test_stored_cells_carry_exact_completion_times(self, db_path):
        spec = make_spec(values=(8,), trials=1)
        job_id = run_one(db_path, spec)
        with ResultStore(db_path) as store:
            cells = store.cells(job_id)
        assert len(cells) == 1
        cell = cells[0]
        assert cell["status"] == "ok"
        assert cell["node_times"].dtype == np.int64
        assert len(cell["node_times"]) == 8
        assert len(cell["edge_times"]) == 8  # cycle: m == n
        assert int(cell["node_times"].max()) >= 1

    def test_record_results_is_idempotent(self, db_path):
        spec = make_spec(values=(8,), trials=1)
        job_id = run_one(db_path, spec)

        with ResultStore(db_path) as store:
            before = store.points(job_id)
            # Re-run the job's sweep on its journal (every cell is already
            # committed, so nothing re-runs) and re-record the result:
            # points replaced, not duplicated.
            result = sweep(
                **spec.sweep_kwargs(),
                checkpoint=(db_path, job_id),
                on_error="record",
            )
            provenance = store.experiment(job_id)["provenance"]
            store.record_results(job_id, result, provenance)
            assert store.points(job_id) == before
            assert len(store.cells(job_id)) == 1

    def test_cells_and_failures_read_the_journal(self, db_path):
        # A sweep journaled into the store under key 7, one healthy and one
        # broken algorithm: cells() sees every row, failures() only the
        # failure rows, selected in SQL.
        def broken(network):
            raise RuntimeError("factory exploded")

        kwargs = make_spec(values=(8,)).sweep_kwargs()
        kwargs["algorithms"] = dict(kwargs["algorithms"], broken=(broken, broken))
        with ResultStore(db_path) as store:
            sweep(**kwargs, checkpoint=(db_path, 7), on_error="record")
            cells = store.cells(7)
            failures = store.failures(7)
            assert store.cells(8) == []
        assert [(c["algorithm"], c["status"]) for c in cells] == [
            ("broken", "failure"),
            ("broken", "failure"),
            ("luby_mis", "ok"),
            ("luby_mis", "ok"),
        ]
        assert failures == cells[:2]
        for failure in failures:
            assert failure["kind"] == classify_failure(RuntimeError())
            assert failure["message"] == "factory exploded"
            assert failure["node_times"] is None

    def test_journal_header_is_read_and_format_checked(self, db_path):
        spec = make_spec(values=(8,), trials=1)
        with ResultStore(db_path) as store:
            with pytest.raises(KeyError):
                store.journal_header(7)
            sweep(**spec.sweep_kwargs(), checkpoint=(db_path, 7), on_error="record")
            header = store.journal_header(7)
            assert (header["format"], header["values"]) == (CHECKPOINT_FORMAT, ["8"])
            with store._db:
                store._db.execute(
                    "UPDATE journals SET header = ? WHERE key = '7'",
                    ('{"format": "sweep-checkpoint/v0"}',),
                )
            with pytest.raises(ValueError, match="checkpoint format"):
                store.journal_header(7)


def _stored(store, spec, index=0):
    """Build value ``index``'s network, store it under its key, hit it."""
    network = resolve_network(
        spec.graph_source(spec.values[index]), seed=spec.network_seed(index)
    )
    key = spec.graph_key(index)
    assert store.cached_network(key) is None
    assert store.claim_graph_build(key, {"family": spec.family})
    store.store_network(key, network)
    return network, store.cached_network(key)


class TestGraphCache:
    def test_network_round_trips_through_the_cache(self, db_path):
        spec = make_spec(family="fast_gnp", values=(200,))
        with ResultStore(db_path) as store:
            network, cached = _stored(store, spec)
        assert (cached.n, cached.m) == (network.n, network.m)
        for built, hit in zip(network.edge_endpoints(), cached.edge_endpoints()):
            assert np.array_equal(built, hit)
        assert np.array_equal(cached.degrees, network.degrees)
        assert np.array_equal(cached.identifier_array, network.identifier_array)
        assert cached.identifiers == network.identifiers
        assert cached.max_degree() == network.max_degree()

    def test_payload_is_the_endpoint_and_identifier_arrays(self, db_path):
        # 8n + 16m bytes: edge_us, edge_vs and the identifiers, back to
        # back.  The degree and layout columns stay in the schema, unwritten.
        spec = make_spec(family="fast_gnp", values=(200,))
        with ResultStore(db_path) as store:
            network, _ = _stored(store, spec)
            row = store._db.execute(
                "SELECT n, m, payload, max_degree, min_degree, layout "
                "FROM graph_cache WHERE key = ?",
                (spec.graph_key(0),),
            ).fetchone()
        assert (row["n"], row["m"]) == (network.n, network.m)
        assert len(row["payload"]) == 8 * network.n + 16 * network.m
        expected = np.concatenate((*network.edge_endpoints(), network.identifier_array))
        assert row["payload"] == expected.tobytes()
        assert (row["max_degree"], row["min_degree"], row["layout"]) == (None, None, None)

    def test_a_row_of_the_csr_layout_is_never_read(self, db_path):
        # A five-array row (indptr, indices, edge_us, edge_vs, ids) stored
        # under the key of the recipe that named no layout: the current key
        # names its layout, so the old row is never found and never hit.
        spec = make_spec()
        network = resolve_network(spec.graph_source(8), seed=spec.network_seed(0))
        old_recipe = {
            "family": spec.family,
            "params": dict(spec.family_params),
            "value": 8,
            "network_seed": spec.network_seed(0),
            "id_scheme": "permuted",
        }
        old_key = hashlib.sha256(
            json.dumps(old_recipe, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        us, vs = network.edge_endpoints()
        rows = sorted([*zip(us.tolist(), vs.tolist()), *zip(vs.tolist(), us.tolist())])
        indptr = np.concatenate(([0], np.cumsum(network.degrees)))
        indices = np.array([v for _, v in rows], dtype=np.int64)
        arrays = (indptr, indices, us, vs, network.identifier_array)
        layout, offset = [], 0
        for field, data in zip(("indptr", "indices", "edge_us", "edge_vs", "ids"), arrays):
            layout.append((field, offset, int(data.size)))
            offset += data.nbytes
        with ResultStore(db_path) as store:
            with store._db:
                store._db.execute(
                    "INSERT INTO graph_cache (key, recipe, status, n, m, max_degree, "
                    "min_degree, layout, payload, builds) "
                    "VALUES (?, ?, 'ready', ?, ?, ?, ?, ?, ?, 1)",
                    (
                        old_key,
                        json.dumps(old_recipe),
                        network.n,
                        network.m,
                        network.max_degree(),
                        network.min_degree(),
                        json.dumps(layout),
                        b"".join(a.tobytes() for a in arrays),
                    ),
                )
            assert spec.graph_key(0) != old_key
            builds = []

            def build():
                builds.append(1)
                return resolve_network(spec.graph_source(8), seed=spec.network_seed(0))

            first = store.network_for(spec.graph_key(0), {"r": 1}, build)
            second = store.network_for(spec.graph_key(0), {"r": 1}, build)
            stats = {row["key"]: row for row in store.graph_cache_stats()}
        assert len(builds) == 1
        assert stats[old_key]["hits"] == 0 and stats[old_key]["builds"] == 1
        assert stats[spec.graph_key(0)]["builds"] == 1
        assert stats[spec.graph_key(0)]["hits"] == 1
        assert first.edges == second.edges == network.edges

    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_every_family_reassembles_identically(self, db_path, family):
        # Every topology view the engines read, and a run on the cache hit.
        spec = make_spec(family=family, values=(10,))
        network = resolve_network(spec.graph_source(10), seed=spec.network_seed(0))
        with ResultStore(db_path) as store:
            key = spec.graph_key(0)
            assert store.claim_graph_build(key, {"family": family})
            store.store_network(key, network)
            cached = store.cached_network(key)
        assert (cached.n, cached.m) == (network.n, network.m)
        assert cached.edges == network.edges
        assert [cached.neighbors(v) for v in cached.vertices] == [
            network.neighbors(v) for v in network.vertices
        ]
        assert cached.identifiers == network.identifiers
        assert (cached.max_degree(), cached.min_degree()) == (
            network.max_degree(),
            network.min_degree(),
        )
        runs = [Runner().run(LubyMIS(), net, problems.MIS, seed=5) for net in (network, cached)]
        assert runs[0] == runs[1]

    def test_cache_hit_adopts_the_payload_identifiers(self, db_path):
        # The endpoint and identifier arrays are read-only views of the one
        # payload buffer the row returned; nothing is copied out of it.
        with ResultStore(db_path) as store:
            network, cached = _stored(store, make_spec())
        arrays = (*cached.edge_endpoints(), cached.identifier_array)
        payload = arrays[0].base
        assert isinstance(payload.base, bytes)
        assert payload.nbytes == 8 * cached.n + 16 * cached.m
        assert all(array.base is payload for array in arrays)
        assert not any(array.flags.writeable for array in arrays)
        assert cached._ids_cache is None
        assert np.array_equal(cached.identifier_array, network.identifier_array)

    def test_cache_hit_runs_the_array_engine_identically(self, db_path):
        # The kernels read the hit's endpoint, degree and identifier arrays,
        # read-only views of the payload, exactly as they read the build's.
        spec = make_spec(family="fast_gnp", values=(500,))
        with ResultStore(db_path) as store:
            network, cached = _stored(store, spec)
        runs = [
            ArrayEngine().run_batch(LubyMISArray(), net, problems.MIS, [0, 1, 2])
            for net in (network, cached)
        ]
        assert runs[0] == runs[1]

    def test_claim_is_exclusive_until_released(self, db_path):
        with ResultStore(db_path) as store:
            assert store.claim_graph_build("k1", {"r": 1})
            assert not store.claim_graph_build("k1", {"r": 1})
            store.release_graph_claim("k1")
            assert store.claim_graph_build("k1", {"r": 1})

    @staticmethod
    def _set_claim(store, key, **columns):
        """Rewrite ``key``'s claim columns, as another process would leave them."""
        assignments = ", ".join(f"{name} = ?" for name in columns)
        with store._db:
            store._db.execute(
                f"UPDATE graph_cache SET {assignments} WHERE key = ?",
                (*columns.values(), key),
            )

    @staticmethod
    def _claim_row(store, key):
        return store._db.execute(
            "SELECT status, claimed_by, claimed_at, builds FROM graph_cache WHERE key = ?",
            (key,),
        ).fetchone()

    def test_a_claim_whose_holder_died_is_stolen(self, db_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its pid names no process now
        with ResultStore(db_path) as store:
            assert store.claim_graph_build("k1", {"r": 1})
            self._set_claim(store, "k1", claimed_by=child.pid)
            before = time.time()
            assert store.claim_graph_build("k1", {"r": 1})
            row = self._claim_row(store, "k1")
        assert row["status"] == "building"
        assert row["claimed_by"] == os.getpid()
        assert row["claimed_at"] >= before

    def test_a_claim_past_the_staleness_window_is_stolen(self, db_path):
        holder = os.getppid()  # alive, but silent for too long
        stale_at = time.time() - store_module._CLAIM_STALE_S - 1.0
        with ResultStore(db_path) as store:
            assert store.claim_graph_build("k1", {"r": 1})
            self._set_claim(store, "k1", claimed_by=holder, claimed_at=stale_at)
            assert store.claim_graph_build("k1", {"r": 1})
            row = self._claim_row(store, "k1")
        assert row["claimed_by"] == os.getpid()
        assert row["claimed_at"] > stale_at + store_module._CLAIM_STALE_S

    def test_a_fresh_live_claim_is_waited_for_then_built_unpublished(self, db_path):
        spec = make_spec()
        key = spec.graph_key(0)
        builds = []

        def build():
            builds.append(1)
            return resolve_network(spec.graph_source(8), seed=spec.network_seed(0))

        holder = os.getppid()  # another live process, still inside the window
        with ResultStore(db_path) as store:
            assert store.claim_graph_build(key, {"r": 1})
            self._set_claim(store, key, claimed_by=holder)
            claimed = self._claim_row(store, key)
            assert not store.claim_graph_build(key, {"r": 1})
            start = time.monotonic()
            network = store.network_for(key, {"r": 1}, build, poll_s=0.01, timeout_s=0.2)
            waited = time.monotonic() - start
            row = self._claim_row(store, key)
            assert store.cached_network(key) is None
        # The wait ran out, so the caller built its own copy and published
        # nothing: the claim is untouched and the row still unbuilt.
        assert waited >= 0.2
        assert len(builds) == 1 and network.n == 8
        assert row["status"] == "building" and row["builds"] == 0
        assert (row["claimed_by"], row["claimed_at"]) == (holder, claimed["claimed_at"])

    def test_network_for_counts_builds_and_hits(self, db_path):
        spec = make_spec()
        key = spec.graph_key(0)
        builds = []

        def build():
            builds.append(1)
            return resolve_network(spec.graph_source(8), seed=spec.network_seed(0))

        with ResultStore(db_path) as store:
            first = store.network_for(key, {"r": 1}, build)
            second = store.network_for(key, {"r": 1}, build)
            stats = store.graph_cache_stats()
        assert len(builds) == 1
        assert first.n == second.n == 8
        assert len(stats) == 1
        assert stats[0]["builds"] == 1
        assert stats[0]["hits"] == 1

    def test_cache_hit_network_runs_identically(self, db_path):
        # A sweep fed cache-hit networks equals one that builds afresh.
        spec = make_spec()
        job_id = run_one(db_path, spec)  # populates the cache
        job_id_2 = run_one(db_path, spec.with_name("rerun"))  # pure cache hits
        with ResultStore(db_path) as store:
            assert store.points(job_id) == store.points(job_id_2)
            stats = store.graph_cache_stats()
        assert all(row["builds"] == 1 for row in stats)
        assert all(row["hits"] >= 1 for row in stats)

    def test_every_stored_recipe_hashes_to_its_key(self, db_path):
        # The cache row and the job's provenance hold the recipe the key
        # hashes, so either reproduces the key.
        spec = make_spec(values=(8, 10, 12))
        job_id = run_one(db_path, spec)
        with ResultStore(db_path) as store:
            stats = store.graph_cache_stats()
            graphs = store.experiment(job_id)["provenance"]["graphs"]
        assert len(stats) == 3
        for row in stats:
            canonical = json.dumps(row["recipe"], sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(canonical.encode()).hexdigest() == row["key"]
        for index in range(3):
            record = graphs[str(index)]
            assert record["recipe"] == spec.graph_recipe(index)
            assert record["key"] == spec.graph_key(index)
        assert {row["key"] for row in stats} == {spec.graph_key(i) for i in range(3)}

    def test_rows_stored_with_the_shorter_recipe_still_hit(self, db_path):
        # Earlier code stored a recipe without the ID scheme and layout
        # under the same key bytes: the keys are unchanged, so its rows
        # answer hits.
        spec = make_spec()
        assert spec.graph_key(0) == (
            "15a38a3af5a97e42df63bed508f46e1ab2db7d036c937021753d992485eb8bc3"
        )
        assert spec.graph_key(1) == (
            "01a6be0700ed003b986f6cea14e0b9a808fb7326960c1756bd00b27c7b9bfd3e"
        )
        with ResultStore(db_path) as store:
            for index, value in enumerate(spec.values):
                recipe = {
                    "family": spec.family,
                    "params": dict(spec.family_params),
                    "value": value,
                    "network_seed": spec.network_seed(index),
                }
                key = spec.graph_key(index)
                assert store.claim_graph_build(key, recipe)
                source = spec.graph_source(value)
                store.store_network(key, resolve_network(source, seed=recipe["network_seed"]))
        job_id = run_one(db_path, spec)
        with ResultStore(db_path) as store:
            stats = store.graph_cache_stats()
            points = store.points(job_id)
        assert [(row["builds"], row["hits"]) for row in stats] == [(1, 1), (1, 1)]
        assert all("layout" not in row["recipe"] for row in stats)
        fresh_path = db_path + ".fresh"
        fresh_id = run_one(fresh_path, spec)
        with ResultStore(fresh_path) as store:
            assert store.points(fresh_id) == points
