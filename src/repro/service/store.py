"""The persistent result store (sqlite, schema ``result-store/v2``).

One sqlite database holds everything the service knows:

* ``experiments`` — one row per submitted job: the canonical spec JSON and
  its digest, the queue state machine (status / attempts / backoff, and the
  pid and start time of the process running it), the error trail, and —
  once the job finishes — the full provenance record
  (seed schedule, per-value graph provenance from ``EdgeArrays.meta`` or
  the cache key, engine and batch-chunk choice, and the sweep journal's
  header).
* ``journals`` / ``journal_cells`` — each job's sweep journal (format
  ``sweep-checkpoint/v3``, owned by :mod:`repro.analysis.sweep`), keyed by
  the job id.  The worker's sweep commits one cell row per ``(value index,
  algorithm, trial)`` as the cell finishes: completion times as uint16
  BLOBs for ``ok`` rows (int64 for a row whose times do not fit; verdicts
  are implied — a validated sweep only journals cells whose solutions
  passed), failure slug/seed/message for ``failure`` rows, and the
  recovery timeline JSON when the run was self-stabilising.
  :meth:`ResultStore.cells` reads them from there, widened to int64; the
  store keeps no second copy.
* ``points`` — the aggregated per-``(value, algorithm)`` measurements, at
  full float precision (the exact ``ComplexityMeasurement`` fields, not the
  rounded table form), exactly as the job's ``sweep()`` returned them —
  stored results are bit-identical to in-process ones.
* ``graph_cache`` — the content-addressed edge-array cache: keyed on the
  complete build recipe (:meth:`repro.service.specs.SweepSpec.graph_key`,
  which names the payload layout), a row holds the network's endpoint and
  identifier arrays, int64, back to back: ``8n + 16m`` bytes.  A claim
  protocol (``INSERT OR IGNORE`` of a ``building`` row) guarantees that N
  concurrent jobs needing the same network perform **exactly one** build;
  the ``builds`` counter records it, and a claim whose holder died is
  stolen after a staleness window.

Writers from many processes are expected (CLI submitters, scheduler,
workers): the store opens every connection in WAL mode with a busy
timeout, and every multi-statement mutation runs inside
``BEGIN IMMEDIATE`` so readers never observe half-written jobs.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.analysis.sweep import (
    _JOURNAL_DDL,
    SweepResult,
    _journal_cells,
    _journal_header,
    _pid_alive,
)
from repro.core import schemas
from repro.local.network import Network

__all__ = ["RESULT_STORE_SCHEMA", "ResultStore"]

#: Identifier of the on-disk schema (recorded in the ``meta`` table);
#: spelled out once in :mod:`repro.core.schemas`.
RESULT_STORE_SCHEMA = schemas.RESULT_STORE

#: Seconds after which a ``building`` graph-cache claim whose writer has
#: stopped refreshing is considered dead and may be stolen.
_CLAIM_STALE_S = 300.0

_META_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

_DDL = _JOURNAL_DDL + """
CREATE TABLE IF NOT EXISTS experiments (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    name          TEXT NOT NULL DEFAULT '',
    spec          TEXT NOT NULL,
    spec_digest   TEXT NOT NULL,
    status        TEXT NOT NULL DEFAULT 'queued',
    attempts      INTEGER NOT NULL DEFAULT 0,
    max_attempts  INTEGER NOT NULL DEFAULT 3,
    not_before    REAL NOT NULL DEFAULT 0,
    worker_pid    INTEGER,
    worker_start  INTEGER,
    error_kind    TEXT,
    error_message TEXT,
    submitted_at  REAL NOT NULL,
    started_at    REAL,
    finished_at   REAL,
    provenance    TEXT
);
CREATE INDEX IF NOT EXISTS experiments_status ON experiments(status, not_before);
CREATE TABLE IF NOT EXISTS points (
    experiment_id INTEGER NOT NULL REFERENCES experiments(id),
    idx           INTEGER NOT NULL,
    parameter     TEXT NOT NULL,
    value         TEXT NOT NULL,
    algorithm     TEXT NOT NULL,
    measurement   TEXT NOT NULL,
    PRIMARY KEY (experiment_id, idx)
);
CREATE TABLE IF NOT EXISTS graph_cache (
    key        TEXT PRIMARY KEY,
    recipe     TEXT NOT NULL,
    status     TEXT NOT NULL DEFAULT 'building',
    n          INTEGER,
    m          INTEGER,
    max_degree INTEGER,
    min_degree INTEGER,
    layout     TEXT,
    payload    BLOB,
    builds     INTEGER NOT NULL DEFAULT 0,
    hits       INTEGER NOT NULL DEFAULT 0,
    claimed_by INTEGER,
    claimed_at REAL,
    built_at   REAL
);
"""


class ResultStore:
    """Handle on one service database (safe to hold one per process).

    ``ResultStore(path)`` creates the schema on first use and validates the
    schema version afterwards; a database of another version is refused
    before anything is written to it.  All public methods are safe under
    concurrent access from other processes holding their own stores on the
    same path.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._db = sqlite3.connect(self.path, timeout=30.0)
        try:
            self._db.row_factory = sqlite3.Row
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute("PRAGMA busy_timeout=30000")
            with self._db:
                self._db.executescript(_META_DDL)
                self._db.execute(
                    "INSERT OR IGNORE INTO meta(key, value) VALUES ('schema', ?)",
                    (RESULT_STORE_SCHEMA,),
                )
            schema = self._db.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()[0]
            if schema != RESULT_STORE_SCHEMA:
                raise ValueError(
                    f"{self.path} uses result-store schema {schema!r}, this "
                    f"code speaks {RESULT_STORE_SCHEMA!r}"
                )
            self._db.executescript(_DDL)
        except BaseException:
            # A handle abandoned by a failed __init__ (foreign schema, DDL
            # error) has no owner to close it; sqlite keeps the file locked
            # until the connection is garbage-collected.
            self._db.close()
            raise

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Experiments (rows are managed by JobQueue; read here)
    # ------------------------------------------------------------------ #

    def experiment(self, job_id: int) -> Dict[str, object]:
        row = self._db.execute(
            "SELECT * FROM experiments WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no experiment with id {job_id}")
        record = dict(row)
        record["spec"] = json.loads(record["spec"])
        if record["provenance"]:
            record["provenance"] = json.loads(record["provenance"])
        return record

    def list_experiments(self) -> List[Dict[str, object]]:
        rows = self._db.execute(
            "SELECT id, name, spec_digest, status, attempts, max_attempts, "
            "error_kind, submitted_at, started_at, finished_at "
            "FROM experiments ORDER BY id"
        ).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def record_results(
        self,
        job_id: int,
        result: SweepResult,
        provenance: Mapping[str, object],
    ) -> None:
        """Persist a finished job's aggregated points and provenance.

        ``result`` is what the job's ``sweep()`` returned; its points are
        stored at full float precision.  The cells are already in the job's
        journal, so nothing is re-read or re-aggregated here.  Idempotent
        per job: re-recording replaces the previous points.
        """
        point_rows = [
            (
                job_id,
                idx,
                point.parameter,
                json.dumps(point.value),
                point.measurement.algorithm,
                json.dumps(dict(point.measurement.__dict__)),
            )
            for idx, point in enumerate(result)
        ]
        with self._db:
            self._db.execute("DELETE FROM points WHERE experiment_id = ?", (job_id,))
            self._db.executemany(
                "INSERT INTO points VALUES (?,?,?,?,?,?)", point_rows
            )
            self._db.execute(
                "UPDATE experiments SET provenance = ? WHERE id = ?",
                (json.dumps(dict(provenance)), job_id),
            )

    def points(self, job_id: int) -> List[Dict[str, object]]:
        """The stored per-(value, algorithm) measurements, in sweep order.

        Each entry carries ``parameter`` / ``value`` / ``algorithm`` plus
        the full-precision ``measurement`` mapping (every
        ``ComplexityMeasurement`` field, quantile and recovery extras
        included).
        """
        rows = self._db.execute(
            "SELECT * FROM points WHERE experiment_id = ? ORDER BY idx",
            (job_id,),
        ).fetchall()
        out = []
        for row in rows:
            out.append(
                {
                    "parameter": row["parameter"],
                    "value": json.loads(row["value"]),
                    "algorithm": row["algorithm"],
                    "measurement": json.loads(row["measurement"]),
                }
            )
        return out

    def cells(self, job_id: int) -> List[Dict[str, object]]:
        """The job's journaled per-trial cells; completion times as int64
        arrays, whatever width the journal stores them at."""
        return list(_journal_cells(self._db, job_id))

    def failures(self, job_id: int) -> List[Dict[str, object]]:
        """The job's journaled failure cells (kind / seed / message)."""
        return list(_journal_cells(self._db, job_id, status="failure"))

    def journal_header(self, job_id: int) -> Dict[str, object]:
        """The header of the job's sweep journal (the sweep's identity)."""
        header = _journal_header(self._db, job_id, f"journal {job_id} in {self.path}")
        if header is None:
            raise KeyError(f"no sweep journal for experiment {job_id}")
        return header

    # ------------------------------------------------------------------ #
    # Content-addressed graph cache
    # ------------------------------------------------------------------ #

    def cached_network(self, key: str) -> Optional[Network]:
        """The ready network stored under ``key``, or ``None``.

        The payload is the network's ``edge_us``, ``edge_vs`` and identifier
        arrays, int64, back to back; it is split by ``n`` and ``m`` into
        zero-copy read-only views of the payload bytes and adopted by the
        trusted constructor :meth:`Network._from_arrays`, so a cache-hit
        network is indistinguishable from the freshly built original.
        """
        row = self._db.execute(
            "SELECT n, m, payload FROM graph_cache WHERE key = ? AND status = 'ready'",
            (key,),
        ).fetchone()
        if row is None:
            return None
        self._db.execute(
            "UPDATE graph_cache SET hits = hits + 1 WHERE key = ?", (key,)
        )
        self._db.commit()
        n, m = int(row["n"]), int(row["m"])
        arrays = np.frombuffer(row["payload"], dtype=np.int64)
        return Network._from_arrays(n, arrays[:m], arrays[m : 2 * m], arrays[2 * m :])

    def claim_graph_build(self, key: str, recipe: Mapping[str, object]) -> bool:
        """Try to claim the (single) build of ``key``; True when claimed.

        Exactly one concurrent claimant wins the atomic
        ``INSERT OR IGNORE``; losers should poll :meth:`cached_network` (or
        call :meth:`network_for`, which wraps the whole protocol).  A
        ``building`` claim whose holder died (pid gone, or the claim is
        older than the staleness window) is stolen.
        """
        now = time.time()
        with self._db:
            cursor = self._db.execute(
                "INSERT OR IGNORE INTO graph_cache "
                "(key, recipe, status, claimed_by, claimed_at) "
                "VALUES (?, ?, 'building', ?, ?)",
                (key, json.dumps(dict(recipe)), os.getpid(), now),
            )
            if cursor.rowcount:
                return True
            row = self._db.execute(
                "SELECT status, claimed_by, claimed_at FROM graph_cache "
                "WHERE key = ?",
                (key,),
            ).fetchone()
            if row is None or row["status"] == "ready":
                return False
            holder = row["claimed_by"]
            stale = (
                row["claimed_at"] is None
                or now - float(row["claimed_at"]) > _CLAIM_STALE_S
                or (holder is not None and not _pid_alive(int(holder)))
            )
            if not stale:
                return False
            cursor = self._db.execute(
                "UPDATE graph_cache SET claimed_by = ?, claimed_at = ? "
                "WHERE key = ? AND status = 'building' AND claimed_at = ?",
                (os.getpid(), now, key, row["claimed_at"]),
            )
            return bool(cursor.rowcount)

    def store_network(self, key: str, network: Network) -> None:
        """Fill a claimed cache row with the built network's payload.

        The payload binds as one buffer of ``8n + 16m`` bytes, the endpoint
        arrays and the identifiers back to back.
        """
        payload = np.concatenate((*network.edge_endpoints(), network.identifier_array))
        with self._db:
            self._db.execute(
                "UPDATE graph_cache SET status = 'ready', n = ?, m = ?, "
                "payload = ?, builds = builds + 1, built_at = ? WHERE key = ?",
                (network.n, network.m, payload, time.time(), key),
            )

    def release_graph_claim(self, key: str) -> None:
        """Drop an unfilled claim (the build raised); unblocks other waiters."""
        with self._db:
            self._db.execute(
                "DELETE FROM graph_cache WHERE key = ? AND status = 'building'",
                (key,),
            )

    def network_for(
        self,
        key: str,
        recipe: Mapping[str, object],
        build: Callable[[], Network],
        poll_s: float = 0.05,
        timeout_s: float = 120.0,
    ) -> Network:
        """The network for ``key``: cache hit, else claim-build-store, else wait.

        The full dedup protocol: whoever claims the row builds once and
        publishes; everyone else polls until the payload is ready.  If the
        wait times out (a wedged builder just inside the staleness window),
        the caller builds locally without publishing — correctness over
        dedup.
        """
        network = self.cached_network(key)
        if network is not None:
            return network
        deadline = time.time() + timeout_s
        while True:
            if self.claim_graph_build(key, recipe):
                try:
                    network = build()
                except BaseException:
                    self.release_graph_claim(key)
                    raise
                self.store_network(key, network)
                return network
            network = self.cached_network(key)
            if network is not None:
                return network
            if time.time() >= deadline:
                return build()
            time.sleep(poll_s)

    def graph_cache_stats(self) -> List[Dict[str, object]]:
        """Per-key cache accounting (builds / hits / sizes), for tests & ops."""
        rows = self._db.execute(
            "SELECT key, recipe, status, n, m, builds, hits FROM graph_cache "
            "ORDER BY key"
        ).fetchall()
        out = []
        for row in rows:
            record = dict(row)
            record["recipe"] = json.loads(record["recipe"])
            out.append(record)
        return out
