"""Durable job queue over the result store's ``experiments`` table.

A job is one submitted :class:`~repro.service.specs.SweepSpec`.  The state
machine:

.. code-block:: text

    queued --claim--> running --complete--> done
      ^                  |
      |                  +--fail(kind)--> queued   (retryable kind,
      |  backoff         |                          attempts < max_attempts)
      +------------------+
                         +--fail(kind)--> failed   (permanent kind, or
                                                    attempts exhausted)
    queued --cancel--> cancelled

Retry classification is :func:`repro.core.errors.is_retryable` over the
failure-taxonomy slugs: a lost worker (``worker-crashed``) or an expired
wall-clock budget retries with exponential backoff (``not_before`` gates
the next claim); a deterministic failure — invalid solution, round-limit
overrun, arbitrary algorithm exception — fails the job permanently, because
the per-cell seed schedule would replay the identical execution on every
attempt.

Claims are atomic (``UPDATE ... WHERE status = 'queued'`` with a rowcount
check), so any number of scheduler processes can pull from one database
without double-running a job.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.sweep import _process_start
from repro.core.errors import is_retryable
from repro.service.specs import SweepSpec
from repro.service.store import ResultStore

__all__ = ["Job", "JobQueue", "JOB_STATUSES"]

JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")


@dataclass(frozen=True)
class Job:
    """One queue row, spec parsed."""

    id: int
    spec: SweepSpec
    status: str
    attempts: int
    max_attempts: int
    not_before: float
    error_kind: Optional[str]
    error_message: Optional[str]

    @property
    def active(self) -> bool:
        return self.status in ("queued", "running")


class JobQueue:
    """Submit / claim / resolve jobs in a service database."""

    def __init__(
        self,
        store: ResultStore,
        backoff_base_s: float = 1.0,
        backoff_cap_s: float = 60.0,
    ) -> None:
        self.store = store
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self._db = store._db

    # ------------------------------------------------------------------ #
    # Producers
    # ------------------------------------------------------------------ #

    def submit(self, spec: SweepSpec, max_attempts: int = 3) -> int:
        """Enqueue a spec as a durable job; returns the job id."""
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        with self._db:
            cursor = self._db.execute(
                "INSERT INTO experiments "
                "(name, spec, spec_digest, status, max_attempts, submitted_at) "
                "VALUES (?, ?, ?, 'queued', ?, ?)",
                (
                    spec.name,
                    spec.canonical_json(),
                    spec.digest(),
                    int(max_attempts),
                    time.time(),
                ),
            )
        return int(cursor.lastrowid)

    def cancel(self, job_id: int) -> bool:
        """Cancel a queued job; True when the job was actually dequeued.

        A running job is not interrupted (its worker owns it); a finished
        job is left untouched.  Cancelling is therefore race-free: it only
        ever transitions ``queued -> cancelled``.
        """
        with self._db:
            cursor = self._db.execute(
                "UPDATE experiments SET status = 'cancelled', finished_at = ? "
                "WHERE id = ? AND status = 'queued'",
                (time.time(), job_id),
            )
        return bool(cursor.rowcount)

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #

    def claim(self, worker_pid: Optional[int] = None) -> Optional[Job]:
        """Atomically claim the oldest ready job (``None`` when queue idle).

        ``worker_pid`` is recorded on the job with its process start time.
        """
        now = time.time()
        row = self._db.execute(
            "SELECT id FROM experiments WHERE status = 'queued' "
            "AND not_before <= ? ORDER BY id LIMIT 1",
            (now,),
        ).fetchone()
        if row is None:
            return None
        job_id = int(row["id"])
        with self._db:
            cursor = self._db.execute(
                "UPDATE experiments SET status = 'running', "
                "attempts = attempts + 1, worker_pid = ?, worker_start = ?, "
                "started_at = ? WHERE id = ? AND status = 'queued'",
                (
                    worker_pid,
                    None if worker_pid is None else _process_start(worker_pid),
                    now,
                    job_id,
                ),
            )
        if not cursor.rowcount:  # lost the race to another scheduler
            return None
        return self.job(job_id)

    def mark_done(self, job_id: int) -> None:
        with self._db:
            self._db.execute(
                "UPDATE experiments SET status = 'done', error_kind = NULL, "
                "error_message = NULL, finished_at = ? "
                "WHERE id = ? AND status = 'running'",
                (time.time(), job_id),
            )

    def mark_failed(
        self,
        job_id: int,
        kind: str,
        message: str,
        worker: Optional[Tuple[int, Optional[int]]] = None,
    ) -> str:
        """Resolve a running job that failed; returns the job's status.

        Applies the retry classification: a retryable ``kind`` with
        attempts to spare goes back to ``queued`` with exponential backoff;
        anything else becomes a permanent ``failed``.  ``worker``, a
        ``(worker_pid, worker_start)`` pair read from the job, resolves it
        only while the job still records that process, so a job claimed
        again in the meantime is left alone.
        """
        job = self.job(job_id)
        retry = is_retryable(kind) and job.attempts < job.max_attempts
        now = time.time()
        if retry:
            backoff = min(
                self.backoff_base_s * (2.0 ** (job.attempts - 1)),
                self.backoff_cap_s,
            )
            status = "queued"
            update = "not_before = ?, error_kind = ?, error_message = ?"
            params = [now + backoff, kind, message, job_id]
        else:
            status = "failed"
            update = "error_kind = ?, error_message = ?, finished_at = ?"
            params = [kind, message, now, job_id]
        guard = ""
        if worker is not None:
            guard = " AND worker_pid = ? AND worker_start IS ?"
            params.extend(worker)
        with self._db:
            cursor = self._db.execute(
                f"UPDATE experiments SET status = '{status}', {update} "
                f"WHERE id = ? AND status = 'running'{guard}",
                params,
            )
        return status if cursor.rowcount else self.job(job_id).status

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def job(self, job_id: int) -> Job:
        record = self.store.experiment(job_id)
        return Job(
            id=int(record["id"]),
            spec=SweepSpec.from_dict(record["spec"]),
            status=str(record["status"]),
            attempts=int(record["attempts"]),
            max_attempts=int(record["max_attempts"]),
            not_before=float(record["not_before"]),
            error_kind=record["error_kind"],
            error_message=record["error_message"],
        )

    def jobs(self) -> List[Job]:
        return [self.job(row["id"]) for row in self.store.list_experiments()]

    def counts(self) -> Dict[str, int]:
        rows = self._db.execute(
            "SELECT status, COUNT(*) AS k FROM experiments GROUP BY status"
        ).fetchall()
        counts = {status: 0 for status in JOB_STATUSES}
        counts.update({row["status"]: int(row["k"]) for row in rows})
        return counts

    def pending(self) -> int:
        """Jobs still to be driven to a terminal state."""
        counts = self.counts()
        return counts["queued"] + counts["running"]
