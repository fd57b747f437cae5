"""Tests for the durable job queue (submit / claim / retry classification)."""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.sweep import _process_start
from repro.core.errors import (
    CheckpointLocked,
    ValidationFailed,
    WorkerCrashed,
    is_retryable,
)
from repro.service.queue import JobQueue
from repro.service.specs import SweepSpec
from repro.service.store import ResultStore


def make_spec(**overrides):
    settings = dict(
        parameter="n",
        values=(8,),
        family="cycle",
        algorithms=("luby_mis",),
        trials=1,
    )
    settings.update(overrides)
    return SweepSpec(**settings)


@pytest.fixture
def queue(tmp_path):
    store = ResultStore(str(tmp_path / "q.db"))
    yield JobQueue(store, backoff_base_s=0.05, backoff_cap_s=0.2)
    store.close()


class TestLifecycle:
    def test_submit_claim_done(self, queue):
        job_id = queue.submit(make_spec())
        job = queue.claim()
        assert job.id == job_id
        assert job.status == "running"
        assert job.attempts == 1
        queue.mark_done(job_id)
        done = queue.job(job_id)
        assert done.status == "done"
        assert not done.active
        assert queue.claim() is None

    def test_claims_are_fifo(self, queue):
        first = queue.submit(make_spec())
        second = queue.submit(make_spec(seed=1))
        assert queue.claim().id == first
        assert queue.claim().id == second

    def test_spec_round_trips_through_the_queue(self, queue):
        spec = make_spec(values=(8, 12), trials=3, batch_budget_bytes=1 << 20)
        job_id = queue.submit(spec)
        assert queue.job(job_id).spec == spec

    def test_cancel_only_dequeues_queued_jobs(self, queue):
        job_id = queue.submit(make_spec())
        assert queue.cancel(job_id)
        assert queue.job(job_id).status == "cancelled"
        assert not queue.cancel(job_id)  # already cancelled
        running = queue.submit(make_spec(seed=1))
        queue.claim()
        assert not queue.cancel(running)  # running jobs are its worker's
        assert queue.job(running).status == "running"

    def test_counts_and_pending(self, queue):
        queue.submit(make_spec())
        queue.submit(make_spec(seed=1))
        queue.claim()
        counts = queue.counts()
        assert counts["queued"] == 1
        assert counts["running"] == 1
        assert queue.pending() == 2


class TestRetryClassification:
    def test_worker_crash_requeues_with_backoff(self, queue):
        job_id = queue.submit(make_spec(), max_attempts=3)
        queue.claim()
        status = queue.mark_failed(job_id, WorkerCrashed.kind, "lost")
        assert status == "queued"
        job = queue.job(job_id)
        assert job.status == "queued"
        assert job.error_kind == WorkerCrashed.kind
        assert job.not_before > time.time() - 0.01  # backoff gate is set
        # The gate really gates: an immediate claim skips the job.
        if job.not_before > time.time():
            assert queue.claim() is None
        time.sleep(max(0.0, job.not_before - time.time()) + 0.01)
        assert queue.claim().id == job_id

    def test_validation_failure_is_permanent(self, queue):
        # Deterministic failures replay identically under the fixed seed
        # schedule, so retrying can never help.
        job_id = queue.submit(make_spec(), max_attempts=5)
        queue.claim()
        status = queue.mark_failed(job_id, ValidationFailed.kind, "bad MIS")
        assert status == "failed"
        job = queue.job(job_id)
        assert job.status == "failed"
        assert job.attempts == 1  # retries never happened

    def test_attempt_budget_exhausts_retryable_failures(self, queue):
        job_id = queue.submit(make_spec(), max_attempts=2)
        queue.claim()
        assert queue.mark_failed(job_id, WorkerCrashed.kind, "1") == "queued"
        time.sleep(0.06)
        queue.claim()
        assert queue.mark_failed(job_id, WorkerCrashed.kind, "2") == "failed"
        assert queue.job(job_id).attempts == 2

    def test_backoff_grows_exponentially_up_to_the_cap(self, queue):
        job_id = queue.submit(make_spec(), max_attempts=10)
        gates = []
        for _ in range(4):
            while queue.claim() is None:
                time.sleep(0.01)
            before = time.time()
            queue.mark_failed(job_id, CheckpointLocked.kind, "busy")
            gates.append(queue.job(job_id).not_before - before)
        assert gates[0] == pytest.approx(0.05, abs=0.02)
        assert gates[1] == pytest.approx(0.10, abs=0.02)
        assert gates[2] == pytest.approx(0.20, abs=0.02)  # capped
        assert gates[3] == pytest.approx(0.20, abs=0.02)  # stays capped

    def test_claim_records_the_worker_process(self, queue):
        job_id = queue.submit(make_spec())
        queue.claim(worker_pid=os.getpid())
        record = queue.store.experiment(job_id)
        assert record["worker_pid"] == os.getpid()
        assert record["worker_start"] == _process_start(os.getpid())

    def test_worker_guard_leaves_a_reclaimed_job_alone(self, queue):
        job_id = queue.submit(make_spec(), max_attempts=3)
        queue.claim(worker_pid=os.getpid())
        started = _process_start(os.getpid())
        # Another process now holds the job: the guard does not match.
        assert queue.mark_failed(
            job_id, WorkerCrashed.kind, "stale", worker=(os.getpid() + 1, started)
        ) == "running"
        job = queue.job(job_id)
        assert (job.status, job.attempts, job.error_kind) == ("running", 1, None)
        # The recorded process matches: resolved as usual.
        assert queue.mark_failed(
            job_id, WorkerCrashed.kind, "lost", worker=(os.getpid(), started)
        ) == "queued"

    def test_taxonomy_wiring(self):
        assert is_retryable(WorkerCrashed.kind)
        assert is_retryable(CheckpointLocked.kind)
        assert not is_retryable(ValidationFailed.kind)
        assert not is_retryable("exception:ValueError")
