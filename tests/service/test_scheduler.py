"""End-to-end scheduler tests: the ISSUE's durability proof.

Submit two experiments, SIGKILL a worker mid-sweep, restart, and read
results out of the store that are bit-identical to an uninterrupted
in-process run — plus the graph-cache dedup guarantee under concurrent
submitters.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.analysis import sweep
from repro.core.errors import ValidationFailed, WorkerCrashed
from repro.service.queue import JobQueue
from repro.service.scheduler import KILL_ENV, Scheduler, journal_path, run_job
from repro.service.specs import SweepSpec
from repro.service.store import ResultStore

sweepmod = sys.modules["repro.analysis.sweep"]


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


def make_scheduler(db_path, **overrides):
    settings = dict(poll_s=0.02, backoff_base_s=0.02, backoff_cap_s=0.1)
    settings.update(overrides)
    return Scheduler(str(db_path), **settings)


def stored_measurements(store, job_id):
    return [
        (row["value"], row["algorithm"], row["measurement"])
        for row in store.points(job_id)
    ]


def cell_keys(store, job_id):
    return [
        (cell["value_index"], cell["algorithm"], cell["trial"])
        for cell in store.cells(job_id)
    ]


def live_measurements(spec):
    return [
        (
            point.value,
            point.measurement.algorithm,
            {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in point.measurement.__dict__.items()
            },
        )
        for point in sweep(**spec.sweep_kwargs())
    ]


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "service.db")


class TestHappyPath:
    def test_drain_resolves_submitted_jobs(self, db_path):
        scheduler = make_scheduler(db_path)
        try:
            spec = make_spec()
            job_id = scheduler.queue.submit(spec)
            assert scheduler.drain() == [job_id]
            job = scheduler.queue.job(job_id)
            assert job.status == "done"
            assert job.attempts == 1
            assert stored_measurements(scheduler.store, job_id) == (
                live_measurements(spec)
            )
        finally:
            scheduler.close()

    def test_drain_wakes_when_the_worker_exits(self, db_path):
        # The drain waits on the worker's sentinel, so a finished job is
        # noticed at once rather than at the next poll_s tick.
        scheduler = make_scheduler(db_path, poll_s=5.0)
        try:
            job_id = scheduler.queue.submit(make_spec())
            start = time.monotonic()
            assert scheduler.drain() == [job_id]
            elapsed = time.monotonic() - start
            assert scheduler.queue.job(job_id).status == "done"
        finally:
            scheduler.close()
        assert elapsed < 2.5

    def test_provenance_records_the_full_execution_recipe(self, db_path):
        scheduler = make_scheduler(db_path)
        try:
            spec = make_spec(batch_budget_bytes=1 << 20)
            job_id = scheduler.queue.submit(spec)
            scheduler.drain()
            record = scheduler.store.experiment(job_id)
        finally:
            scheduler.close()
        provenance = record["provenance"]
        assert provenance["spec_digest"] == spec.digest()
        assert provenance["batch_budget_bytes"] == 1 << 20
        assert provenance["checkpoint_header"]["batch_budget"] == 1 << 20
        # The explicit per-index seed schedule follows the sweep convention.
        schedule = provenance["seed_schedule"]["per_index"]
        assert schedule["0"] == [3, 4]  # seed + 1000*0 + trial
        assert schedule["1"] == [1003, 1004]
        graphs = provenance["graphs"]
        assert graphs["0"]["n"] == 8
        assert graphs["1"]["n"] == 10
        assert graphs["0"]["key"] == spec.graph_key(0)
        assert graphs["0"]["batch_chunk"] >= 1
        assert graphs["0"]["edge_arrays_meta"]["family"] == "cycle"

    def test_failure_cells_are_recorded_not_fatal(self, db_path):
        # An impossible round budget turns every cell into a structured
        # failure row; the job itself still completes.
        scheduler = make_scheduler(db_path)
        try:
            spec = make_spec(values=(8,), trials=1, max_rounds=0)
            job_id = scheduler.queue.submit(spec)
            scheduler.drain()
            job = scheduler.queue.job(job_id)
            failures = scheduler.store.failures(job_id)
        finally:
            scheduler.close()
        assert job.status == "done"
        assert len(failures) == 1
        assert failures[0]["kind"] == "round-limit"
        assert failures[0]["seed"] == 3


class TestDurability:
    def test_sigkilled_worker_resumes_cell_exact(self, db_path, monkeypatch):
        """The ISSUE acceptance scenario, end to end.

        The kill seam SIGKILLs every worker two journal rows into its sweep.
        Attempt 1 journals cells 1-2 and dies; attempt 2 resumes, skips the
        finished cells, journals 3-4 and dies; attempt 3 finds the journal
        complete, stores the points, done.  The stored measurements equal an
        uninterrupted in-process run — resumption is cell-exact, not merely
        approximate.
        """
        monkeypatch.setenv(KILL_ENV, "2")
        spec = make_spec()  # 2 values x 1 algorithm x 2 trials = 4 cells
        scheduler = make_scheduler(db_path)
        try:
            job_id = scheduler.queue.submit(spec, max_attempts=3)
            scheduler.drain()
            job = scheduler.queue.job(job_id)
            assert job.status == "done"
            assert job.attempts == 3  # died twice, finished on the third
            monkeypatch.delenv(KILL_ENV)
            assert stored_measurements(scheduler.store, job_id) == (
                live_measurements(spec)
            )
            # The journal tells the story: all four cells present, written
            # across two attempts, each exactly once.
            assert cell_keys(scheduler.store, job_id) == [
                (0, "luby_mis", 0),
                (0, "luby_mis", 1),
                (1, "luby_mis", 0),
                (1, "luby_mis", 1),
            ]
        finally:
            scheduler.close()
        # The journal is the store: no side directory, no second file.
        assert journal_path(db_path, job_id) == os.path.abspath(db_path)
        assert not os.path.exists(db_path + ".journals")

    def test_dead_worker_is_classified_worker_crashed(self, db_path, monkeypatch):
        monkeypatch.setenv(KILL_ENV, "1")
        scheduler = make_scheduler(db_path)
        try:
            spec = make_spec(values=(8,), trials=1)  # a single cell
            job_id = scheduler.queue.submit(spec, max_attempts=1)
            scheduler.drain()
            job = scheduler.queue.job(job_id)
        finally:
            scheduler.close()
        assert job.status == "failed"
        assert job.error_kind == WorkerCrashed.kind
        assert "exited" in job.error_message

    def test_journal_rows_survive_the_crash(self, db_path, monkeypatch):
        monkeypatch.setenv(KILL_ENV, "2")
        scheduler = make_scheduler(db_path)
        try:
            job_id = scheduler.queue.submit(make_spec(), max_attempts=1)
            scheduler.drain()
            assert scheduler.queue.job(job_id).status == "failed"
            # The two cells finished before the SIGKILL, and nothing else.
            assert cell_keys(scheduler.store, job_id) == [
                (0, "luby_mis", 0),
                (0, "luby_mis", 1),
            ]
            assert scheduler.store.journal_header(job_id)["parameter"] == "n"
            assert scheduler.store.points(job_id) == []
        finally:
            scheduler.close()

    def test_deterministic_failure_never_retries(self, db_path):
        scheduler = make_scheduler(db_path)
        try:
            # Validation of a wrong answer is deterministic under the seed
            # schedule: LubyMIS cannot stabilise in 0 rounds, and with
            # on_error="record" that lands as failure rows (job done).  To
            # exercise the *permanent-fail* path instead, mark the job
            # failed directly with a deterministic kind.
            job_id = scheduler.queue.submit(make_spec(), max_attempts=5)
            scheduler.queue.claim()
            status = scheduler.queue.mark_failed(
                job_id, ValidationFailed.kind, "wrong"
            )
            assert status == "failed"
            assert scheduler.drain() == []  # nothing left to run
        finally:
            scheduler.close()


def _exited_pid():
    process = multiprocessing.get_context("fork").Process(target=os._exit, args=(0,))
    process.start()
    process.join()
    return process.pid


def drain_in_thread(db_path):
    """A fresh scheduler's ``drain()``; fails the test if it hangs."""

    def drain():
        scheduler = make_scheduler(db_path)
        try:
            scheduler.drain()
        finally:
            scheduler.close()

    drainer = threading.Thread(target=drain, daemon=True)
    drainer.start()
    drainer.join(60)
    assert not drainer.is_alive(), "drain() hung on the orphaned job"


class TestOrphanedJobs:
    def test_job_orphaned_by_a_dead_scheduler_is_retried(self, db_path):
        """A ``running`` job whose scheduler and worker both died.

        No scheduler owns it, so only the pid check can resolve it; before
        the fix, every later ``drain()`` spun on ``pending() > 0`` forever.
        """
        spec = make_spec()
        with ResultStore(db_path) as store:
            queue = JobQueue(store)
            job_id = queue.submit(spec)
            assert queue.claim().id == job_id
            with store._db:
                store._db.execute(
                    "UPDATE experiments SET worker_pid = ? WHERE id = ?",
                    (_exited_pid(), job_id),
                )
        drain_in_thread(db_path)
        with ResultStore(db_path) as store:
            job = JobQueue(store).job(job_id)
            assert job.status == "done"
            assert job.attempts == 2
            assert stored_measurements(store, job_id) == live_measurements(spec)

    @pytest.mark.skipif(
        sweepmod._process_start(os.getpid()) is None,
        reason="process start times need /proc",
    )
    def test_orphan_whose_pid_was_reused_is_retried(self, db_path):
        # The orphan's pid now names a live, unrelated process (here: this
        # one); its recorded start time says the recorded process is gone.
        spec = make_spec()
        with ResultStore(db_path) as store:
            queue = JobQueue(store)
            job_id = queue.submit(spec)
            queue.claim(worker_pid=os.getpid())
            with store._db:
                store._db.execute(
                    "UPDATE experiments SET worker_start = worker_start - 1 WHERE id = ?",
                    (job_id,),
                )
        drain_in_thread(db_path)
        with ResultStore(db_path) as store:
            job = JobQueue(store).job(job_id)
            assert (job.status, job.attempts) == ("done", 2)
            assert stored_measurements(store, job_id) == live_measurements(spec)

    def test_reaper_leaves_a_job_claimed_again_alone(self, db_path, monkeypatch):
        """Between the reaper's read and its update, another scheduler
        fails the orphan itself and claims the retry for a live worker."""
        with ResultStore(db_path) as store:
            job_id = JobQueue(store).submit(make_spec())
            JobQueue(store).claim(worker_pid=_exited_pid())
        real_pid_alive = sweepmod._pid_alive

        def reclaimed_meanwhile(pid, started=None):
            with ResultStore(db_path) as other:
                queue = JobQueue(other, backoff_base_s=0.0)
                queue.mark_failed(job_id, WorkerCrashed.kind, "reconciled")
                assert queue.claim(worker_pid=os.getpid()).id == job_id
            return real_pid_alive(pid, started)

        monkeypatch.setattr(sweepmod, "_pid_alive", reclaimed_meanwhile)
        scheduler = make_scheduler(db_path)
        try:
            scheduler._reap_orphans()
            job = scheduler.queue.job(job_id)
            # The second attempt is left running; no attempt was burned.
            assert (job.status, job.attempts) == ("running", 2)
            assert scheduler.store.experiment(job_id)["worker_pid"] == os.getpid()
        finally:
            scheduler.close()

    def test_scheduler_stamps_its_pid_at_claim(self, db_path, monkeypatch):
        claimed = []
        real_claim = JobQueue.claim

        def spy(queue, worker_pid=None):
            job = real_claim(queue, worker_pid=worker_pid)
            if job is not None:
                claimed.append(queue.store.experiment(job.id)["worker_pid"])
            return job

        monkeypatch.setattr(JobQueue, "claim", spy)
        scheduler = make_scheduler(db_path)
        try:
            job_id = scheduler.queue.submit(make_spec(values=(8,), trials=1))
            scheduler.drain()
            assert scheduler.queue.job(job_id).status == "done"
        finally:
            scheduler.close()
        assert claimed == [os.getpid()]

    def test_live_foreign_jobs_are_left_alone(self, db_path):
        # A running job whose recorded pid is alive (here: this process)
        # belongs to someone else's worker; drain() must not fail it.
        with ResultStore(db_path) as store:
            queue = JobQueue(store)
            job_id = queue.submit(make_spec())
            queue.claim(worker_pid=os.getpid())
        scheduler = make_scheduler(db_path)
        try:
            scheduler._reap_orphans()
            assert scheduler.queue.job(job_id).status == "running"
        finally:
            scheduler.close()


class TestGraphCacheDedup:
    def test_concurrent_submitters_share_one_csr_build(self, db_path):
        """Two jobs over the same family running concurrently: every graph
        key is built exactly once, the second consumer reads the cache."""
        spec_a = make_spec(trials=2)
        spec_b = make_spec(trials=2, name="same graphs, other submitter")
        with ResultStore(db_path) as store:
            queue = JobQueue(store)
            id_a = queue.submit(spec_a)
            id_b = queue.submit(spec_b)
        scheduler = make_scheduler(db_path, max_workers=2)
        try:
            scheduler.drain()
            assert scheduler.queue.job(id_a).status == "done"
            assert scheduler.queue.job(id_b).status == "done"
            stats = scheduler.store.graph_cache_stats()
            points_a = stored_measurements(scheduler.store, id_a)
            points_b = stored_measurements(scheduler.store, id_b)
        finally:
            scheduler.close()
        assert len(stats) == 2  # one row per swept value
        for row in stats:
            assert row["status"] == "ready"
            assert row["builds"] == 1  # exactly one network build per key
        # And dedup changed nothing about the results.
        assert points_a == points_b
        assert points_a == live_measurements(spec_a)

    def test_run_job_workers_in_separate_processes_dedup(self, db_path):
        """The raw two-process race (no scheduler serialisation at all)."""
        spec = make_spec(values=(14,), trials=1)
        with ResultStore(db_path) as store:
            queue = JobQueue(store)
            id_a = queue.submit(spec)
            id_b = queue.submit(spec.with_name("b"))
            assert queue.claim().id == id_a
            assert queue.claim().id == id_b
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=run_job, args=(db_path, job_id))
            for job_id in (id_a, id_b)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        with ResultStore(db_path) as store:
            queue = JobQueue(store)
            assert queue.job(id_a).status == "done"
            assert queue.job(id_b).status == "done"
            stats = store.graph_cache_stats()
            assert len(stats) == 1
            assert stats[0]["builds"] == 1
            assert store.points(id_a) == store.points(id_b)
