"""The dispatcher: fans queued jobs onto worker processes.

Execution model
---------------

The scheduler claims jobs (atomically, via the queue) and runs each in its
own **worker process** (:func:`run_job`).  A worker executes the spec
through the existing crash-safe sweep with ``on_error="record"`` and the
job's journal in the result store itself (keyed by the job id), so every
cell row is written once, as it finishes.  The worker then stores the
points of the ``sweep()`` result and the provenance, and resolves the job.

Durability falls out of composing the existing primitives:

* a worker that dies mid-sweep (OOM SIGKILL, machine reset) leaves the job
  ``running``; the scheduler notices the dead process and applies the retry
  classification (``worker-crashed`` is retryable), so the job re-queues
  with backoff;
* a job left ``running`` by a scheduler that died with its worker is
  failed the same way by the next scheduler whose ``drain()`` has no live
  worker of its own: the job's recorded process (the scheduler's, stamped
  at claim, then the worker's; pid and start time, so a reused pid does
  not pass for it) is dead;
* the retry's worker reopens the same journal and **resumes cell-exactly**
  — finished cells are never re-run, and the per-cell seed schedule makes
  the completed result identical to an uninterrupted run;
* the journal's single-writer claim means a half-dead predecessor can
  never interleave rows with the retry (the retry would get a clean
  :class:`~repro.core.errors.CheckpointLocked`, itself retryable).

Graph builds go through the store's content-addressed cache
(:meth:`ResultStore.network_for`), so concurrent jobs sweeping the same
family perform exactly one network build between them.

Test seam: when ``REPRO_SERVICE_KILL_AFTER_ROWS=<k>`` is set in a worker's
environment, the worker SIGKILLs itself after journaling ``k`` cell rows —
the deterministic mid-run crash used by the durability tests and the
``make serve-smoke`` CI step.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from typing import Dict, List, Optional

# `repro.analysis` re-exports the sweep *function*, which shadows the
# submodule on attribute-style imports; resolve the module itself.
import importlib

sweepmod = importlib.import_module("repro.analysis.sweep")
from repro.core.errors import WorkerCrashed, classify_failure
from repro.core.experiment import resolve_network
from repro.local.engine import _BATCH_BYTE_BUDGET, batch_chunk
from repro.service.queue import JobQueue
from repro.service.specs import SweepSpec
from repro.service.store import ResultStore

__all__ = ["Scheduler", "run_job", "journal_path"]

#: Environment variable arming the worker's deterministic self-kill seam.
KILL_ENV = "REPRO_SERVICE_KILL_AFTER_ROWS"


def journal_path(db_path: str, job_id: int) -> str:
    """The database holding job ``job_id``'s sweep journal: the store itself,
    under the job id as the journal key."""
    return os.path.abspath(db_path)


def _arm_kill_seam() -> None:
    kill_after = os.environ.get(KILL_ENV)
    if not kill_after:
        return
    rows_seen = itertools.count(1)
    threshold = int(kill_after)

    def _kill_hook(row: Dict[str, object]) -> None:
        if next(rows_seen) >= threshold:
            os.kill(os.getpid(), signal.SIGKILL)

    sweepmod._test_hook = _kill_hook


def run_job(db_path: str, job_id: int) -> str:
    """Execute one claimed job to resolution; returns the final status.

    Runs in the worker process (but is equally callable inline, e.g. from
    tests): executes the sweep journaled into the store, persists points +
    provenance, and marks the job done — or classifies the failure and lets
    the queue decide between retry and permanent failure.
    """
    store = ResultStore(db_path)
    queue = JobQueue(store)
    job = queue.job(job_id)
    spec = job.spec
    try:
        _arm_kill_seam()
        pid = os.getpid()
        with store._db:
            store._db.execute(
                "UPDATE experiments SET worker_pid = ?, worker_start = ? WHERE id = ?",
                (pid, sweepmod._process_start(pid), job_id),
            )
        graph_provenance: Dict[int, Dict[str, object]] = {}
        factory = _cached_graph_factory(store, spec, graph_provenance)
        result = sweepmod.sweep(
            **spec.sweep_kwargs(factory),
            checkpoint=(journal_path(db_path, job_id), job_id),
            on_error="record",
        )
        provenance = _provenance(
            spec, store.journal_header(job_id), graph_provenance
        )
        store.record_results(job_id, result, provenance)
        queue.mark_done(job_id)
        return "done"
    except KeyboardInterrupt:
        raise
    except BaseException as error:  # noqa: BLE001 - every failure is classified
        status = queue.mark_failed(job_id, classify_failure(error), str(error))
        return status
    finally:
        store.close()


def _cached_graph_factory(store: ResultStore, spec: SweepSpec, provenance: Dict):
    """A sweep ``graph_factory`` that answers from the shared graph cache.

    Returns ready :class:`Network` objects (which ``resolve_network`` passes
    through untouched), built at most once per content key across every
    concurrent worker on the same database.  Records per-index provenance
    (cache key and the recipe it hashes, sizes, ``EdgeArrays.meta`` when
    this worker did the build) as a side effect.
    """
    values = list(spec.values)

    def factory(value: object):
        index = values.index(value)
        key, recipe = spec.graph_key(index), spec.graph_recipe(index)
        built_meta: Dict[str, object] = {}

        def build():
            source = spec.graph_source(value)
            meta = getattr(source, "meta", None)
            if meta:
                built_meta.update(dict(meta))
            return resolve_network(source, seed=spec.network_seed(index))

        network = store.network_for(key, recipe, build)
        provenance[index] = {
            "key": key,
            "recipe": recipe,
            "n": network.n,
            "m": network.m,
            # EdgeArrays.meta of the generated source when this worker built
            # the network; a cache hit records the recipe (equivalent
            # provenance — the recipe *is* the build input).
            "edge_arrays_meta": built_meta or None,
            "batch_chunk": batch_chunk(
                network.n,
                network.m,
                spec.trials,
                (
                    _BATCH_BYTE_BUDGET
                    if spec.batch_budget_bytes is None
                    else int(spec.batch_budget_bytes)
                ),
            ),
        }
        return network

    return factory


def _provenance(
    spec: SweepSpec,
    header: Dict[str, object],
    graphs: Dict[int, Dict[str, object]],
) -> Dict[str, object]:
    """The full provenance record stored alongside a job's results."""
    return {
        "spec_digest": spec.digest(),
        # The complete, explicit seed schedule: the rule, and each index's
        # seeds listed so a stored cell reproduces with a single serial
        # run_trials call.
        "seed_schedule": {
            "rule": sweepmod.CELL_SEED_RULE,
            "seed": spec.seed,
            "per_index": {
                str(index): [sweepmod.cell_seed(spec.seed, index, t) for t in range(spec.trials)]
                for index in range(len(spec.values))
            },
        },
        "engine": spec.engine,
        "batch_budget_bytes": spec.batch_budget_bytes,
        "default_batch_budget_bytes": _BATCH_BYTE_BUDGET,
        "checkpoint_header": dict(header),
        "graphs": {str(index): info for index, info in sorted(graphs.items())},
    }


class Scheduler:
    """Claims jobs and dispatches them onto worker processes.

    ``max_workers`` bounds concurrent worker processes; claims are atomic,
    so several Scheduler instances (even in different processes) can share
    one database.  ``backoff_base_s`` / ``backoff_cap_s`` parameterise the
    retry backoff applied by the queue.
    """

    def __init__(
        self,
        db_path: str,
        max_workers: int = 1,
        poll_s: float = 0.1,
        backoff_base_s: float = 1.0,
        backoff_cap_s: float = 60.0,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.db_path = str(db_path)
        self.max_workers = int(max_workers)
        self.poll_s = float(poll_s)
        self.store = ResultStore(self.db_path)
        self.queue = JobQueue(
            self.store,
            backoff_base_s=backoff_base_s,
            backoff_cap_s=backoff_cap_s,
        )
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - fork unavailable
            self._ctx = multiprocessing.get_context()

    def _reconcile(self, job_id: int, exitcode: Optional[int]) -> None:
        """Resolve a job whose worker process has exited.

        A worker resolves its own job (done / failed / re-queued); a job
        still ``running`` after its process died means the worker was killed
        mid-run — the classic OOM SIGKILL — which is the retryable
        ``worker-crashed`` failure.
        """
        job = self.queue.job(job_id)
        if job.status == "running":
            self.queue.mark_failed(
                job_id,
                WorkerCrashed.kind,
                f"worker process exited with code {exitcode} without "
                "resolving the job",
            )

    def _reap_orphans(self) -> None:
        """Fail, as ``worker-crashed``, running jobs whose recorded process
        is dead.

        Called only while this scheduler has no live worker, so every
        ``running`` job belongs to another scheduler or worker; one whose
        process (pid and start time) no longer exists was orphaned when its
        scheduler died with its worker, and nothing else would ever resolve
        it.  The failure applies only while the job still records that
        process, so a job another scheduler claimed again meanwhile stays.
        """
        for job_id, pid, started in self.store._db.execute(
            "SELECT id, worker_pid, worker_start FROM experiments "
            "WHERE status = 'running'"
        ).fetchall():
            if pid is not None and not sweepmod._pid_alive(int(pid), started):
                self.queue.mark_failed(
                    int(job_id),
                    WorkerCrashed.kind,
                    f"job was orphaned: its recorded process {pid} is gone",
                    worker=(pid, started),
                )

    def drain(self, max_jobs: Optional[int] = None) -> List[int]:
        """Run until the queue is idle (or ``max_jobs`` launches happened).

        Waits out retry backoffs: a job re-queued with ``not_before`` in
        the future keeps the drain alive until it resolves, and a job
        orphaned by a dead scheduler is failed for retry
        (:meth:`_reap_orphans`).  Returns the job ids that were launched,
        in launch order.
        """
        active: Dict[object, int] = {}
        launched: List[int] = []

        def may_launch() -> bool:
            return max_jobs is None or len(launched) < max_jobs

        while True:
            for process in [p for p in active if not p.is_alive()]:
                process.join()
                self._reconcile(active.pop(process), process.exitcode)
            while len(active) < self.max_workers and may_launch():
                job = self.queue.claim(worker_pid=os.getpid())
                if job is None:
                    break
                process = self._ctx.Process(
                    target=run_job, args=(self.db_path, job.id)
                )
                process.start()
                active[process] = job.id
                launched.append(job.id)
            if not active:
                if self.queue.pending() and may_launch():
                    self._reap_orphans()
                    time.sleep(self.poll_s)  # a backoff gate is in the future
                    continue
                return launched
            # Wake as soon as a worker exits (its sentinel becomes ready),
            # or after poll_s to look for new submissions.
            multiprocessing.connection.wait(
                [process.sentinel for process in active], timeout=self.poll_s
            )

    def serve_forever(self) -> None:  # pragma: no cover - interactive loop
        """Drain, then keep polling for new submissions until interrupted."""
        while True:
            self.drain()
            time.sleep(max(self.poll_s, 0.05))

    def close(self) -> None:
        self.store.close()
