"""The experiment service: persistent store, job queue, scheduler, frontends.

``repro.service`` is the serving layer over the in-process experiment
machinery: instead of running :func:`repro.analysis.sweep.sweep` inside a
script whose results die with the interpreter, clients **submit** a
serialisable :class:`~repro.service.specs.SweepSpec` as a durable job, a
**scheduler** dispatches queued jobs onto worker processes that execute the
existing crash-safe sweep journaled into the store (so a SIGKILLed worker
resumes cell-exactly), and every measurement, cell, verdict, failure and
recovery timeline lands in a sqlite-backed **result store** (schema
``result-store/v2``) with full provenance — seed schedule, graph provenance
(``EdgeArrays.meta``), engine and batch-chunk choice, and the sweep
journal's header.

Layers (each its own module, smallest dependency arrow first):

* :mod:`repro.service.specs` — the serialisable job language: named graph
  families and algorithm/problem pairs, and the ``sweep-spec/v1`` JSON
  round-trip.
* :mod:`repro.service.store` — the sqlite result store and the
  content-addressed graph cache (N concurrent jobs sweeping the same family
  share exactly one network build, stored as its edge arrays).
* :mod:`repro.service.queue` — durable jobs over the store's database:
  submit / claim / complete, retry-with-backoff on transient failures
  (:data:`repro.core.errors.RETRYABLE_KINDS`), permanent failure otherwise.
* :mod:`repro.service.scheduler` — the dispatcher: fans claimed jobs onto
  worker processes, detects dead workers, and drives retries.
* :mod:`repro.service.cli` / :mod:`repro.service.api` — the stdlib-only
  frontends: ``python -m repro.service`` (submit / status / results /
  cancel / work / serve) and the JSON-over-HTTP mirror of the same verbs.

Everything here is standard library + the repository's own modules; there
is no new dependency.
"""

from repro.service.queue import Job, JobQueue
from repro.service.scheduler import Scheduler, run_job
from repro.service.specs import (
    ALGORITHMS,
    GRAPH_FAMILIES,
    SPEC_FORMAT,
    SweepSpec,
    register_algorithm,
    register_family,
)
from repro.service.store import RESULT_STORE_SCHEMA, ResultStore

__all__ = [
    "SweepSpec",
    "SPEC_FORMAT",
    "GRAPH_FAMILIES",
    "ALGORITHMS",
    "register_family",
    "register_algorithm",
    "ResultStore",
    "RESULT_STORE_SCHEMA",
    "Job",
    "JobQueue",
    "Scheduler",
    "run_job",
]
