"""Structured failure taxonomy for executions, cells, and sweeps.

Every way a trial or sweep cell can fail maps to one exception type here, so
the harness layers (:func:`repro.core.experiment.run_trials`,
:class:`repro.core.experiment.Experiment`, :func:`repro.analysis.sweep.sweep`)
can classify failures into structured failure rows instead of letting an
arbitrary exception abort a multi-hour sweep:

* :class:`RoundLimitExceeded` — an execution hit the runner/engine round cap
  in strict mode (moved here from ``repro.local.runner``, which re-exports it
  for compatibility).
* :class:`CellTimeout` — a cell exceeded its wall-clock budget (raised by
  :func:`cell_deadline`, the SIGALRM-based guard behind
  ``sweep(cell_timeout=...)`` and ``run_trials(timeout_s=...)``).
* :class:`WorkerCrashed` — an experiment-service worker process died (e.g.
  OOM-killed) while running a job; the job's queue entry records it.
* :class:`ValidationFailed` — an execution produced an invalid solution
  (raised by ``ExecutionTrace.require_valid``; subclasses ``AssertionError``
  so pre-taxonomy callers catching that keep working).

All types carry a stable machine-readable :attr:`ReproError.kind` slug — the
``kind`` field of the failure rows the sweep checkpoint records (schema
documented in ``docs/seed-schedules.md``).
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "ReproError",
    "RoundLimitExceeded",
    "CellTimeout",
    "WorkerCrashed",
    "ValidationFailed",
    "CheckpointLocked",
    "classify_failure",
    "is_retryable",
    "RETRYABLE_KINDS",
    "cell_deadline",
]


class ReproError(RuntimeError):
    """Base class of the harness failure taxonomy.

    Subclasses ``RuntimeError`` because the pre-taxonomy
    ``RoundLimitExceeded`` did; ``kind`` is the stable slug recorded in
    structured failure rows.
    """

    kind: str = "error"


class RoundLimitExceeded(ReproError):
    """Raised when an execution hits the round limit and ``strict`` is set."""

    kind = "round-limit"


class CellTimeout(ReproError):
    """Raised when a cell exceeds its wall-clock budget."""

    kind = "timeout"


class WorkerCrashed(ReproError):
    """An experiment-service worker died while running a job (e.g. OOM-killed).

    The scheduler fails the job with this kind when it finds the worker
    process gone; the kind is retryable, so the job re-queues and its retry
    resumes from the journal.
    """

    kind = "worker-crashed"


class ValidationFailed(ReproError, AssertionError):
    """An execution produced an invalid solution.

    Also an ``AssertionError``: ``require_valid`` raised that before the
    taxonomy existed, and callers catching it must keep working.
    """

    kind = "validation-failed"


class CheckpointLocked(ReproError):
    """A sweep checkpoint journal is already held by another live writer.

    Raised when a second writer opens a journal whose writer claim is held
    by a live process — two service workers interleaving rows into one
    journal would be silent corruption, so the collision is a clear,
    immediate error instead.  The claim records the holder's pid and start
    time and is stolen once that process is gone, so a SIGKILLed worker
    never wedges the journal: the retry reopens and resumes cell-exactly.
    """

    kind = "checkpoint-locked"


def classify_failure(error: BaseException) -> str:
    """Stable ``kind`` slug for an arbitrary exception (for failure rows)."""
    if isinstance(error, ReproError):
        return error.kind
    if isinstance(error, AssertionError):
        return ValidationFailed.kind
    if isinstance(error, TimeoutError):
        return CellTimeout.kind
    return f"exception:{type(error).__name__}"


#: Failure kinds the experiment service's queue retries with backoff.
#: Transient, environment-shaped failures retry (a lost worker, an expired
#: wall-clock budget, a journal briefly held by a dying writer); everything
#: deterministic — an invalid solution, a round-limit overrun, an arbitrary
#: exception from the algorithm or factories — would fail identically on
#: every attempt (the per-cell seed schedule replays the exact execution)
#: and fails the job permanently instead.
RETRYABLE_KINDS = frozenset(
    {WorkerCrashed.kind, CellTimeout.kind, CheckpointLocked.kind}
)


def is_retryable(kind: str) -> bool:
    """Whether a :func:`classify_failure` slug warrants a retry with backoff."""
    return kind in RETRYABLE_KINDS


def _deadline_supported() -> bool:
    """Whether the SIGALRM wall-clock guard can be armed here.

    SIGALRM exists on Unix only and signal handlers can only be installed
    from the main thread; everywhere else :func:`cell_deadline` degrades to
    a no-op (documented best-effort behaviour — a sweep called from a
    script and the experiment service's forked workers run on a Unix main
    thread, so the guard is live where it matters).
    """
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def cell_deadline(seconds: Optional[float], what: str = "cell") -> Iterator[None]:
    """Raise :class:`CellTimeout` if the body runs longer than ``seconds``.

    ``None`` (or a non-positive value, or an unsupported platform/thread)
    disables the guard.  Uses ``signal.setitimer`` so fractional budgets
    work; the previous handler and timer are restored on exit, making the
    guard safe to nest under an outer deadline.
    """
    if seconds is None or seconds <= 0 or not _deadline_supported():
        yield
        return

    def _on_alarm(signum, frame):  # pragma: no cover - exercised via raise
        raise CellTimeout(f"{what} exceeded its {seconds:g}s wall-clock budget")

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    previous_timer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *previous_timer)
        signal.signal(signal.SIGALRM, previous_handler)
