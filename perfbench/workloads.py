"""The benchmark's three workloads, each driven through a public entry point.

A workload is split in two halves.  ``setup(seed, size)`` imports the
program, builds the inputs from the workload seed and returns ``call``.
``call(workdir)`` runs the entry point once, given a fresh empty directory
it may write to, and returns an :class:`Outcome`: the wall seconds of the
entry point itself, how many trials were attempted and how many failed, a
sha256 digest over the canonical measurement dicts, and the engine's
round/message counts when they can be read off the results.  A repetition
calls ``call`` many times on the same inputs.

Only the generated inputs reach the program: the seed picks the graph seed
and the trial base seed, never a code path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

#: The workload seed at which the committed golden digests apply.
DEFAULT_SEED = 1

#: Per-size parameters.  ``full`` is the measured configuration; ``tiny`` is
#: the self-check configuration that produces every metric in seconds.
#: ``full`` keeps one call under a second and the graphs cache-resident
#: (n <= 5000), so that a run holds dozens of calls and the quickest of them
#: is not set by the host's memory-bandwidth contention.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "full": {
        "luby-gnp-t20": {"n": 5_000, "trials": 20},
        "service-gnp-sweep": {"values": (2_500, 5_000), "trials": 10},
        "selfstab-crash-waves": {"n": 5_000, "trials": 8, "victims": 50},
    },
    "tiny": {
        "luby-gnp-t20": {"n": 2_000, "trials": 4},
        "service-gnp-sweep": {"values": (1_000, 2_000), "trials": 2},
        "selfstab-crash-waves": {"n": 2_000, "trials": 2, "victims": 20},
    },
}

WORKLOADS = tuple(SIZES["full"])
EXPECTED_DEGREE = 10.0
CRASH_ROUNDS = (2, 14, 26)
SERVICE_ALGORITHMS = ("luby_mis", "randomized_matching")


def trial_count(workload: str, size: str) -> int:
    """Trials one call attempts (values × algorithms × trials for the sweep)."""
    params = SIZES[size][workload]
    if workload == "service-gnp-sweep":
        return len(params["values"]) * len(SERVICE_ALGORITHMS) * int(params["trials"])
    return int(params["trials"])


@dataclass
class Outcome:
    """What one entry-point call produced, as the checks need it."""

    wall_s: float
    attempted: int
    failed: int
    digest: str
    rounds: Optional[int] = None
    messages: Optional[int] = None
    #: Filled by the service workload only (per-layer facts of the store).
    service: Optional[Dict[str, int]] = None


def digest_of(payload: object) -> str:
    """sha256 of the canonical JSON form (sorted keys, exact float repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _timed_experiment(experiment) -> Outcome:
    start = time.perf_counter()
    result = experiment.run()
    wall_s = time.perf_counter() - start
    run = result.run
    failed = sum(1 for verdict in run.verdicts if not verdict)
    return Outcome(
        wall_s=wall_s,
        attempted=len(run.verdicts),
        failed=failed,
        digest=digest_of(dataclasses.asdict(run.measurement)),
        rounds=sum(trace.rounds for trace in run.traces),
        messages=sum(trace.total_messages for trace in run.traces),
    )


def _gnp_source(n: int, seed: int) -> Callable[[], object]:
    from repro.graphs import generators

    def source():
        # Looked up on the module at call time, so a traced run sees the
        # wrapped generator.
        return generators.fast_gnp_edges(
            n, EXPECTED_DEGREE / (n - 1), seed=seed, as_arrays=True
        )

    return source


def crash_waves(n: int, victims: int, rounds: Tuple[int, ...]):
    """``victims`` evenly spread crashes, dealt round-robin over ``rounds``."""
    from repro.local.faults import FaultSchedule

    stride = max(1, n // victims)
    crashes = {(i * stride) % n: rounds[i % len(rounds)] for i in range(victims)}
    return FaultSchedule(crashes=crashes, seed=0)


def setup_luby(seed: int, size: str) -> Callable[[str], Outcome]:
    from repro.algorithms.mis.luby import LubyMIS
    from repro.core import problems
    from repro.core.experiment import Experiment

    params = SIZES[size]["luby-gnp-t20"]
    experiment = Experiment(
        problem=problems.MIS,
        algorithm=LubyMIS,
        graphs=_gnp_source(int(params["n"]), seed),
        trials=int(params["trials"]),
        seed=seed,
        engine="auto",
        require_valid=False,
    )
    return lambda workdir: _timed_experiment(experiment)


def setup_selfstab(seed: int, size: str) -> Callable[[str], Outcome]:
    from repro.algorithms.selfstab import SelfStabilizingLubyMIS
    from repro.core import problems
    from repro.core.experiment import Experiment

    params = SIZES[size]["selfstab-crash-waves"]
    n = int(params["n"])
    experiment = Experiment(
        problem=problems.MIS,
        algorithm=SelfStabilizingLubyMIS,
        graphs=_gnp_source(n, seed),
        trials=int(params["trials"]),
        seed=seed,
        engine="auto",
        faults=crash_waves(n, int(params["victims"]), CRASH_ROUNDS),
        require_valid=False,
    )
    return lambda workdir: _timed_experiment(experiment)


def setup_service(seed: int, size: str) -> Callable[[str], Outcome]:
    from repro.service.queue import JobQueue
    from repro.service.scheduler import Scheduler, journal_path
    from repro.service.specs import SweepSpec
    from repro.service.store import ResultStore

    params = SIZES[size]["service-gnp-sweep"]
    spec = SweepSpec(
        parameter="n",
        values=tuple(params["values"]),
        family="fast_gnp",
        family_params={"expected_degree": EXPECTED_DEGREE, "graph_seed": seed},
        algorithms=SERVICE_ALGORITHMS,
        trials=int(params["trials"]),
        seed=seed,
    )
    attempted = trial_count("service-gnp-sweep", size)

    def call(workdir: str) -> Outcome:
        # A fresh database per call: the same spec submitted twice to one
        # store would be answered from it.
        db_path = os.path.join(workdir, "service.db")
        scheduler = Scheduler(db_path, max_workers=1, poll_s=0.02)
        store = ResultStore(db_path)
        queue = JobQueue(store)
        try:
            start = time.perf_counter()
            job_id = queue.submit(spec)
            scheduler.drain()
            points = store.points(job_id)
            wall_s = time.perf_counter() - start
            job = queue.job(job_id)
            failed = len(store.failures(job_id)) if job.status == "done" else attempted
            if len(points) != len(spec.values) * len(spec.algorithms) or any(
                point["measurement"]["trials"] != spec.trials for point in points
            ):
                failed = attempted
            stats = store.graph_cache_stats()
            return Outcome(
                wall_s=wall_s,
                attempted=attempted,
                failed=failed,
                digest=digest_of(points),
                service={
                    "analysis.sweep.journal_bytes": _size(journal_path(db_path, job_id)),
                    "service.store.db_bytes": _size(db_path) + _size(db_path + "-wal"),
                    "service.store.cache_builds": sum(s["builds"] for s in stats),
                    "service.store.cache_hits": sum(s["hits"] for s in stats),
                    "service.queue.attempts": job.attempts,
                },
            )
        finally:
            store.close()
            scheduler.close()

    return call


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


SETUPS: Dict[str, Callable[[int, str], Callable[[str], Outcome]]] = {
    "luby-gnp-t20": setup_luby,
    "service-gnp-sweep": setup_service,
    "selfstab-crash-waves": setup_selfstab,
}
