"""The experiment service, end to end — and the `make serve-smoke` check.

This example walks every layer of ``repro.service``:

1. **submit** two sweep specs (same graph family — they will share network
   builds through the content-addressed graph cache) to a fresh sqlite
   service database;
2. **schedule** them onto worker processes and read bit-exact measurements,
   full provenance (seed schedule, graph recipes, batch-chunk choice, sweep
   journal header) and graph-cache statistics back from the store;
3. **kill** a worker mid-sweep (the deterministic ``SIGKILL``-after-k-rows
   seam) and watch the queue retry it with backoff until the sweep resumes
   cell-exactly from the journal rows in the store — the recovered results
   are identical to an uninterrupted run;
4. **serve** the HTTP JSON API and drive the same verbs over a socket.

Every step asserts its invariant, so the script doubles as the smoke test
behind ``make serve-smoke``.  Run with::

    python examples/service_quickstart.py
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import urllib.request

from repro.analysis import sweep
from repro.service import JobQueue, ResultStore, Scheduler, SweepSpec
from repro.service.api import ServiceAPI
from repro.service.scheduler import KILL_ENV


def make_spec(**overrides):
    settings = dict(
        parameter="n",
        values=(16, 24),
        family="cycle",
        algorithms=("luby_mis", "randomized_matching"),
        trials=2,
        seed=11,
    )
    settings.update(overrides)
    return SweepSpec(**settings)


def live_points(spec):
    """The in-process reference run (full float64 precision)."""
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


def stored_points(store, job_id):
    return [
        (row["value"], row["algorithm"], row["measurement"])
        for row in store.points(job_id)
    ]


def submit_schedule_query(db_path: str) -> None:
    print("=== submit two jobs, drain, read results + provenance ===")
    spec_a = make_spec(name="first submitter")
    spec_b = make_spec(name="second submitter")  # same graphs, same cache keys
    scheduler = Scheduler(db_path, max_workers=2, poll_s=0.05)
    try:
        id_a = scheduler.queue.submit(spec_a)
        id_b = scheduler.queue.submit(spec_b)
        scheduler.drain()
        for job_id in (id_a, id_b):
            job = scheduler.queue.job(job_id)
            assert job.status == "done", job
            assert stored_points(scheduler.store, job_id) == live_points(spec_a)
        provenance = scheduler.store.experiment(id_a)["provenance"]
        schedule = provenance["seed_schedule"]["per_index"]
        stats = scheduler.store.graph_cache_stats()
        assert all(row["builds"] == 1 for row in stats)  # one build per key
        print(f"  jobs {id_a} and {id_b}: done, stored points == in-process sweep")
        print(f"  seed schedule index 0: {schedule['0']}")
        print(
            "  graph cache: "
            + ", ".join(
                f"n={row['n']} builds={row['builds']} hits={row['hits']}"
                for row in sorted(stats, key=lambda row: row["n"])
            )
        )
    finally:
        scheduler.close()


def sigkill_resume(db_path: str) -> None:
    print("=== SIGKILL a worker mid-sweep; the retry resumes cell-exactly ===")
    spec = make_spec(name="durability proof", seed=23)
    os.environ[KILL_ENV] = "3"  # every worker dies 3 journal rows in
    try:
        scheduler = Scheduler(
            db_path, poll_s=0.05, backoff_base_s=0.05, backoff_cap_s=0.2
        )
        try:
            job_id = scheduler.queue.submit(spec, max_attempts=5)
            scheduler.drain()
            job = scheduler.queue.job(job_id)
            assert job.status == "done", job
            assert job.attempts > 1  # it really did die and come back
            assert stored_points(scheduler.store, job_id) == live_points(spec)
            print(
                f"  job {job_id}: done after {job.attempts} attempts "
                "(workers SIGKILLed mid-sweep), results identical to an "
                "uninterrupted run"
            )
        finally:
            scheduler.close()
    finally:
        del os.environ[KILL_ENV]


def http_round_trip(db_path: str) -> None:
    print("=== the same verbs over the HTTP JSON API ===")
    api = ServiceAPI(db_path)
    thread = threading.Thread(target=api.serve_forever, daemon=True)
    thread.start()
    try:
        health = json.load(urllib.request.urlopen(api.url + "/v1/healthz"))
        assert health["status"] == "ok"
        spec = make_spec(name="via http", values=(10,), algorithms=("luby_mis",))
        request = urllib.request.Request(
            api.url + "/v1/jobs",
            data=json.dumps(spec.to_dict()).encode(),
            headers={"Content-Type": "application/json"},
        )
        created = json.load(urllib.request.urlopen(request))
        scheduler = Scheduler(db_path, poll_s=0.05)
        try:
            scheduler.drain()
        finally:
            scheduler.close()
        results = json.load(
            urllib.request.urlopen(api.url + f"/v1/jobs/{created['id']}/results")
        )
        assert results["status"] == "done"
        assert len(results["points"]) == 1
        print(
            f"  POST /v1/jobs -> job {created['id']}; "
            f"GET results -> {len(results['points'])} point(s), "
            f"schema {health['schema']}"
        )
    finally:
        api.shutdown()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        db_path = os.path.join(tmp, "service.db")
        submit_schedule_query(db_path)
        sigkill_resume(os.path.join(tmp, "durability.db"))
        http_round_trip(os.path.join(tmp, "http.db"))
    print("service quickstart: all invariants held")


if __name__ == "__main__":
    main()
