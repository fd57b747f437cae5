"""One repetition of one workload, in a fresh process.

Started by ``run.py`` with the parent's ``time.monotonic()`` reading taken just
before the spawn (``CLOCK_MONOTONIC`` is system-wide on Linux, so the two
processes share the clock).  Set-up time runs from that reading until the
workload's inputs are ready: interpreter start, imports and input building.
The repetition then calls the entry point once to warm up and again until
``--deadline`` (a ``time.monotonic()`` reading), at least ``--min-calls``
times; each call gets a fresh directory, removed afterwards.  It prints one
JSON line with the set-up time, the peak memory and one record per call.

    PYTHONPATH=src python3 perfbench/rep.py --workload luby-gnp-t20 --seed 1 \
        --size tiny --trace 0 --spawned-at 0 --deadline 0 --min-calls 2 \
        --workdir-base .perfbench_work
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import spans
import workloads

#: Per-layer metrics only the service workload exercises, read off the store.
SERVICE_FACTS = (
    "analysis.sweep.journal_bytes",
    "service.store.db_bytes",
    "service.store.cache_builds",
    "service.store.cache_hits",
    "service.queue.attempts",
)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.  RUSAGE_CHILDREN covers the service
    # workload's forked worker, which inherits this process's pages.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _layers(tracer, outcome) -> dict:
    figures = spans.layer_figures(spans.collect(tracer))
    wall_s = outcome.wall_s
    figures["kernel_share"] = figures["local.engine.self_s"] / wall_s
    run_job_s = figures["service.scheduler.run_job_s"]
    figures["service.queue.wait_s"] = wall_s - run_job_s if run_job_s else 0.0
    service = outcome.service or {}
    for name in SERVICE_FACTS:
        figures[name] = float(service.get(name, 0.0))
    return figures


def _one_call(call, tracer, workdir: str, warm_up: bool) -> dict:
    calldir = tempfile.mkdtemp(prefix="call-", dir=workdir)
    try:
        if tracer is not None:
            tracer.workdir = calldir
            tracer.reset()
        outcome = call(calldir)
        record = {
            "warm_up": warm_up,
            "wall_s": outcome.wall_s,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "digest": outcome.digest,
            "rounds": outcome.rounds,
            "messages": outcome.messages,
        }
        if tracer is not None:
            layers = _layers(tracer, outcome)
            record["layers"] = layers
            record["rounds"] = int(layers["local.engine.rounds"])
            record["messages"] = int(layers["local.engine.messages"])
    finally:
        shutil.rmtree(calldir, ignore_errors=True)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--min-calls", type=int, required=True)
    parser.add_argument("--workdir-base", required=True)
    args = parser.parse_args()

    os.makedirs(args.workdir_base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir_base)
    try:
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
        call = workloads.SETUPS[args.workload](args.seed, args.size)
        setup_s = time.monotonic() - args.spawned_at
        calls = [_one_call(call, tracer, workdir, warm_up=True)]
        last = 0.0
        while len(calls) <= args.min_calls or time.monotonic() + last < args.deadline:
            began = time.monotonic()
            calls.append(_one_call(call, tracer, workdir, warm_up=False))
            last = time.monotonic() - began
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb(), "calls": calls}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
