"""End-to-end and per-layer benchmark of the three real entry points.

Runs one workload for about ``--seconds`` seconds in four fresh processes in
turn (``rep.py``).  Each sets up the inputs, calls the entry point once to
warm up and then again and again until its share of the time is over.
Every call's output is checked.  The last line printed is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of untraced processes; with ``--trace 1``
untraced and traced processes alternate and the metrics are the per-layer
ones plus ``trace.overhead_frac``.  Exit status is 0 only when every check
passed.

    python3 perfbench/run.py --workload luby-gnp-t20 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --self-check            # tiny sizes, every metric, seconds

See ``perfbench/README.md`` for the metrics, the workloads and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sqlite3
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (sibling module, found through HERE)

WORKDIR_BASE = os.path.join(ROOT, ".perfbench_work")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "graphs.generate_s": "s",
    "local.network.build_s": "s",
    "local.engine.run_s": "s",
    "local.engine.self_s": "s",
    "kernel_share": "ratio",
    "local.engine.rounds": "count",
    "local.engine.messages": "count",
    "local.faults.round_faults_s": "s",
    "local.faults.round_faults_calls": "count",
    "core.problems.validate_induced_s": "s",
    "core.problems.validate_induced_calls": "count",
    "core.trace.validate_s": "s",
    "core.trace.validate_calls": "count",
    "core.metrics.measure_s": "s",
    "analysis.sweep.sweep_s": "s",
    "analysis.sweep.self_s": "s",
    "analysis.sweep.read_checkpoint_s": "s",
    "analysis.sweep.journal_bytes": "bytes",
    "service.store.record_results_s": "s",
    "service.store.db_bytes": "bytes",
    "service.store.cache_builds": "count",
    "service.store.cache_hits": "count",
    "service.scheduler.run_job_s": "s",
    "service.queue.wait_s": "s",
    "service.queue.attempts": "count",
    "trace.overhead_frac": "ratio",
}

#: Fresh processes per run (alternately untraced and traced when tracing),
#: each given an equal share of ``--seconds``.
REPS = 4
#: Timed calls each process makes at least, after its warm-up call.
MIN_CALLS = 2
#: A run must end within 180 s: ``--seconds`` is capped at RUN_LIMIT_S and
#: every repetition is killed at RUN_DEADLINE_S.
RUN_LIMIT_S = 120.0
RUN_DEADLINE_S = 165.0


class RepFailed(Exception):
    """A repetition process exited non-zero or printed no record."""


def host_facts() -> Dict[str, object]:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One thread per process: the workloads are single-threaded by design.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Temporary files (sqlite's included) stay inside the checkout.
    env["TMPDIR"] = env["SQLITE_TMPDIR"] = WORKDIR_BASE
    return env


def _run_child(cmd: List[str], timeout: float) -> str:
    """Run ``cmd`` in its own process group; kill the whole group on timeout."""
    os.makedirs(WORKDIR_BASE, exist_ok=True)
    process = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = process.communicate(timeout=timeout)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    finally:
        # The service repetition forks a worker; make sure none outlives it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise RepFailed(f"{cmd[1]} exited with {process.returncode}")
    return out


def warm_up() -> None:
    """Import the program once so bytecode caches exist before timing."""
    _run_child(
        [
            sys.executable,
            "-c",
            "import repro.core.experiment, repro.service.scheduler, "
            "repro.algorithms.selfstab",
        ],
        RUN_DEADLINE_S,
    )


def run_rep(
    workload: str, seed: int, size: str, trace: bool, deadline: float, timeout: float
) -> Dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--trace", str(int(trace)),
        "--deadline", repr(deadline),
        "--min-calls", str(MIN_CALLS),
        "--workdir-base", WORKDIR_BASE,
        "--spawned-at",
    ]
    cmd.append(repr(time.monotonic()))
    out = _run_child(cmd, timeout)
    lines = out.strip().splitlines()
    if not lines:
        raise RepFailed(f"{workload} repetition printed no record")
    record = json.loads(lines[-1])
    record["traced"] = trace
    return record


def run_reps(workload: str, seed: int, size: str, seconds: float, trace: bool) -> List[Dict]:
    """REPS processes for about ``seconds``; alternately traced ones when ``trace``."""
    start = time.monotonic()
    seconds = min(seconds, RUN_LIMIT_S)
    records: List[Dict] = []
    for index in range(REPS):
        traced = trace and index % 2 == 1
        deadline = start + seconds * (index + 1) / REPS
        timeout = start + RUN_DEADLINE_S - time.monotonic()
        try:
            record = run_rep(workload, seed, size, traced, deadline, timeout)
        except (RepFailed, subprocess.TimeoutExpired, ValueError) as error:
            print(f"[perfbench] {workload}: {error}", file=sys.stderr)
            records.append({"error": str(error), "traced": traced})
            break
        walls = [c["wall_s"] for c in record["calls"] if not c["warm_up"]]
        print(
            f"[perfbench] {workload} rep {index} traced={int(traced)} "
            f"setup_s={record['setup_s']:.3f} calls={len(walls)} "
            f"wall_s min={min(walls):.4f} median={statistics.median(walls):.4f}",
            file=sys.stderr,
        )
        records.append(record)
    return records


def load_golden() -> Dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, seed: int, size: str, records: List[Dict]) -> List[str]:
    """Mark failed trials on every call in ``records``; return the problems found.

    A call's trials all fail when its digest or its round/message counts
    differ from the run's first call or, at the default seed, from the
    committed golden values.  A repetition that crashed counts one call
    whose trials all failed.
    """
    problems: List[str] = []
    golden = load_golden()[size][workload] if seed == workloads.DEFAULT_SEED else None
    reference: Dict[str, object] = {}
    total = workloads.trial_count(workload, size)
    for index, record in enumerate(records):
        if "error" in record:
            record["calls"] = [{"warm_up": True, "attempted": total, "failed": total}]
            problems.append(f"rep {index}: {record['error']}")
            continue
        for number, call in enumerate(record["calls"]):
            where = f"rep {index} call {number}"
            for key in ("digest", "rounds", "messages"):
                value = call.get(key)
                if value is None:
                    continue
                expected = golden[key] if golden is not None else reference.setdefault(key, value)
                if value != expected:
                    call["failed"] = call["attempted"]
                    problems.append(f"{where}: {key} {value} != {expected}")
            if call["failed"]:
                problems.append(f"{where}: {call['failed']} of {call['attempted']} trials failed")
    return problems


def summarise(records: List[Dict], trace: bool) -> Dict[str, float]:
    """The figures of a run whose every check passed.

    Call times are the quickest timed call: the host's contention only ever
    slows a call down.  Per-process and per-layer figures are medians.
    """
    median = statistics.median

    def timed(traced: bool) -> List[Dict]:
        return [
            call
            for r in records
            if r["traced"] == traced
            for call in r["calls"]
            if not call["warm_up"]
        ]

    plain = timed(False)
    quickest = min(plain, key=lambda call: call["wall_s"])
    if not trace:
        processes = [r for r in records if not r["traced"]]
        return {
            "setup_s": median([r["setup_s"] for r in processes]),
            "wall_s": quickest["wall_s"],
            "trials_per_s": (quickest["attempted"] - quickest["failed"]) / quickest["wall_s"],
            "peak_rss_mb": median([r["peak_rss_mb"] for r in processes]),
        }
    traced = timed(True)
    metrics = {
        name: median([call["layers"][name] for call in traced])
        for name in PER_LAYER_UNITS
        if name != "trace.overhead_frac"
    }
    metrics["trace.overhead_frac"] = (
        min(call["wall_s"] for call in traced) / quickest["wall_s"] - 1.0
    )
    return metrics


def run_workload(workload: str, seed: int, size: str, seconds: float, trace: bool) -> Dict:
    records = run_reps(workload, seed, size, seconds, trace)
    problems = check(workload, seed, size, records)
    for problem in problems:
        print(f"[perfbench] {workload}: {problem}", file=sys.stderr)
    calls = [call for r in records for call in r["calls"]]
    attempted = sum(call["attempted"] for call in calls)
    failed = sum(call["failed"] for call in calls)
    digests = sorted({call["digest"] for call in calls if "digest" in call})
    return {
        "workload": workload,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "reps": len(records),
        "calls": len(calls),
        "digests": digests,
        "metrics": summarise(records, trace) if not problems else {},
    }


def print_table(result: Dict, units: Dict[str, str]) -> None:
    print(
        f"{result['workload']}: reps={result['reps']} calls={result['calls']} "
        f"attempted={result['attempted']} "
        f"failed={result['failed']} failed_frac={result['failed_frac']:g} "
        f"digest={','.join(d[:16] for d in result['digests'])}"
    )
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")


def self_check() -> int:
    """Tiny sizes: every workload, both modes; names and units must match BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    ok = declared_e2e == END_TO_END_UNITS and declared_layers == PER_LAYER_UNITS
    if not ok:
        print("[perfbench] BENCHMARK.json metric names/units differ from run.py", file=sys.stderr)
    for workload in workloads.WORKLOADS:
        for trace, units in ((False, END_TO_END_UNITS), (True, PER_LAYER_UNITS)):
            result = run_workload(workload, workloads.DEFAULT_SEED, "tiny", 0.0, trace)
            print_table(result, units)
            ok = ok and result["correct"] and set(result["metrics"]) == set(units)
    print(json.dumps({"self_check": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required unless --self-check is given")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"[perfbench] no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        warm_up()
    except RepFailed as error:
        print(f"[perfbench] cannot import the program: {error}", file=sys.stderr)
        return 2
    print(json.dumps({"host": host_facts()}))
    try:
        if args.self_check:
            return self_check()
        units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = [
            run_workload(name, args.seed, "full", args.seconds, bool(args.trace))
            for name in names
        ]
    finally:
        try:
            os.rmdir(WORKDIR_BASE)
        except OSError:
            pass
    for result in results:
        print_table(result, units)
    # With --workload all, metric names are prefixed by their workload.
    prefix = args.workload == "all"
    metrics = {
        (f"{result['workload']}/" if prefix else "") + name: {"value": value, "unit": units[name]}
        for result in results
        for name, value in result["metrics"].items()
    }
    correct = all(r["correct"] for r in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
