"""Timing wrappers installed from outside the program, and the per-layer sums.

A traced repetition calls :func:`install` once, before building its inputs.  It
replaces the public function of each layer at the attribute its caller looks
it up on (a module global or a class attribute) with a wrapper that records
a span: layer name, duration, and the index of the enclosing span.  Nothing
under ``src/`` is edited.

``measure`` is imported by name into ``repro.core.experiment`` and
``repro.analysis.sweep``, so it is wrapped at all three sites.  The service
worker is a forked process: ``run_job`` is wrapped on
``repro.service.scheduler`` before ``drain()`` looks it up, so the worker
inherits every wrapper, and the ``run_job`` wrapper writes the worker's spans
to ``<tracer.workdir>/spans-<pid>.json`` before the worker exits (the
repetition points ``tracer.workdir`` at each call's fresh directory).

Self time is a span's duration minus the durations of its direct child
spans.  A layer's ``_s`` figure sums its outermost spans (a span nested in a
span of the same layer is not counted twice); ``self_s`` and
``local.network.build_s`` sum self times instead.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time
from typing import Callable, Dict, List, Optional

#: Layer names, as they prefix the per-layer metrics.
GENERATE = "graphs.generate"
BUILD = "local.network.build"
ENGINE = "local.engine"
ROUND_FAULTS = "local.faults.round_faults"
VALIDATE_INDUCED = "core.problems.validate_induced"
TRACE_VALIDATE = "core.trace.validate"
MEASURE = "core.metrics.measure"
SWEEP = "analysis.sweep.sweep"
READ_CHECKPOINT = "analysis.sweep.read_checkpoint"
RECORD_RESULTS = "service.store.record_results"
RUN_JOB = "service.scheduler.run_job"


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        #: Where forked workers write their spans; set per call.
        self.workdir = ""
        self.reset()

    def reset(self) -> None:
        #: One ``[layer, parent index, duration]`` entry per finished span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {"local.engine.rounds": 0, "local.engine.messages": 0}

    def wrap(
        self, layer: str, fn: Callable, on_result: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording a ``layer`` span per call; ``on_result`` sees each result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            record = [layer, tracer._stack[-1] if tracer._stack else -1, 0.0]
            tracer.spans.append(record)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter() - start
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _count_traces(tracer: Tracer, result) -> None:
    traces = result if isinstance(result, list) else [result]
    for trace in traces:
        tracer.counts["local.engine.rounds"] += int(trace.rounds)
        tracer.counts["local.engine.messages"] += int(trace.total_messages)


def install(tracer: Tracer) -> None:
    """Wrap every instrumented layer function (once per process)."""
    import importlib

    from repro.core.problems import ProblemSpec
    from repro.core.trace import ExecutionTrace
    from repro.local.engine import ArrayEngine
    from repro.local.faults import FaultSchedule
    from repro.service.store import ResultStore

    generators = importlib.import_module("repro.graphs.generators")
    metrics = importlib.import_module("repro.core.metrics")
    experiment = importlib.import_module("repro.core.experiment")
    sweep = importlib.import_module("repro.analysis.sweep")
    scheduler = importlib.import_module("repro.service.scheduler")

    generators.fast_gnp_edges = tracer.wrap(GENERATE, generators.fast_gnp_edges)
    experiment.resolve_network = tracer.wrap(BUILD, experiment.resolve_network)
    ResultStore.network_for = tracer.wrap(BUILD, ResultStore.network_for)
    ArrayEngine.run = tracer.wrap(ENGINE, ArrayEngine.run, _count_traces)
    ArrayEngine.run_batch = tracer.wrap(ENGINE, ArrayEngine.run_batch, _count_traces)
    FaultSchedule.round_faults = tracer.wrap(ROUND_FAULTS, FaultSchedule.round_faults)
    ProblemSpec.validate_induced = tracer.wrap(
        VALIDATE_INDUCED, ProblemSpec.validate_induced
    )
    ExecutionTrace.validate = tracer.wrap(TRACE_VALIDATE, ExecutionTrace.validate)
    measure = tracer.wrap(MEASURE, metrics.measure)
    metrics.measure = experiment.measure = sweep.measure = measure
    sweep.sweep = tracer.wrap(SWEEP, sweep.sweep)
    sweep.read_checkpoint = tracer.wrap(READ_CHECKPOINT, sweep.read_checkpoint)
    ResultStore.record_results = tracer.wrap(RECORD_RESULTS, ResultStore.record_results)

    run_job = tracer.wrap(RUN_JOB, scheduler.run_job)

    def run_job_in_worker(db_path: str, job_id: int) -> str:
        # The forked worker starts from a copy of the parent's spans; keep
        # only its own and write them out before the process exits.
        tracer.reset()
        try:
            return run_job(db_path, job_id)
        finally:
            tracer.dump(os.path.join(tracer.workdir, f"spans-{os.getpid()}.json"))

    scheduler.run_job = run_job_in_worker


def collect(tracer: Tracer) -> List[Dict[str, object]]:
    """This process's spans and counts plus those written by forked workers."""
    parts = [{"spans": tracer.spans, "counts": dict(tracer.counts)}]
    for path in sorted(glob.glob(os.path.join(tracer.workdir, "spans-*.json"))):
        with open(path, encoding="utf-8") as fh:
            parts.append(json.load(fh))
        os.remove(path)
    return parts


def layer_figures(parts: List[Dict[str, object]]) -> Dict[str, float]:
    """Inclusive seconds, self seconds and call counts per layer."""
    inclusive: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    for part in parts:
        spans = part["spans"]
        child_time = [0.0] * len(spans)
        for layer, parent, duration in spans:
            if parent >= 0:
                child_time[parent] += duration
        for index, (layer, parent, duration) in enumerate(spans):
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + duration - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != layer:
                ancestor = spans[ancestor][1]
            if ancestor < 0:
                inclusive[layer] = inclusive.get(layer, 0.0) + duration
        for name, value in part["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def inc(layer: str) -> float:
        return inclusive.get(layer, 0.0)

    return {
        "graphs.generate_s": inc(GENERATE),
        "local.network.build_s": self_s.get(BUILD, 0.0),
        "local.engine.run_s": inc(ENGINE),
        "local.engine.self_s": self_s.get(ENGINE, 0.0),
        "local.engine.rounds": float(counts.get("local.engine.rounds", 0)),
        "local.engine.messages": float(counts.get("local.engine.messages", 0)),
        "local.faults.round_faults_s": inc(ROUND_FAULTS),
        "local.faults.round_faults_calls": float(calls.get(ROUND_FAULTS, 0)),
        "core.problems.validate_induced_s": inc(VALIDATE_INDUCED),
        "core.problems.validate_induced_calls": float(calls.get(VALIDATE_INDUCED, 0)),
        "core.trace.validate_s": inc(TRACE_VALIDATE),
        "core.trace.validate_calls": float(calls.get(TRACE_VALIDATE, 0)),
        "core.metrics.measure_s": inc(MEASURE),
        "analysis.sweep.sweep_s": inc(SWEEP),
        "analysis.sweep.self_s": self_s.get(SWEEP, 0.0),
        "analysis.sweep.read_checkpoint_s": inc(READ_CHECKPOINT),
        "service.store.record_results_s": inc(RECORD_RESULTS),
        "service.scheduler.run_job_s": inc(RUN_JOB),
    }
