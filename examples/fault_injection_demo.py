"""Fault injection and crash-safe sweeps, end to end.

This example demonstrates the robustness layer:

1. run Luby's MIS under a crash/drop :class:`FaultSchedule` on *both*
   engines — the recorded fault events come from the engine-independent
   schedule, and each trace is validated on the **surviving subgraph**;
2. inject one-round message delays on *both* engines (the array engine
   carries late messages in per-edge one-round buffers) and show the
   clean outcomes plus the structured failure mode a cross-phase
   straggler can provoke from phase-typed coroutine algorithms;
3. run the **self-stabilising** Luby MIS through two crash waves on both
   engines: survivors detect crashed neighbours, revoke, and locally
   restart, and the trace's :class:`RecoveryTimeline` records the
   per-epoch time to restabilise; a batch of four faulted trials on the
   array engine gives exactly the four single-trial traces;
4. run a sweep journaled to a sqlite file, interrupt it half-way, and
   resume it cell-exactly — the resumed results are identical to an
   uninterrupted run, on the coroutine runner and batched on the array
   engine alike, and the journal refuses a sweep with another schedule.

Run with (``make fault-smoke`` runs the same)::

    python examples/fault_injection_demo.py
"""

from __future__ import annotations

import os
import tempfile

from repro.algorithms.mis import LubyMIS
from repro.algorithms.selfstab import SelfStabilizingLubyMIS, SelfStabilizingLubyMISArray
from repro.analysis import sweep
from repro.core import problems
from repro.core.metrics import measure
from repro.graphs import generators as gen
from repro.local.engine import ArrayEngine
from repro.local.faults import FaultSchedule
from repro.local.network import Network
from repro.local.runner import Runner


def crash_and_drop_on_both_engines() -> None:
    print("=== crashes + drops through both engines ===")
    network = Network.from_edge_arrays(
        gen.erdos_renyi_edges(40, 4.0, seed=1), id_scheme="permuted"
    )
    faults = FaultSchedule(crashes={3: 2, 11: 1}, drop_rate=0.05, seed=7)
    runner_trace = Runner(strict=False, max_rounds=500).run(
        LubyMIS(), network, problems.MIS, seed=0, faults=faults
    )
    array_trace = ArrayEngine(strict=False, max_rounds=500).run(
        LubyMIS().as_array_algorithm(), network, problems.MIS, seed=0, faults=faults
    )
    for name, trace in (("coroutine", runner_trace), ("array", array_trace)):
        verdict = trace.validate()  # scores the surviving subgraph
        drops = sum(1 for e in trace.fault_events if e[0] == "drop")
        print(
            f"  {name:9s} rounds={trace.rounds:2d} crashed={trace.crashed} "
            f"drops={drops:3d} surviving-valid={verdict.valid}"
        )
    common = min(runner_trace.rounds, array_trace.rounds)
    prefix = lambda t: tuple(e for e in t.fault_events if e[1] <= common)  # noqa: E731
    assert prefix(runner_trace) == prefix(array_trace), "schedules must agree"
    print(f"  fault events identical over the common {common} rounds")


def delays_on_both_engines() -> None:
    print("\n=== one-round message delays through both engines ===")
    network = Network.from_edge_arrays(gen.cycle_edges(16), id_scheme="permuted")
    faults = FaultSchedule(delay_rate=0.05, seed=1)
    # A mild delay schedule usually just slows Luby down.  The same schedule
    # object drives both engines: the coroutine runner re-queues each delayed
    # message, the array engine carries it in per-directed-edge late masks.
    runner_trace = Runner(strict=False, max_rounds=500).run(
        LubyMIS(), network, problems.MIS, seed=1, faults=faults
    )
    array_trace = ArrayEngine(strict=False, max_rounds=500).run(
        LubyMIS().as_array_algorithm(), network, problems.MIS, seed=1, faults=faults
    )
    for name, trace in (("coroutine", runner_trace), ("array", array_trace)):
        delays = sum(1 for e in trace.fault_events if e[0] == "delay")
        print(
            f"  {name:9s} delayed {delays:2d} messages: rounds={trace.rounds}, "
            f"valid={trace.validate().valid}"
        )
    common = min(runner_trace.rounds, array_trace.rounds)
    prefix = lambda t: tuple(e for e in t.fault_events if e[1] <= common)  # noqa: E731
    assert prefix(runner_trace) == prefix(array_trace), "schedules must agree"
    # A cross-phase straggler can also surface as the algorithm's own
    # exception — a structured outcome the sweep layer records as a row.
    result = sweep(
        parameter="n",
        values=[12],
        graph_factory=gen.cycle_edges,
        algorithms={"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)},
        trials=4,
        seed=4,
        validate=False,
        faults=FaultSchedule(drop_rate=0.1, delay_rate=0.3, seed=9),
        on_error="record",
    )
    print(
        f"  delay-heavy sweep: {sum(1 for _ in result)} point(s), "
        f"{len(result.failures)} recorded failure(s)"
    )
    for failure in result.failures:
        print(f"    trial {failure.trial}: kind={failure.kind}")


def self_stabilizing_recovery() -> None:
    print("\n=== self-stabilising Luby MIS: crash waves, then recovery ===")
    network = Network.from_edge_arrays(gen.erdos_renyi_edges(40, 3.0, seed=3))
    # Two crash waves: three vertices die at round 2, three more at round 6.
    crashes = {5: 2, 17: 2, 29: 2, 8: 6, 23: 6, 36: 6}
    faults = FaultSchedule(crashes=crashes, seed=5)
    runner_trace = Runner(max_rounds=500).run(
        SelfStabilizingLubyMIS(), network, problems.MIS, seed=1, faults=faults
    )
    array_trace = ArrayEngine(max_rounds=500).run(
        SelfStabilizingLubyMISArray(), network, problems.MIS, seed=1, faults=faults
    )
    for name, trace in (("coroutine", runner_trace), ("array", array_trace)):
        timeline = trace.recovery
        strict = problems.MIS.validate_induced(
            network,
            trace.node_outputs,
            trace.edge_outputs,
            trace.crashed,
        )
        print(
            f"  {name:9s} rounds={trace.rounds:2d} crashed={sorted(trace.crashed)} "
            f"survivor-valid={bool(strict)}"
        )
        for crash_round, ttr in zip(timeline.crash_rounds, timeline.time_to_restabilize()):
            print(f"    crash wave at round {crash_round}: restabilised after {ttr} round(s)")
        assert bool(strict), "survivors must re-form a valid MIS"
        assert all(t is not None for t in timeline.time_to_restabilize())
    # Four faulted trials batched on the array engine: each row equals its
    # single-trial run, fault events, crashes and recovery timeline included.
    engine = ArrayEngine(max_rounds=500)
    seeds = [1, 2, 3, 4]
    batched = engine.run_batch(
        SelfStabilizingLubyMISArray(), network, problems.MIS, seeds, faults=faults
    )
    for seed, trace in zip(seeds, batched):
        single = engine.run(
            SelfStabilizingLubyMISArray(), network, problems.MIS, seed=seed, faults=faults
        )
        assert trace_record(trace) == trace_record(single), f"seed {seed} differs"
    print(
        f"  batch of {len(seeds)} faulted trials == {len(seeds)} single-trial runs "
        f"(rounds {[trace.rounds for trace in batched]})"
    )
    # The same timeline aggregates through the measurement layer.
    measurement = measure([runner_trace]).as_dict()
    print(
        f"  measured: recovery_epochs={measurement['recovery_epochs']} "
        f"mean_time_to_restabilize={measurement['mean_time_to_restabilize']} "
        f"unrecovered_epochs={measurement['unrecovered_epochs']}"
    )


def checkpointed_sweep_resumes_exactly() -> None:
    print("\n=== crash-safe sweep: interrupt, then resume cell-exactly ===")
    with tempfile.TemporaryDirectory(prefix="fault-demo-") as workdir:
        for engine in ("node", "auto"):
            interrupt_and_resume(engine, os.path.join(workdir, f"sweep-{engine}.db"))


def interrupt_and_resume(engine: str, path: str) -> None:
    import repro.analysis.sweep as _  # noqa: F401  (module, for the hook)
    import sys

    sweep_module = sys.modules["repro.analysis.sweep"]
    settings = dict(
        parameter="n",
        values=[20, 30, 40],
        graph_factory=gen.cycle_edges,
        algorithms={"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)},
        trials=3,
        seed=0,
        engine=engine,
        faults=FaultSchedule(crashes={0: 2}),
    )
    baseline = sweep(**settings)
    rows_before_interrupt = 4

    def interrupt(row):
        nonlocal rows_before_interrupt
        rows_before_interrupt -= 1
        if rows_before_interrupt == 0:
            raise KeyboardInterrupt

    sweep_module._test_hook = interrupt
    try:
        sweep(checkpoint=path, **settings)
        raise AssertionError("the interrupt hook should have fired")
    except KeyboardInterrupt:
        print(f"  engine={engine}: interrupted after 4 cells; their rows are committed")
    finally:
        sweep_module._test_hook = None

    resumed = sweep(checkpoint=path, **settings)
    assert resumed == baseline, "resume must reproduce the uninterrupted sweep"
    print(f"  resumed from {os.path.basename(path)}")
    print("  resumed results identical to an uninterrupted sweep:")
    for point in resumed:
        row = point.measurement.as_dict()
        print(
            f"    n={point.value:3d} node_avg={row['node_averaged']:.2f} "
            f"worst={row['worst_case']}"
        )

    # The journal records its schedule: another one is a different sweep.
    other = dict(settings, faults=FaultSchedule(crashes={0: 3}))
    try:
        sweep(checkpoint=path, **other)
        raise AssertionError("a journal must refuse another fault schedule")
    except ValueError as error:
        assert "faults" in str(error), error
        print("  resuming under another fault schedule is refused")


def trace_record(trace) -> tuple:
    """Everything a run records, for comparing two traces."""
    return (
        trace.node_commit_rounds().tolist(),
        sorted(trace.node_outputs.items()),
        trace.rounds,
        trace.total_messages,
        trace.fault_events,
        trace.crashed,
        trace.recovery,
    )


def main() -> None:
    crash_and_drop_on_both_engines()
    delays_on_both_engines()
    self_stabilizing_recovery()
    checkpointed_sweep_resumes_exactly()


if __name__ == "__main__":
    main()
