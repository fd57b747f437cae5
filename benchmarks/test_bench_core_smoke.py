"""Smoke test for the core perf harness (``pytest -m bench_smoke``).

Runs the ``--quick`` benchmark configuration once so that the harness itself
— the vendored seed pipeline, the cell runner, and the JSON document
builder — cannot silently rot.  The quick cells are tiny (n ≈ 100–2000), so
this stays well inside the tier-1 time budget; the speedup *values* are not
asserted (meaningless at smoke sizes), only the invariants the harness is
built on: both pipelines produce identical traces and measurements agreeing
to ≤ 1e-12 relative, the v3 measure/generate, v4 build, v5 run, v6
faulted_run and v7 batched_run cell kinds run, and the document has the
``bench-core/v7`` shape.  A second test pins the
:class:`repro.core.experiment.Experiment` facade against the harness's
hand-rolled plumbing: same seeds, bit-identical traces and measurement.
A third runs a two-worker shared-memory sweep end to end and checks it
against the serial result, so the parallel path stays covered by
``make bench-smoke``.
"""

from __future__ import annotations

import json

import pytest

import core_perf


@pytest.mark.bench_smoke
def test_quick_suite_produces_identical_pipelines(tmp_path):
    document = core_perf.run_suite(quick=True, reps=1)

    assert document["schema"] == core_perf.SCHEMA
    cells = document["cells"]
    assert len(cells) >= 3
    algorithms = {cell["algorithm"] for cell in cells}
    assert {"luby-mis", "randomized-matching", "sinkless-orientation"} <= algorithms

    for cell in cells:
        assert cell["kind"] in (
            "pipeline",
            "validate",
            "measure",
            "generate",
            "build",
            "run",
            "batched_run",
            "faulted_run",
        )
        assert cell["seed"]["total_s"] > 0 and cell["new"]["total_s"] > 0
        assert cell["speedup"] > 0
        if cell["kind"] in ("pipeline", "validate"):
            # run_cell asserts trace/measurement equality internally; the
            # flag records it in the committed document.
            assert cell["identical_traces"] is True
        if cell["kind"] not in ("generate", "build"):
            assert len(cell["rounds"]) == cell["trials"]
            assert cell["measurement"]["n"] == cell["n"]

    # The quick suite must exercise the validation-only cell kind (fed
    # by a direct edge-list workload), so the large-n validation path of the
    # full suite cannot silently rot.
    validate_cells = [cell for cell in cells if cell["kind"] == "validate"]
    assert validate_cells, "quick suite lost its validation-only cell"
    for cell in validate_cells:
        assert cell["validations"] >= 1
        assert cell["validate_speedup"] > 0
        assert cell["seed"]["validate_s"] > 0 and cell["new"]["validate_s"] > 0

    # ... and the v3 cell kinds: the numpy-vs-seed measurement race and the
    # generator race, so the million-node measurement layer cannot rot.
    measure_cells = [cell for cell in cells if cell["kind"] == "measure"]
    assert measure_cells, "quick suite lost its measurement-only cell"
    for cell in measure_cells:
        assert cell["measure_speedup"] > 0
        assert cell["measurement_agreement_rtol"] <= 1e-12
        assert cell["seed"]["measure_s"] > 0 and cell["new"]["measure_s"] > 0

    generate_cells = [cell for cell in cells if cell["kind"] == "generate"]
    assert generate_cells, "quick suite lost its generator-race cell"
    for cell in generate_cells:
        assert cell["generate_speedup"] > 0
        assert cell["within_6_sigma"] is True
        assert cell["seed_m"] > 0 and cell["new_m"] > 0
        assert cell["m"] == cell["new_m"]

    # ... and the v4 cell kind: the pair-list vs endpoint-array Network
    # build race (indistinguishability of the two networks is asserted inside
    # _run_build_cell; the flag records it in the committed document).
    build_cells = [cell for cell in cells if cell["kind"] == "build"]
    assert build_cells, "quick suite lost its network-build cell"
    for cell in build_cells:
        assert cell["build_speedup"] > 0
        assert cell["identical_networks"] is True
        assert cell["m"] > 0
        assert cell["seed"]["network_s"] > 0 and cell["new"]["network_s"] > 0

    # ... and the v5 cell kind: the coroutine-runner vs array-engine race,
    # with validator-verified outputs on both sides (asserted inside
    # _run_engine_cell; the flag records it in the committed document).
    run_cells = [cell for cell in cells if cell["kind"] == "run"]
    assert run_cells, "quick suite lost its engine-race cell"
    assert {cell["algorithm"] for cell in run_cells} >= {
        "luby-mis",
        "randomized-matching",
    }
    for cell in run_cells:
        assert cell["run_speedup"] > 0
        assert cell["validated_outputs"] is True
        assert len(cell["seed_rounds"]) == cell["trials"]
        assert cell["seed"]["runner_s"] > 0 and cell["new"]["runner_s"] > 0

    # ... and the v7 cell kind: the trial-batching race inside the array
    # engine.  Bit-identical batched-vs-single traces (batch-size
    # invariance) are asserted inside _run_batched_cell; the flag records
    # it in the committed document.
    batched_cells = [cell for cell in cells if cell["kind"] == "batched_run"]
    assert batched_cells, "quick suite lost its trial-batching cell"
    assert {cell["algorithm"] for cell in batched_cells} >= {
        "luby-mis",
        "randomized-matching",
    }
    for cell in batched_cells:
        assert cell["batched_speedup"] > 0
        assert cell["identical_traces"] is True
        assert cell["validated_outputs"] is True
        assert cell["trials"] > 1
        assert 1 <= cell["chunk"] <= cell["trials"]
        assert len(cell["rounds"]) == cell["trials"]
        assert cell["seed"]["runner_s"] > 0 and cell["new"]["runner_s"] > 0

    # ... and the v6 cell kind: the fault-injected engine race on the
    # self-stabilising Luby MIS (surviving + induced-survivor validity,
    # fault-event agreement and full epoch recovery are asserted inside
    # _run_faulted_cell; the flags record them in the committed document).
    faulted_cells = [cell for cell in cells if cell["kind"] == "faulted_run"]
    assert faulted_cells, "quick suite lost its fault-injection cell"
    for cell in faulted_cells:
        assert cell["faulted_speedup"] > 0
        assert cell["validated_outputs"] is True
        assert cell["identical_fault_events"] is True
        assert cell["survivor_valid"] is True
        assert cell["crashes"] > 0 and cell["crash_rounds"]
        assert len(cell["seed_rounds"]) == cell["trials"]
        # measure() flattens epochs over the cell's trials.
        assert cell["measurement"]["recovery_epochs"] == cell["trials"] * len(
            cell["crash_rounds"]
        )
        assert cell["measurement"]["unrecovered_epochs"] == 0

    # The document must be JSON-serialisable exactly as core_perf writes it.
    path = tmp_path / "BENCH_core.json"
    path.write_text(json.dumps(document, indent=2))
    assert json.loads(path.read_text())["cells"]


@pytest.mark.bench_smoke
def test_experiment_facade_matches_harness_plumbing():
    """The Experiment facade reproduces the harness's hand-rolled pipeline.

    Same workload, same identifiers, same per-trial seed schedule — the
    facade must hand back bit-identical traces and an equal measurement, so
    benchmark code can adopt it without changing any recorded number.
    """
    from repro.algorithms.mis.luby import LubyMIS
    from repro.core import problems
    from repro.core.experiment import Experiment, trial_seed
    from repro.core.metrics import measure
    from repro.graphs import generators as gen
    from repro.local.network import Network
    from repro.local.runner import Runner

    arrays = gen.fast_gnp_edges(400, 8.0 / 399, seed=11, as_arrays=True)
    trials = 2

    # The harness's plumbing: explicit network, runner, per-trial seeds.
    network = Network.from_edge_arrays(arrays, id_scheme="sequential")
    runner = Runner(max_rounds=core_perf.MAX_ROUNDS)
    traces = [
        runner.run(LubyMIS(), network, problems.MIS, seed=trial_seed(0, i))
        for i in range(trials)
    ]
    expected = measure(traces)

    result = Experiment(
        problem=problems.MIS,
        algorithm=LubyMIS,
        graphs=arrays,
        trials=trials,
        id_scheme="sequential",
        max_rounds=core_perf.MAX_ROUNDS,
        quantiles=None,
    ).run()

    run = result.run
    assert run.ok
    assert run.measurement == expected
    assert [t.node_outputs for t in run.traces] == [t.node_outputs for t in traces]
    assert [t.node_commit_round for t in run.traces] == [
        t.node_commit_round for t in traces
    ]
    assert [t.rounds for t in run.traces] == [t.rounds for t in traces]


@pytest.mark.bench_smoke
def test_two_worker_shared_memory_sweep_matches_serial():
    """A 2-worker sweep over shared-CSR segments equals the serial sweep.

    The workers attach the parent's shared-memory CSR export instead of
    rebuilding networks, and the parent must unlink every segment on the
    way out — both contracts smoke-checked here so CI exercises the
    multi-core path on every run.
    """
    import sys as _sys

    from multiprocessing import shared_memory

    from repro.algorithms.mis.luby import LubyMIS
    from repro.core import problems
    from repro.graphs import generators as gen

    import repro.analysis.sweep  # noqa: F401

    sweepmod = _sys.modules["repro.analysis.sweep"]

    settings = dict(
        parameter="n",
        values=[16, 24],
        graph_factory=gen.cycle_edges,
        algorithms={"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)},
        trials=3,
        seed=5,
        engine="auto",
    )
    serial = sweepmod.sweep(**settings)
    parallel = sweepmod.sweep(parallel=2, **settings)
    assert parallel == serial
    for name in sweepmod._LAST_SEGMENT_NAMES:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
