"""Tests for the batch memory-budget override threaded through the stack.

``batch_budget_bytes`` reaches the array engine from every entry point —
``run_trials`` / ``Experiment`` / ``sweep`` — and batch-size
invariance guarantees it is a pure throughput knob: results are identical
under every budget.  The chosen budget is recorded as provenance in the
sweep journal's header (and, one layer up, in the service result store).
"""

from __future__ import annotations

import sys

from repro.algorithms.mis.luby import LubyMIS
from repro.core import problems
from repro.core.experiment import Experiment, resolve_network, run_trials, seed_schedule
from repro.core.metrics import measure
from repro.graphs import generators as gen

import repro.analysis.sweep  # noqa: F401  (loads the module into sys.modules)

sweepmod = sys.modules["repro.analysis.sweep"]
sweep = sweepmod.sweep


def luby_algorithms():
    return {"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)}


def cycle_network(n=12, seed=5):
    return resolve_network(gen.cycle_edges(n), seed=seed)


class TestRunTrialsBudget:
    def test_tiny_budget_matches_default(self):
        # A 1-byte budget degenerates to chunks of one trial; batch-size
        # invariance says the traces must still be identical.
        network = cycle_network()
        settings = dict(
            trials=4, seed=9, validate=True, engine="array"
        )
        default = run_trials(
            lambda: LubyMIS(), network, problems.MIS, **settings
        )
        tiny = run_trials(
            lambda: LubyMIS(), network, problems.MIS,
            batch_budget_bytes=1, **settings,
        )
        assert [dict(t.node_commit_round) for t in tiny] == (
            [dict(t.node_commit_round) for t in default]
        )
        assert [t.rounds for t in tiny] == [t.rounds for t in default]

    def test_measurement_is_invariant_under_the_budget(self):
        network = cycle_network()
        default = measure(run_trials(
            lambda: LubyMIS(), network, problems.MIS,
            trials=3, seed=2, engine="array",
        ))
        tiny = measure(run_trials(
            lambda: LubyMIS(), network, problems.MIS,
            trials=3, seed=2, engine="array", batch_budget_bytes=64,
        ))
        assert tiny == default

    def test_experiment_accepts_the_budget(self):
        default = Experiment(
            problem=problems.MIS, algorithm=LubyMIS,
            graphs=cycle_network(), trials=3, seed=2, engine="array",
        ).run()
        tiny = Experiment(
            problem=problems.MIS, algorithm=LubyMIS,
            graphs=cycle_network(), trials=3, seed=2, engine="array",
            batch_budget_bytes=128,
        ).run()
        assert [r.measurement for r in tiny.runs] == (
            [r.measurement for r in default.runs]
        )


class TestSweepBudget:
    def sweep_settings(self, **overrides):
        settings = dict(
            parameter="n",
            values=[8, 10],
            graph_factory=gen.cycle_edges,
            algorithms=luby_algorithms(),
            trials=2,
            seed=3,
            engine="array",
        )
        settings.update(overrides)
        return settings

    def test_sweep_results_are_budget_invariant(self):
        default = sweep(**self.sweep_settings())
        tiny = sweep(**self.sweep_settings(), batch_budget_bytes=1)
        big = sweep(**self.sweep_settings(), batch_budget_bytes=1 << 30)
        assert tiny == default
        assert big == default

    def test_header_records_the_budget(self, tmp_path):
        path = str(tmp_path / "journal.db")
        sweep(**self.sweep_settings(), checkpoint=path, batch_budget_bytes=4096)
        header, rows = sweepmod.read_checkpoint(path)
        assert header["batch_budget"] == 4096
        assert len(rows) == 4

    def test_header_budget_is_provenance_not_identity(self, tmp_path):
        # A journal written under one budget resumes under another: the
        # budget is deliberately absent from the header-mismatch list.
        path = str(tmp_path / "journal.db")

        class Stop(Exception):
            pass

        calls = []

        def hook(row):
            calls.append(row)
            if len(calls) == 2:
                raise Stop()

        sweepmod._test_hook = hook
        try:
            try:
                sweep(
                    **self.sweep_settings(),
                    checkpoint=path,
                    batch_budget_bytes=4096,
                )
            except Stop:
                pass
        finally:
            sweepmod._test_hook = None
        resumed = sweep(
            **self.sweep_settings(), checkpoint=path, batch_budget_bytes=1
        )
        assert resumed == sweep(**self.sweep_settings())


class TestSeedSchedule:
    def test_seed_schedule_is_the_sweep_convention(self):
        assert seed_schedule(3, 3) == [3, 4, 5]
        assert seed_schedule(1003, 2) == [1003, 1004]

    def test_schedule_matches_run_trials_traces(self):
        network = cycle_network()
        batch = run_trials(
            lambda: LubyMIS(), network, problems.MIS,
            trials=3, seed=7, engine="array",
        )
        singles = [
            run_trials(
                lambda: LubyMIS(), network, problems.MIS,
                trials=1, seed=s, engine="array",
            )[0]
            for s in seed_schedule(7, 3)
        ]
        assert [dict(t.node_commit_round) for t in batch] == (
            [dict(t.node_commit_round) for t in singles]
        )
        assert [t.rounds for t in batch] == [t.rounds for t in singles]
