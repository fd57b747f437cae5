"""Tests for the crash-safe sweep layer (checkpointing, failure rows,
trial-batched cells) in `repro.analysis.sweep`.

The invariant under test throughout: resilience must never change results.
A sweep that is checkpointed, interrupted and resumed, or whose cells run
batched, produces measurements identical to the plain sweep, because every
``(value, algorithm, trial)`` cell derives its seed from the same
deterministic schedule.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import sys
import time
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms.matching.randomized import RandomizedMaximalMatching
from repro.algorithms.mis.luby import LubyMIS
from repro.algorithms.ruling_set import RandomizedTwoTwoRulingSet
from repro.core import problems
from repro.core.experiment import run_trials, trial_seed
from repro.core import metrics
from repro.core.metrics import measure
from repro.graphs import generators as gen
from repro.local.faults import FaultSchedule
from repro.local.network import Network
from repro.local.runner import Runner

# ``repro.analysis.sweep`` the *module*: the package __init__ rebinds the
# attribute ``sweep`` to the function, so ``import repro.analysis.sweep as x``
# would hand back the function instead.
import repro.analysis.sweep  # noqa: F401  (loads the module into sys.modules)

sweepmod = sys.modules["repro.analysis.sweep"]
sweep = sweepmod.sweep


def luby_algorithms():
    return {"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)}


def run_sweep(**overrides):
    settings = dict(
        parameter="n",
        values=[8, 10],
        graph_factory=gen.cycle_edges,
        algorithms=luby_algorithms(),
        trials=2,
        seed=3,
    )
    settings.update(overrides)
    return sweep(**settings)


def edit_journal(path, statement, params=()):
    """Run one SQL statement against a closed sweep journal."""
    db = sqlite3.connect(path)
    try:
        with db:
            db.execute(statement, params)
    finally:
        db.close()


@pytest.fixture
def row_hook(monkeypatch):
    """Install a journal-row hook (fires after each row commits)."""

    def install(callback):
        monkeypatch.setattr(sweepmod, "_test_hook", callback)

    return install


class TestResultShape:
    @pytest.mark.parametrize("faulted", [False, True])
    @pytest.mark.parametrize("engine", ["node", "auto"])
    def test_serial_sweep_matches_measured_run_trials(self, engine, faulted):
        faults = FaultSchedule(crashes={0: 2, 3: 1}, seed=2) if faulted else None
        result = run_sweep(engine=engine, faults=faults)
        expected = []
        for index, value in enumerate([8, 10]):
            network = sweepmod.resolve_network(gen.cycle_edges(value), seed=3 + index)
            traces = run_trials(
                LubyMIS,
                network,
                problems.MIS,
                trials=2,
                seed=3 + 1000 * index,
                engine=engine,
                faults=faults,
            )
            expected.append(replace(measure(traces), algorithm="luby"))
        assert [point.value for point in result] == [8, 10]
        assert [point.measurement for point in result] == expected
        assert result.ok
        assert result.failures == []
        assert run_sweep(engine=engine, faults=faults, on_error="record") == result

    def test_sweeps_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_sweep(engine="auto", trials=3)


class TestCheckpointing:
    def test_full_run_resume_recomputes_nothing(self, tmp_path, row_hook):
        path = str(tmp_path / "sweep.db")
        first = run_sweep(checkpoint=path)
        recomputed = []
        row_hook(recomputed.append)
        second = run_sweep(checkpoint=path)
        assert second == first
        assert recomputed == []

    def test_journal_has_header_and_ok_rows(self, tmp_path):
        path = str(tmp_path / "sweep.db")
        run_sweep(checkpoint=path)
        header, rows = sweepmod.read_checkpoint(path)
        assert header["format"] == sweepmod.CHECKPOINT_FORMAT
        assert header["parameter"] == "n"
        assert header["algorithms"] == ["luby"]
        assert sorted(rows) == [(i, "luby", t) for i in (0, 1) for t in (0, 1)]
        for row in rows.values():
            assert row["status"] == "ok"
            # Stored as raw int64 BLOBs, read back as int64 arrays.
            assert row["node_times"].dtype == np.int64
            assert len(row["node_times"]) == row["n"]

    def test_interrupted_sweep_resumes_to_identical_results(self, tmp_path, row_hook):
        baseline = run_sweep()
        path = str(tmp_path / "sweep.db")

        written = []

        def interrupt_after_two(row):
            written.append(row)
            if len(written) == 2:
                raise KeyboardInterrupt

        row_hook(interrupt_after_two)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(checkpoint=path)
        assert len(written) == 2

        row_hook(written.append)
        resumed = run_sweep(checkpoint=path)
        assert resumed == baseline
        # Only the two unfinished cells were recomputed.
        assert len(written) == 4

    def test_header_omits_the_parallel_field(self, tmp_path):
        path = str(tmp_path / "sweep.db")
        run_sweep(checkpoint=path)
        header, _ = sweepmod.read_checkpoint(path)
        assert "parallel" not in header
        assert header["batch_budget"] is None

    def test_header_with_a_parallel_field_resumes(self, tmp_path, row_hook):
        # Journals written while sweeps still had a pool carry the
        # provenance-only "parallel" field; it is never compared.
        path = str(tmp_path / "sweep.db")
        first = run_sweep(checkpoint=path)
        header, _ = sweepmod.read_checkpoint(path)
        header["parallel"] = True
        edit_journal(path, "UPDATE journals SET header = ?", (json.dumps(header),))
        recomputed = []
        row_hook(recomputed.append)
        assert run_sweep(checkpoint=path) == first
        assert recomputed == []
        assert sweepmod.read_checkpoint(path)[0]["parallel"] is True

    @pytest.mark.parametrize("flag", [False, True])
    @pytest.mark.parametrize("engine", ["node", "auto"])
    def test_a_cut_journal_with_a_parallel_field_reruns_only_missing_cells(
        self, tmp_path, row_hook, engine, flag
    ):
        # Serial sweeps stored "parallel": false, pool sweeps true.
        baseline = run_sweep(engine=engine)
        path = str(tmp_path / "sweep.db")
        run_sweep(engine=engine, checkpoint=path)
        header, _ = sweepmod.read_checkpoint(path)
        header["parallel"] = flag
        edit_journal(path, "UPDATE journals SET header = ?", (json.dumps(header),))
        edit_journal(path, "DELETE FROM journal_cells WHERE value_index = 1")
        recomputed = []
        row_hook(lambda row: recomputed.append(sweepmod._cell_key(row)))
        assert run_sweep(engine=engine, checkpoint=path) == baseline
        assert recomputed == [(1, "luby", 0), (1, "luby", 1)]
        assert sweepmod.read_checkpoint(path)[0]["parallel"] is flag

    def test_checkpoint_of_a_different_sweep_is_rejected(self, tmp_path):
        path = str(tmp_path / "sweep.db")
        run_sweep(checkpoint=path)
        with pytest.raises(ValueError, match="different sweep"):
            run_sweep(checkpoint=path, seed=4)

    def test_uncommitted_row_is_absent_and_its_cell_reruns(self, tmp_path, row_hook):
        baseline = run_sweep()
        path = str(tmp_path / "sweep.db")

        def interrupt_after_two(row):
            if row["value_index"] == 0 and row["trial"] == 1:
                raise KeyboardInterrupt

        row_hook(interrupt_after_two)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(checkpoint=path)
        # The next writer dies inside the transaction of cell (1, luby, 0).
        writer = multiprocessing.get_context("fork").Process(
            target=_die_mid_row, args=(path,)
        )
        writer.start()
        writer.join(30)
        assert writer.exitcode == -signal.SIGKILL

        header, rows = sweepmod.read_checkpoint(path)
        assert sorted(rows) == [(0, "luby", 0), (0, "luby", 1)]
        recomputed = []
        row_hook(recomputed.append)
        assert run_sweep(checkpoint=path) == baseline
        assert [sweepmod._cell_key(row) for row in recomputed] == [
            (1, "luby", 0),
            (1, "luby", 1),
        ]


class TestResumeAtEveryCut:
    """A sweep cut after any committed row resumes to the uninterrupted
    result and recomputes exactly the cells its journal lacks.  Under
    ``"auto"`` a cut after an odd row splits a batched cell's trials."""

    CELLS = [(i, "luby", t) for i in (0, 1) for t in (0, 1)]

    @pytest.mark.parametrize("cut", [1, 2, 3, 4])
    @pytest.mark.parametrize("faulted", [False, True])
    @pytest.mark.parametrize("engine", ["node", "auto"])
    def test_cut_sweep_resumes_to_the_uninterrupted_result(
        self, tmp_path, row_hook, engine, faulted, cut
    ):
        faults = FaultSchedule(crashes={0: 2, 3: 1}, seed=2) if faulted else None
        baseline = run_sweep(engine=engine, faults=faults)
        path = str(tmp_path / "sweep.db")
        written = []

        def cut_after(row):
            written.append(sweepmod._cell_key(row))
            if len(written) == cut:
                raise KeyboardInterrupt

        row_hook(cut_after)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(engine=engine, faults=faults, checkpoint=path)
        assert sorted(sweepmod.read_checkpoint(path)[1]) == sorted(written)

        recomputed = []
        row_hook(lambda row: recomputed.append(sweepmod._cell_key(row)))
        assert run_sweep(engine=engine, faults=faults, checkpoint=path) == baseline
        assert written + recomputed == self.CELLS


def _die_mid_row(path):
    db = sqlite3.connect(path)
    db.execute("BEGIN IMMEDIATE")
    db.execute(
        "INSERT INTO journal_cells (journal, value_index, algorithm, trial, status, "
        "n, m, problem, algorithm_name, node_times, edge_times) "
        "VALUES ('sweep', 1, 'luby', 0, 'ok', 10, 10, 'mis', 'luby', ?, ?)",
        (bytes(80), bytes(80)),
    )
    os.kill(os.getpid(), signal.SIGKILL)  # no COMMIT ever reaches the WAL


def with_broken_algorithm():
    def broken_factory(net):
        raise RuntimeError("factory exploded")

    algorithms = luby_algorithms()
    algorithms["broken"] = (broken_factory, lambda net: problems.MIS)
    return algorithms


class TestFailureRows:
    @pytest.mark.parametrize("engine", ["node", "auto"])
    def test_record_converts_broken_cells_into_failure_rows(self, engine):
        algorithms = with_broken_algorithm()
        result = run_sweep(algorithms=algorithms, engine=engine, on_error="record")
        assert not result.ok
        # The healthy algorithm still produced one point per value...
        assert [p.measurement.algorithm for p in result] == ["luby", "luby"]
        assert result == run_sweep(engine=engine)  # ...identical to a luby-only sweep.
        # ...and every broken cell became a classified, reproducible row.
        assert len(result.failures) == 2 * 2
        for failure in result.failures:
            assert failure.algorithm == "broken"
            assert failure.kind == "exception:RuntimeError"
            assert "factory exploded" in failure.message
        first = result.failures[0]
        assert first.seed == trial_seed(3 + 1000 * 0, first.trial)

    @pytest.mark.parametrize("engine", ["node", "auto"])
    def test_raise_propagates_the_first_broken_cell(self, tmp_path, engine):
        path = str(tmp_path / "sweep.db")
        with pytest.raises(RuntimeError, match="factory exploded") as raised:
            run_sweep(
                algorithms=with_broken_algorithm(),
                engine=engine,
                on_error="raise",
                checkpoint=path,
            )
        assert raised.type is RuntimeError
        # The failing cell, the broken algorithm's first, is journaled
        # before its error propagates; the healthy cells before it are too.
        _, rows = sweepmod.read_checkpoint(path)
        assert sorted(rows) == [(0, "broken", 0), (0, "luby", 0), (0, "luby", 1)]
        failed = [row for row in rows.values() if row["status"] == "failure"]
        assert len(failed) == 1
        (row,) = failed
        assert row["algorithm"] == "broken"
        assert row["kind"] == "exception:RuntimeError"
        assert row["seed"] == sweepmod.cell_seed(3, 0, 0)

    def test_round_limit_overruns_are_recorded(self):
        result = run_sweep(values=[12], max_rounds=1, on_error="record")
        assert result == []
        assert len(result.failures) == 2
        assert all(f.kind == "round-limit" for f in result.failures)

    def test_failure_rows_checkpoint_and_are_retried_on_resume(self, tmp_path):
        path = str(tmp_path / "sweep.db")
        result = run_sweep(values=[12], max_rounds=1, on_error="record", checkpoint=path)
        assert len(result.failures) == 2
        # The same sweep with a workable round budget retries the recorded
        # failures (only ok rows are skipped) and succeeds.
        healthy = run_sweep(values=[12], on_error="record", checkpoint=path)
        assert healthy.ok
        assert healthy == run_sweep(values=[12])


class TestCellTimeouts:
    def test_expired_cells_record_timeout_rows(self):
        def slow_factory(net):
            time.sleep(5.0)
            return LubyMIS()  # pragma: no cover - the deadline fires first

        result = run_sweep(
            values=[8],
            algorithms={"slow": (slow_factory, lambda net: problems.MIS)},
            cell_timeout=0.2,
            on_error="record",
        )
        assert result == []
        assert len(result.failures) == 2
        for failure in result.failures:
            assert failure.kind == "timeout"
            assert "wall-clock budget" in failure.message

    def test_generous_timeout_changes_nothing(self):
        assert run_sweep(cell_timeout=60.0) == run_sweep()


class TestFaultedSweeps:
    def test_journal_refuses_another_schedule(self, tmp_path):
        path = str(tmp_path / "sweep.db")
        run_sweep(faults=FaultSchedule(crashes={0: 2, 3: 1}, seed=2), checkpoint=path)
        for other in (None, FaultSchedule(crashes={0: 2, 3: 1}, seed=5)):
            with pytest.raises(ValueError, match="mismatched faults"):
                run_sweep(faults=other, checkpoint=path)

    def test_fault_free_journal_refuses_a_faulted_sweep(self, tmp_path):
        path = str(tmp_path / "sweep.db")
        run_sweep(engine="auto", checkpoint=path)
        with pytest.raises(ValueError, match="mismatched faults"):
            run_sweep(engine="auto", faults=FaultSchedule(crashes={1: 1}), checkpoint=path)

    def test_an_equal_schedule_resumes_and_recomputes_nothing(self, tmp_path, row_hook):
        path = str(tmp_path / "sweep.db")
        crashes = {3: 1, 0: 2}
        first = run_sweep(faults=FaultSchedule(crashes=crashes, seed=2), checkpoint=path)
        header, _ = sweepmod.read_checkpoint(path)
        assert header["faults"] == {
            "crashes": [[0, 2], [3, 1]],
            "drop_rate": 0.0,
            "delay_rate": 0.0,
            "seed": 2,
        }
        recomputed = []
        row_hook(recomputed.append)
        rebuilt = FaultSchedule(crashes=dict(sorted(crashes.items())), seed=2)
        assert run_sweep(faults=rebuilt, checkpoint=path) == first
        assert recomputed == []

    def test_inert_schedules_are_recorded_as_none(self, tmp_path, row_hook):
        path = str(tmp_path / "sweep.db")
        first = run_sweep(faults=FaultSchedule(seed=9), checkpoint=path)
        header, _ = sweepmod.read_checkpoint(path)
        assert header["faults"] is None
        recomputed = []
        row_hook(recomputed.append)
        assert run_sweep(checkpoint=path) == first
        assert recomputed == []

    def test_header_without_faults_still_resumes_a_fault_free_sweep(
        self, tmp_path, row_hook
    ):
        path = str(tmp_path / "sweep.db")
        first = run_sweep(engine="auto", checkpoint=path)
        db = sqlite3.connect(path)
        with db:
            (text,) = db.execute("SELECT header FROM journals").fetchone()
            header = json.loads(text)
            del header["faults"]
            db.execute("UPDATE journals SET header = ?", (json.dumps(header),))
        db.close()
        recomputed = []
        row_hook(recomputed.append)
        assert run_sweep(engine="auto", checkpoint=path) == first
        assert recomputed == []
        with pytest.raises(ValueError, match="mismatched faults"):
            run_sweep(engine="auto", faults=FaultSchedule(crashes={1: 1}), checkpoint=path)

    def test_faulted_sweep_checkpoints_and_resumes(self, tmp_path, row_hook):
        faults = FaultSchedule(crashes={0: 2}, drop_rate=0.1, seed=6)
        baseline = run_sweep(faults=faults, validate=False)
        path = str(tmp_path / "sweep.db")
        first = run_sweep(faults=faults, validate=False, checkpoint=path)
        assert first == baseline
        recomputed = []
        row_hook(recomputed.append)
        assert run_sweep(faults=faults, validate=False, checkpoint=path) == baseline
        assert recomputed == []


def _stored_widths(path, key="sweep"):
    """``(n, m, node BLOB bytes, edge BLOB bytes)`` of each ok row, in SQL."""
    db = sqlite3.connect(path)
    try:
        return db.execute(
            "SELECT n, m, length(node_times), length(edge_times) FROM journal_cells "
            "WHERE journal = ? AND status = 'ok' ORDER BY value_index, trial",
            (key,),
        ).fetchall()
    finally:
        db.close()


class TestNarrowJournal:
    def test_ok_rows_are_stored_as_uint16(self, tmp_path):
        path = str(tmp_path / "sweep.db")
        run_sweep(checkpoint=path)
        widths = _stored_widths(path)
        assert [(n, m) for n, m, _, _ in widths] == [(8, 8), (8, 8), (10, 10), (10, 10)]
        assert all((node, edge) == (2 * n, 2 * m) for n, m, node, edge in widths)

    @pytest.mark.parametrize("top, width", [(65_535, 2), (65_536, 8)])
    def test_times_round_trip_exactly_at_their_width(
        self, tmp_path, trace_factory, top, width
    ):
        # A hand-made trace: no sweep runs 65 536 rounds in a test.
        network = Network.from_edge_arrays(gen.path_edges(3))
        trace = trace_factory(
            network,
            problems.MIS,
            node_outputs={0: True, 1: False, 2: True},
            node_commit_round={0: 7, 1: top, 2: 0},
            rounds=top,
        )
        spec = {
            "parameter": "n",
            "values": [3],
            "algorithms": {"luby": None},
            "trials": 1,
            "seed": 0,
            "engine": "node",
        }
        path = str(tmp_path / "sweep.db")
        journal = sweepmod._Journal(path, spec)
        try:
            journal.record(sweepmod._ok_row(network, problems.MIS, 0, "luby", 0, trace))
        finally:
            journal.close()
        assert _stored_widths(path) == [(3, 2, 3 * width, 2 * width)]
        _, rows = sweepmod.read_checkpoint(path)
        row = rows[0, "luby", 0]
        assert row["node_times"].dtype == row["edge_times"].dtype == np.int64
        assert row["node_times"].tolist() == trace.node_completion_times() == [7, top, 0]
        assert row["edge_times"].tolist() == trace.edge_completion_times() == [top, top]
        # Folded as a sweep folds it, the row measures like its trace.
        totals = metrics.CompletionTotals(trace.algorithm_name, problems.MIS.name)
        totals.add(row["node_times"], row["edge_times"])
        assert totals.measurement() == measure(trace)

    def test_v2_journal_resumes_and_is_restamped(self, tmp_path, row_hook):
        baseline = run_sweep()
        # A v2 journal holding the first value's cells, written through
        # sqlite: every completion time an int64 BLOB.
        source = str(tmp_path / "source.db")
        run_sweep(checkpoint=source)
        header, rows = sweepmod.read_checkpoint(source)
        path = str(tmp_path / "v2.db")
        db = sqlite3.connect(path)
        try:
            db.executescript(sweepmod._JOURNAL_DDL)
            db.execute(
                "INSERT INTO journals (key, header) VALUES ('sweep', ?)",
                (json.dumps({**header, "format": "sweep-checkpoint/v2"}, sort_keys=True),),
            )
            for (index, name, trial), row in rows.items():
                if index != 0:
                    continue
                db.execute(
                    "INSERT INTO journal_cells (journal, value_index, algorithm, trial, "
                    "status, n, m, problem, algorithm_name, node_times, edge_times) "
                    "VALUES ('sweep', ?, ?, ?, 'ok', ?, ?, ?, ?, ?, ?)",
                    (
                        index, name, trial, row["n"], row["m"], row["problem"],
                        row["algorithm_name"],
                        row["node_times"].astype(np.int64).tobytes(),
                        row["edge_times"].astype(np.int64).tobytes(),
                    ),
                )
            db.commit()
        finally:
            db.close()

        recomputed = []
        row_hook(recomputed.append)
        assert run_sweep(checkpoint=path) == baseline
        assert [sweepmod._cell_key(row) for row in recomputed] == [
            (1, "luby", 0),
            (1, "luby", 1),
        ]
        header, rows = sweepmod.read_checkpoint(path)
        assert header["format"] == sweepmod.CHECKPOINT_FORMAT == "sweep-checkpoint/v3"
        # The v2 rows keep their width beside the new narrow ones.
        assert _stored_widths(path) == [
            (8, 8, 64, 64), (8, 8, 64, 64), (10, 10, 20, 20), (10, 10, 20, 20)
        ]
        assert all(row["node_times"].dtype == np.int64 for row in rows.values())


class TestStreamedAggregation:
    def test_ok_rows_are_released_once_folded(self, tmp_path, monkeypatch, row_hook):
        """No completion-time row outlives its fold: neither the rows a resume
        reads back from the journal nor the rows fresh cells return."""
        baseline = run_sweep()
        path = str(tmp_path / "sweep.db")

        def stop_after_two(row):
            if (row["value_index"], row["trial"]) == (0, 1):
                raise KeyboardInterrupt

        row_hook(stop_after_two)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(checkpoint=path)

        refs = []

        def track(row):
            if row["status"] == "ok":
                refs.extend(weakref.ref(row[field]) for field in ("node_times", "edge_times"))

        execute, journal_cells = sweepmod._execute, sweepmod._journal_cells

        alive = []

        def tracked_execute(spec, task, cache):
            # Every row seen so far was folded before this task runs.
            alive.extend(ref() for ref in refs if ref() is not None)
            rows, error = execute(spec, task, cache)
            for row in rows:
                track(row)
            return rows, error

        def tracked_cells(*args, **kwargs):
            for row in journal_cells(*args, **kwargs):
                track(row)
                yield row

        monkeypatch.setattr(sweepmod, "_execute", tracked_execute)
        monkeypatch.setattr(sweepmod, "_journal_cells", tracked_cells)

        def check(row):
            if len(refs) == 4 * 2:  # the last cell's row: every array seen
                own = (row["node_times"], row["edge_times"])
                alive.extend(
                    ref() for ref in refs if ref() is not None and not any(ref() is a for a in own)
                )
                alive.append("checked")

        row_hook(check)
        assert run_sweep(checkpoint=path) == baseline
        assert alive == ["checked"]

    @pytest.mark.parametrize(
        "engine, faulted",
        [
            pytest.param("node", False, id="node"),
            pytest.param("auto", False, id="auto"),
            pytest.param("node", True, id="node-crash-only"),
            pytest.param("auto", True, id="auto-crash-only"),
        ],
    )
    def test_serial_sweep_keeps_one_value_network(self, monkeypatch, engine, faulted):
        # One schedule serves both values, as in any faulted sweep: it must
        # not keep the first value's endpoint arrays once the sweep moves on.
        faults = FaultSchedule(crashes={0: 2, 3: 1}, seed=2) if faulted else None
        baseline = run_sweep(engine=engine, faults=faults)
        built = []
        resolve_network, execute = sweepmod.resolve_network, sweepmod._execute

        def tracked_resolve_network(*args, **kwargs):
            network = resolve_network(*args, **kwargs)
            built.append((weakref.ref(network), weakref.ref(network.edge_endpoints()[0])))
            return network

        first_alive = []

        def checked_execute(spec, task, cache):
            if task[0] == 1:
                first_alive.extend(ref() is not None for ref in built[0])
            return execute(spec, task, cache)

        monkeypatch.setattr(sweepmod, "resolve_network", tracked_resolve_network)
        monkeypatch.setattr(sweepmod, "_execute", checked_execute)
        assert run_sweep(engine=engine, faults=faults) == baseline
        assert len(built) == 2
        assert first_alive and not any(first_alive)


class TestValueRunner:
    """Under ``engine="node"`` every task of a swept value runs on one
    runner, so the value's trials reuse its node pool."""

    def test_node_pool_is_built_once_per_value(self, monkeypatch):
        builds = []
        build_nodes = Runner._build_nodes

        def counted(*args, **kwargs):
            builds.append(None)
            return build_nodes(*args, **kwargs)

        monkeypatch.setattr(Runner, "_build_nodes", staticmethod(counted))
        assert len(run_sweep(engine="node", trials=5)) == 2
        assert len(builds) == 2  # one per value, not one per trial

    def test_points_equal_a_fresh_runner_per_trial(self, monkeypatch):
        settings = dict(
            values=[20, 30],
            graph_factory=lambda n: gen.random_regular_edges(3, n, seed=n),
            algorithms={
                "luby": (lambda net: LubyMIS(), lambda net: problems.MIS),
                "matching": (
                    lambda net: RandomizedMaximalMatching(),
                    lambda net: problems.MAXIMAL_MATCHING,
                ),
                "ruling": (
                    lambda net: RandomizedTwoTwoRulingSet(),
                    lambda net: problems.ruling_set(2, 2),
                ),
            },
            trials=5,
            engine="node",
        )
        shared = run_sweep(**settings)

        class FreshRunner(Runner):
            def run(self, *args, **kwargs):
                return Runner(max_rounds=self.max_rounds).run(*args, **kwargs)

        monkeypatch.setattr(sweepmod, "Runner", FreshRunner)
        fresh = run_sweep(**settings)
        assert len(shared) == 2 * 3
        assert shared == fresh


class TestBatchedCells:
    """Multi-trial cells on the array engines run as one batched group per
    ``(value, algorithm)`` and still journal one row per trial."""

    def run_batched(self, **overrides):
        return run_sweep(engine="auto", trials=3, **overrides)

    def test_batched_checkpoint_resumes_cell_exactly(self, tmp_path, row_hook):
        baseline = self.run_batched()
        path = str(tmp_path / "sweep.db")
        assert self.run_batched(checkpoint=path) == baseline
        _, rows = sweepmod.read_checkpoint(path)
        # One row per trial even though the cells ran batched.
        assert len(rows) == 2 * 3
        recomputed = []
        row_hook(recomputed.append)
        assert self.run_batched(checkpoint=path) == baseline
        assert recomputed == []

    def test_mid_cell_resume_reruns_only_missing_trials(self, tmp_path, row_hook):
        baseline = self.run_batched()
        path = str(tmp_path / "sweep.db")
        self.run_batched(checkpoint=path)
        # Keep trials 0 and 2 of every cell: the remaining trial set {1}
        # is non-contiguous with nothing, exercising the split-run path.
        edit_journal(path, "DELETE FROM journal_cells WHERE trial = 1")
        recomputed = []
        row_hook(recomputed.append)
        assert self.run_batched(checkpoint=path) == baseline
        assert sorted(sweepmod._cell_key(row) for row in recomputed) == [
            (0, "luby", 1),
            (1, "luby", 1),
        ]

    def test_grouped_failures_still_attribute_per_trial(self):
        def broken_factory(net):
            raise RuntimeError("factory exploded")

        result = self.run_batched(
            algorithms={"broken": (broken_factory, lambda net: problems.MIS)},
            on_error="record",
        )
        assert result == []
        assert len(result.failures) == 2 * 3  # values x trials
        trials = sorted(f.trial for f in result.failures if f.value == 8)
        assert trials == [0, 1, 2]
        assert all(f.kind == "exception:RuntimeError" for f in result.failures)
