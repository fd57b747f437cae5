"""Tests for the sqlite journal's single-writer claim.

Two concurrent sweeps pointed at one journal must not silently interleave
rows: the second writer finds the first's live process in the journal's
``writer_pid`` / ``writer_start`` and gets a clean ``CheckpointLocked``
error.  The claim is released on close and stolen from a process that no
longer exists — also when its pid now names a later process — so a
SIGKILLed writer never wedges the journal for the resuming retry.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import signal
import sqlite3
import sys

import pytest

from repro.algorithms.mis.luby import LubyMIS
from repro.core import problems
from repro.core.errors import CheckpointLocked, is_retryable
from repro.graphs import generators as gen

import repro.analysis.sweep  # noqa: F401  (loads the module into sys.modules)

sweepmod = sys.modules["repro.analysis.sweep"]
sweep = sweepmod.sweep


def luby_algorithms():
    return {"luby": (lambda net: LubyMIS(), lambda net: problems.MIS)}


def sweep_settings(**overrides):
    settings = dict(
        parameter="n",
        values=[8, 10],
        graph_factory=gen.cycle_edges,
        algorithms=luby_algorithms(),
        trials=2,
        seed=3,
    )
    settings.update(overrides)
    return settings


def sweep_spec(**overrides):
    """The internal spec dict `_Journal` validates its header against."""
    settings = sweep_settings(**overrides)
    return {
        "parameter": settings["parameter"],
        "values": settings["values"],
        "algorithms": settings["algorithms"],
        "trials": settings["trials"],
        "seed": settings["seed"],
        "engine": "node",  # sweep()'s default, so headers agree on resume
        "batch_budget": None,
    }


def writer(path, key="sweep"):
    """The journal's claim: ``(writer_pid, writer_start)``."""
    db = sqlite3.connect(path)
    try:
        return db.execute(
            "SELECT writer_pid, writer_start FROM journals WHERE key = ?", (key,)
        ).fetchone()
    finally:
        db.close()


def writer_pid(path, key="sweep"):
    return writer(path, key)[0]


def plant_claim(path, pid, started):
    db = sqlite3.connect(path)
    try:
        with db:
            db.execute(
                "UPDATE journals SET writer_pid = ?, writer_start = ?", (pid, started)
            )
    finally:
        db.close()


needs_procfs = pytest.mark.skipif(
    sweepmod._process_start(os.getpid()) is None,
    reason="process start times need /proc",
)


class TestExclusiveWriter:
    def test_second_writer_is_rejected(self, tmp_path):
        path = str(tmp_path / "journal.db")
        first = sweepmod._Journal(path, sweep_spec())
        try:
            with pytest.raises(CheckpointLocked, match="distinct checkpoint"):
                sweepmod._Journal(path, sweep_spec())
            assert writer_pid(path) == os.getpid()  # the refusal kept it
        finally:
            first.close()

    def test_closed_journal_reopens(self, tmp_path):
        path = str(tmp_path / "journal.db")
        sweepmod._Journal(path, sweep_spec()).close()
        assert writer_pid(path) is None
        second = sweepmod._Journal(path, sweep_spec())
        second.close()
        second.close()  # idempotent

    def test_journals_under_distinct_keys_do_not_conflict(self, tmp_path):
        path = str(tmp_path / "journal.db")
        first = sweepmod._Journal((path, "a"), sweep_spec())
        try:
            second = sweepmod._Journal((path, 7), sweep_spec(seed=4))
            second.close()
        finally:
            first.close()

    def test_concurrent_sweep_raises_cleanly(self, tmp_path):
        path = str(tmp_path / "journal.db")
        holder = sweepmod._Journal(path, sweep_spec())
        try:
            with pytest.raises(CheckpointLocked):
                sweep(**sweep_settings(), checkpoint=path)
        finally:
            holder.close()
        # The journal was not corrupted: the held journal still resumes.
        result = sweep(**sweep_settings(), checkpoint=path)
        assert result == sweep(**sweep_settings())

    def test_checkpoint_locked_is_retryable(self):
        # The service retries a locked journal (the holder may be a dying
        # predecessor whose pid is about to disappear).
        assert is_retryable(CheckpointLocked.kind)


def _hold_journal(path, ready, release):
    journal = sweepmod._Journal(path, sweep_spec())
    ready.set()
    release.wait(30)
    journal.close()


def _die_holding_journal(path):
    sweepmod._Journal(path, sweep_spec())
    os.kill(os.getpid(), signal.SIGKILL)


class TestPidClaim:
    def test_live_holder_in_another_process_is_rejected(self, tmp_path):
        path = str(tmp_path / "journal.db")
        ctx = multiprocessing.get_context("fork")
        ready, release = ctx.Event(), ctx.Event()
        holder = ctx.Process(target=_hold_journal, args=(path, ready, release))
        holder.start()
        try:
            assert ready.wait(30)
            with pytest.raises(CheckpointLocked, match=f"live writer pid {holder.pid}"):
                sweepmod._Journal(path, sweep_spec())
        finally:
            release.set()
            holder.join(30)
        assert holder.exitcode == 0
        sweepmod._Journal(path, sweep_spec()).close()

    def test_sigkilled_holder_claim_is_stolen(self, tmp_path):
        path = str(tmp_path / "journal.db")
        holder = multiprocessing.get_context("fork").Process(
            target=_die_holding_journal, args=(path,)
        )
        holder.start()
        holder.join(30)
        assert holder.exitcode == -signal.SIGKILL
        assert writer_pid(path) == holder.pid  # the dead writer's claim
        journal = sweepmod._Journal(path, sweep_spec())
        try:
            assert writer_pid(path) == os.getpid()
        finally:
            journal.close()

    @needs_procfs
    def test_claim_records_the_writer_start_time(self, tmp_path):
        path = str(tmp_path / "journal.db")
        journal = sweepmod._Journal(path, sweep_spec())
        try:
            assert writer(path) == (os.getpid(), sweepmod._process_start(os.getpid()))
        finally:
            journal.close()
        assert writer(path) == (None, None)

    @needs_procfs
    def test_claim_of_a_reused_pid_is_stolen(self, tmp_path):
        # The writer died and a later process (here: this one) got its pid.
        # The recorded start time tells them apart, so the claim is dead.
        path = str(tmp_path / "journal.db")
        sweepmod._Journal(path, sweep_spec()).close()
        started = sweepmod._process_start(os.getpid())
        plant_claim(path, os.getpid(), started - 1)
        journal = sweepmod._Journal(path, sweep_spec())
        try:
            assert writer(path) == (os.getpid(), started)
        finally:
            journal.close()

    @needs_procfs
    def test_claim_of_the_same_live_process_holds(self, tmp_path):
        path = str(tmp_path / "journal.db")
        sweepmod._Journal(path, sweep_spec()).close()
        plant_claim(path, os.getpid(), sweepmod._process_start(os.getpid()))
        with pytest.raises(CheckpointLocked):
            sweepmod._Journal(path, sweep_spec())


class TestPidAlive:
    def test_dead_pid(self):
        process = multiprocessing.get_context("fork").Process(target=os._exit, args=(0,))
        process.start()
        process.join()
        assert not sweepmod._pid_alive(process.pid)

    def test_live_pid_without_start_time(self):
        assert sweepmod._pid_alive(os.getpid())

    def test_start_time_is_field_22_past_any_command_name(self, monkeypatch):
        # The command name (field 2) may itself hold ") (" and spaces.
        fields = " ".join(str(field) for field in range(3, 53))
        stat = f"4242 (a) (b c) {fields}\n".encode()
        monkeypatch.setattr(
            sweepmod, "open", lambda path, mode: io.BytesIO(stat), raising=False
        )
        assert sweepmod._process_start(4242) == 22

    @needs_procfs
    def test_start_time_must_match(self):
        started = sweepmod._process_start(os.getpid())
        assert sweepmod._pid_alive(os.getpid(), started)
        assert not sweepmod._pid_alive(os.getpid(), started + 1)


class TestLockAndResume:
    def test_lock_does_not_break_interrupt_resume(self, tmp_path, monkeypatch):
        """Interrupt a journaled sweep, then resume under the claim."""
        path = str(tmp_path / "journal.db")

        class Stop(Exception):
            pass

        rows = []

        def hook(row):
            rows.append(row)
            if len(rows) == 2:
                raise Stop()

        monkeypatch.setattr(sweepmod, "_test_hook", hook)
        with pytest.raises(Stop):
            sweep(**sweep_settings(), checkpoint=path)
        monkeypatch.setattr(sweepmod, "_test_hook", None)
        resumed = sweep(**sweep_settings(), checkpoint=path)
        assert resumed == sweep(**sweep_settings())
