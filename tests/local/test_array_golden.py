"""Golden trace digests for the array engine's Luby MIS and matching twins.

Every execution below is reduced to the payload of
``tests/local/test_selfstab_golden.py`` (commit rounds and values, rounds,
messages, ``fault_events``, ``crashed``) and the payloads of one
configuration are hashed together.  The constants pin the documented seed
schedules of :class:`LubyMISArray` and :class:`RandomizedMatchingArray` on
the six golden graphs:

* fault-free through :meth:`ArrayEngine.run`, one seed per graph;
* fault-free through :meth:`ArrayEngine.run_batch`, eight seeds per graph,
  whole and forced into chunks of three (both give the one ``batch``
  digest);
* under each of the five golden fault schedules through ``run``.  Luby
  under delays can meet a cross-phase straggler and raise ``TypeError``
  (the documented structured failure); that outcome is pinned as well.
"""

from __future__ import annotations

import sys

import pytest

from repro.algorithms.matching.randomized import RandomizedMatchingArray
from repro.algorithms.mis.luby import LubyMISArray
from repro.core import problems
from repro.local.engine import ArrayEngine

from test_selfstab_golden import (
    GRAPHS,
    MAX_ROUNDS,
    SCHEDULES,
    digest_of,
    graph,
    trace_payload,
)

engine_module = sys.modules["repro.local.engine"]

TWINS = {
    "luby": (LubyMISArray, problems.MIS),
    "matching": (RandomizedMatchingArray, problems.MAXIMAL_MATCHING),
}


def batch_seeds(seed: int) -> list:
    return [seed + 100 * k for k in range(8)]


#: sha256 (first 16 hex digits) over the six graphs' trace payloads.
GOLDEN = {
    ("luby", "batch"): "7cf4cf2c87f596b1",
    ("luby", "late-wave"): "35519a063e1f3852",
    ("luby", "run"): "35519a063e1f3852",
    ("luby", "single-round-1"): "84e5ba2146c2f339",
    ("luby", "waves"): "cd626f81c77651d2",
    ("luby", "waves-delay"): "d124401a1005a70b",
    ("luby", "waves-drop"): "832d4ce285873c47",
    ("matching", "batch"): "7d77b8b550ada57f",
    ("matching", "late-wave"): "a2c64b1b7fcab3cc",
    ("matching", "run"): "558f0280c2fb86bd",
    ("matching", "single-round-1"): "2da0428b92fa49d8",
    ("matching", "waves"): "6f26944af5454830",
    ("matching", "waves-delay"): "57ff5eadeb144e7e",
    ("matching", "waves-drop"): "7763da7f4141fd99",
}


def engine() -> ArrayEngine:
    return ArrayEngine(max_rounds=MAX_ROUNDS, strict=False)


def run_digest(twin: str) -> str:
    algorithm, problem = TWINS[twin]
    return digest_of(
        [
            trace_payload(engine().run(algorithm(), graph(seed, n), problem, seed=seed))
            for seed, n in GRAPHS
        ]
    )


def batch_digest(twin: str) -> str:
    algorithm, problem = TWINS[twin]
    payloads = []
    for seed, n in GRAPHS:
        traces = engine().run_batch(algorithm(), graph(seed, n), problem, batch_seeds(seed))
        payloads.extend(trace_payload(trace) for trace in traces)
    return digest_of(payloads)


def faulted_digest(twin: str, schedule: str) -> str:
    algorithm, problem = TWINS[twin]
    payloads = []
    for seed, n in GRAPHS:
        try:
            trace = engine().run(
                algorithm(),
                graph(seed, n),
                problem,
                seed=seed,
                faults=SCHEDULES[schedule](n, seed),
            )
        except TypeError as exc:
            payloads.append({"error": str(exc)})
            continue
        payloads.append(trace_payload(trace))
    return digest_of(payloads)


@pytest.mark.parametrize("twin", sorted(TWINS))
def test_single_trial_digest_is_pinned(twin):
    assert run_digest(twin) == GOLDEN[twin, "run"]


@pytest.mark.parametrize("twin", sorted(TWINS))
def test_batch_digest_is_pinned(twin):
    assert batch_digest(twin) == GOLDEN[twin, "batch"]


@pytest.mark.parametrize("twin", sorted(TWINS))
def test_chunked_batch_digest_is_pinned(twin, monkeypatch):
    monkeypatch.setattr(engine_module, "batch_chunk", lambda *a, **k: 3)
    assert batch_digest(twin) == GOLDEN[twin, "batch"]


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("twin", sorted(TWINS))
def test_faulted_digest_is_pinned(twin, schedule):
    assert faulted_digest(twin, schedule) == GOLDEN[twin, schedule]
