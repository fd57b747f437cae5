"""Golden trace digests for the self-stabilising fault path.

Every faulted self-stabilising execution below is reduced to a sha256 digest
over everything a run records: per-node and per-edge commit rounds and
values, ``rounds``, ``total_messages``, the recovery timeline
(``crash_rounds`` / ``pending`` / ``valid``), ``fault_events`` and
``crashed``.  The constants were computed before the quiescent-round exit,
the live-edge kernel, the recovery memo and the crash-epoch view cache
existed, so they are the oracle those optimisations answer to: each of them
must leave every digest unchanged.

Coverage: :class:`SelfStabilizingLubyMISArray` on the array engine and
:class:`SelfStabilizingLubyMIS` / :class:`SelfStabilizingMatching` on the
coroutine runner, each over six small G(n, p) graphs (built from endpoint
arrays and from edge lists) and five schedules — three crash waves; the
waves with 10 % drops; the waves with 10 % delays; a single crash at round
1; one wave landing long after convergence (many quiescent rounds before
it).  Matching under drops
or delays can end in a :class:`~repro.local.node.CommitError` (an accept
lost in flight leaves one endpoint matched; recovery is only claimed for
crash schedules), and that outcome is pinned as well.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Dict, Tuple

import pytest

from repro.algorithms.selfstab import (
    SelfStabilizingLubyMIS,
    SelfStabilizingLubyMISArray,
    SelfStabilizingMatching,
)
from repro.core import problems
from repro.graphs import generators as gen
from repro.local.engine import ArrayEngine
from repro.local.faults import FaultSchedule
from repro.local.network import Network
from repro.local.node import CommitError
from repro.local.runner import Runner

#: (seed, n): six small G(n, p) graphs, expected degree 4.
GRAPHS = ((1, 30), (2, 60), (3, 100), (4, 150), (5, 200), (6, 120))

MAX_ROUNDS = 400


def graph(seed: int, n: int) -> Network:
    """Odd seeds build on ``fast_gnp_edges``, even seeds on ``erdos_renyi_edges``."""
    if seed % 2:
        return Network.from_edge_arrays(gen.fast_gnp_edges(n, 4.0 / (n - 1), seed=seed))
    return Network.from_edge_arrays(gen.erdos_renyi_edges(n, 4.0, seed=seed))


def waves(n: int, seed: int, rounds: Tuple[int, ...]) -> Dict[int, int]:
    """``max(3, n // 10)`` distinct victims, dealt round-robin over ``rounds``."""
    victims = random.Random(seed).sample(range(n), max(3, n // 10))
    return {v: rounds[i % len(rounds)] for i, v in enumerate(victims)}


SCHEDULES: Dict[str, Callable[[int, int], FaultSchedule]] = {
    "waves": lambda n, seed: FaultSchedule(crashes=waves(n, seed, (2, 6, 11)), seed=seed),
    "waves-drop": lambda n, seed: FaultSchedule(
        crashes=waves(n, seed, (2, 6, 11)), drop_rate=0.1, seed=seed
    ),
    "waves-delay": lambda n, seed: FaultSchedule(
        crashes=waves(n, seed, (2, 6, 11)), delay_rate=0.1, seed=seed
    ),
    "single-round-1": lambda n, seed: FaultSchedule(
        crashes={random.Random(seed).randrange(n): 1}, seed=seed
    ),
    "late-wave": lambda n, seed: FaultSchedule(crashes=waves(n, seed, (90,)), seed=seed),
}

RUNS = {
    "array-selfstab-mis": lambda: (
        ArrayEngine(max_rounds=MAX_ROUNDS, strict=False),
        SelfStabilizingLubyMISArray(),
        problems.MIS,
    ),
    "runner-selfstab-mis": lambda: (
        Runner(max_rounds=MAX_ROUNDS, strict=False),
        SelfStabilizingLubyMIS(),
        problems.MIS,
    ),
    "runner-selfstab-matching": lambda: (
        Runner(max_rounds=MAX_ROUNDS, strict=False),
        SelfStabilizingMatching(),
        problems.MAXIMAL_MATCHING,
    ),
}

#: sha256 (first 16 hex digits) over the six graphs' trace payloads.
GOLDEN = {
    ("array-selfstab-mis", "late-wave"): "2fac2c570c1ceb05",
    ("array-selfstab-mis", "single-round-1"): "784e4e88e40d9b42",
    ("array-selfstab-mis", "waves"): "fea2e91f744d4ac1",
    ("array-selfstab-mis", "waves-delay"): "68a59b369b542387",
    ("array-selfstab-mis", "waves-drop"): "77953553c7a87fe1",
    ("runner-selfstab-matching", "late-wave"): "52a99c57f7e01c39",
    ("runner-selfstab-matching", "single-round-1"): "194847820eddadbe",
    ("runner-selfstab-matching", "waves"): "c32d9331cb62fc08",
    ("runner-selfstab-matching", "waves-delay"): "23c57841444534fa",
    ("runner-selfstab-matching", "waves-drop"): "d91de61b00ccc3dd",
    ("runner-selfstab-mis", "late-wave"): "3318e70b4fd2a58f",
    ("runner-selfstab-mis", "single-round-1"): "823ba4ac7cf6174e",
    ("runner-selfstab-mis", "waves"): "3323bd11a3fce018",
    ("runner-selfstab-mis", "waves-delay"): "37105d5f3fc98960",
    ("runner-selfstab-mis", "waves-drop"): "ee1dc2e556c78abe",
}


def trace_payload(trace) -> dict:
    """Everything a run records; the recovery fields only when it has a timeline."""
    payload = {
        "node_rounds": trace.node_commit_rounds().tolist(),
        "edge_rounds": trace.edge_commit_rounds().tolist(),
        "node_values": sorted(trace.node_outputs.items()),
        "edge_values": sorted(
            [u, v, value] for (u, v), value in trace.edge_outputs.items()
        ),
        "rounds": trace.rounds,
        "completed": trace.completed,
        "total_messages": trace.total_messages,
        "fault_events": [list(event) for event in trace.fault_events],
        "crashed": list(trace.crashed),
    }
    recovery = trace.recovery
    if recovery is not None:
        payload["crash_rounds"] = list(recovery.crash_rounds)
        payload["pending"] = list(recovery.pending)
        payload["valid"] = list(recovery.valid)
    return payload


def digest_of(payloads: list) -> str:
    """sha256 (first 16 hex digits) of the payloads' canonical JSON."""
    text = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(run: str, schedule: str) -> str:
    payloads = []
    for seed, n in GRAPHS:
        engine, algorithm, problem = RUNS[run]()
        try:
            trace = engine.run(
                algorithm,
                graph(seed, n),
                problem,
                seed=seed,
                faults=SCHEDULES[schedule](n, seed),
            )
        except CommitError as exc:
            payloads.append({"error": str(exc)})
            continue
        payloads.append(trace_payload(trace))
    return digest_of(payloads)


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("run", sorted(RUNS))
def test_trace_digest_is_pinned(run, schedule):
    assert digest(run, schedule) == GOLDEN[run, schedule]
