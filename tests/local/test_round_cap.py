"""Regression tests for the unified ``strict=False`` round-cap contract.

Both engines must expose the *same* partial-trace semantics when an
execution is cut off at ``max_rounds``:

* ``completed`` is ``False`` and ``rounds`` equals the cap (the loop runs to
  the cap; it never exits early on an empty active set),
* the raw commit-round arrays are exactly the full run's commits restricted
  to rounds ``<= cap``, with uncommitted slots marked ``-1``,
* the censored completion times clamp uncommitted slots to ``rounds``,
* the output dicts omit uncommitted slots (never placeholder values),
* ``strict=True`` raises the shared :class:`repro.core.errors.
  RoundLimitExceeded` — one class, re-exported by ``repro.local.runner``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.matching.randomized import RandomizedMaximalMatching
from repro.algorithms.mis.luby import LubyMIS
from repro.core import problems
from repro.core.errors import RoundLimitExceeded
from repro.graphs import generators as gen
from repro.local import runner as runner_module
from repro.local.engine import ArrayEngine
from repro.local.network import Network
from repro.local.runner import Runner

CAPS = (0, 1, 2, 3, 4, 7, 8)


def cycle12() -> Network:
    return Network.from_edge_arrays(gen.cycle_edges(12), id_scheme="permuted")


CASES = [
    ("luby", LubyMIS, problems.MIS),
    ("matching", RandomizedMaximalMatching, problems.MAXIMAL_MATCHING),
]


def commit_rounds(trace, problem) -> np.ndarray:
    raw = (
        trace.node_commit_rounds()
        if problem.labels_nodes
        else trace.edge_commit_rounds()
    )
    return np.frombuffer(raw, dtype=np.int64)


def completion_times(trace, problem):
    return (
        trace.node_completion_times()
        if problem.labels_nodes
        else trace.edge_completion_times()
    )


def outputs(trace, problem):
    return trace.node_outputs if problem.labels_nodes else trace.edge_outputs


def slot_keys(network, problem):
    return list(range(network.n)) if problem.labels_nodes else list(network.edges)


def engines_for(algorithm_factory, strict, cap):
    """(run callable, engine label) pairs covering both engines."""
    runner = Runner(strict=strict, max_rounds=cap)
    engine = ArrayEngine(strict=strict, max_rounds=cap)
    return [
        (lambda net, problem, seed: runner.run(algorithm_factory(), net, problem, seed=seed), "runner"),
        (
            lambda net, problem, seed: engine.run(
                algorithm_factory().as_array_algorithm(), net, problem, seed=seed
            ),
            "array",
        ),
    ]


class TestPartialTraces:
    @pytest.mark.parametrize("label,factory,problem", CASES, ids=[c[0] for c in CASES])
    def test_capped_traces_are_prefixes_of_the_full_run(self, label, factory, problem):
        net = cycle12()
        full = {
            "runner": Runner(max_rounds=20_000).run(factory(), net, problem, seed=5),
            "array": ArrayEngine(max_rounds=20_000).run(
                factory().as_array_algorithm(), net, problem, seed=5
            ),
        }
        for cap in CAPS:
            for run, engine in engines_for(factory, strict=False, cap=cap):
                trace = run(net, problem, 5)
                reference = commit_rounds(full[engine], problem)
                partial = commit_rounds(trace, problem)
                finished = cap >= full[engine].rounds
                assert trace.completed == finished
                assert trace.rounds == (full[engine].rounds if finished else cap)
                # Raw commit rounds: the full run's commits at rounds <= cap,
                # -1 everywhere else — identical rule on both engines.
                expected = np.where(
                    (reference >= 0) & (reference <= cap), reference, -1
                )
                assert (partial == expected).all(), (engine, cap)
                # Censored completion times clamp uncommitted slots to
                # `rounds` (the standard censoring convention of the
                # measurement layer).
                times = completion_times(trace, problem)
                assert times == [
                    int(r) if r >= 0 else trace.rounds for r in partial
                ], (engine, cap)
                # Output dicts omit exactly the uncommitted slots.
                out = outputs(trace, problem)
                keys = slot_keys(net, problem)
                assert set(out) == {
                    key for key, r in zip(keys, partial) if r >= 0
                }, (engine, cap)
                full_out = outputs(full[engine], problem)
                assert all(full_out[key] == value for key, value in out.items())

    @pytest.mark.parametrize("label,factory,problem", CASES, ids=[c[0] for c in CASES])
    def test_cap_zero_commits_nothing_on_a_cycle(self, label, factory, problem):
        net = cycle12()
        for run, engine in engines_for(factory, strict=False, cap=0):
            trace = run(net, problem, 5)
            assert not trace.completed
            assert trace.rounds == 0
            assert outputs(trace, problem) == {}
            assert (commit_rounds(trace, problem) == -1).all()


class TestStrictMode:
    def test_round_limit_exceeded_is_one_shared_class(self):
        assert runner_module.RoundLimitExceeded is RoundLimitExceeded

    @pytest.mark.parametrize("label,factory,problem", CASES, ids=[c[0] for c in CASES])
    def test_both_engines_raise_the_shared_class(self, label, factory, problem):
        net = cycle12()
        for run, engine in engines_for(factory, strict=True, cap=2):
            with pytest.raises(RoundLimitExceeded, match="did not finish"):
                run(net, problem, 5)
