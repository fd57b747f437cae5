"""Shared fixture for the experiment regenerations.

Every benchmark regenerates one experiment of the table in
``benchmarks/README.md`` (one theorem, figure, or construction of the
paper), prints the measured rows as a table, and asserts the qualitative
*shape* the paper predicts (who wins, what stays flat, what grows).  The
pytest-benchmark fixture times a single run of each
experiment (``pedantic`` with one round) so ``--benchmark-only`` produces a
timing table without multiplying the workload.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def run_experiment(benchmark):
    """Run an experiment callable exactly once under pytest-benchmark timing."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
