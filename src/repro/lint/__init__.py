"""``repro.lint`` — AST-based invariant checker for this repository.

The reproduction's correctness rests on contracts that ordinary tests
cannot see: the exact/relaxed/batch-invariant seed-schedule stories, the
"no per-node Python phase" hot-path rule, engine fault-event parity, and
the versioned schema strings that gate resume and store validation.  One
unseeded RNG or one ``to_networkx()`` in an engine kernel breaks
bit-identity without failing a single tier-1 test.  This package turns
those prose invariants (ROADMAP's standing-invariants item,
``docs/seed-schedules.md``) into machine-checked rules over the Python
AST.

Usage::

    python -m repro.lint                         # lint src/repro, text report
    python -m repro.lint --format=json path/...  # structured report

Rules (see ``docs/lint.md`` for the invariant each one encodes):

========  ==============================================================
REP001    determinism — no unseeded randomness or wall-clock reads in
          ``src/repro/{local,algorithms,graphs,core}``
REP002    hot-path purity — no ``to_networkx``/tuple-edge
          materialisation/per-edge Python loops in hot-path modules
REP003    array-algorithm protocol conformance
          (``init_batch``/``step_batch``/``batch_complete``, all or none)
REP004    schema literals live only in :mod:`repro.core.schemas`
REP005    resource hygiene — sqlite/SharedMemory/file handles closed
          and unlinked on all paths in ``src/repro/{service,analysis}``
REP006    error taxonomy — no ``raise Exception``/``assert`` for runtime
          failures; use :mod:`repro.core.errors` kinds
REP007    buffered ``out=`` — no ``compress(out=)`` or ``take(out=)``
          outside ``mode="clip"``/``"wrap"`` in hot-path modules
========  ==============================================================

A finding is suppressed only by a trailing (or immediately preceding)
comment ``# repro-lint: allow[REP00X] <why>``, which carries its reason at
the line it excuses — the sanctioned escape hatch for documented
exceptions such as the block-PCG64 helpers and the networkx reference
validators.  Any other finding fails the run.

Dependency discipline mirrors ``repro.service``: standard library
(``ast``, ``json``, ``argparse``) plus repo modules only.
"""

from __future__ import annotations

from repro.lint.findings import Finding
from repro.lint.framework import LintRunner, ModuleSource, Rule, lint_paths
from repro.lint.rules import DEFAULT_RULES, rule_by_id

__all__ = [
    "Finding",
    "LintRunner",
    "ModuleSource",
    "Rule",
    "lint_paths",
    "DEFAULT_RULES",
    "rule_by_id",
]
