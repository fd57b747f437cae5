"""The single home of every versioned schema/format identifier.

Every on-disk or over-the-wire artifact this repo produces carries a
``name/vN`` schema string so readers can refuse payloads they don't speak:
the service's job language, sqlite store and graph-cache payload, the
resilient sweep's checkpoint journal, and the lint report.  Those strings
are *contracts* — a drifted literal silently breaks resume, store
validation, or a report reader without failing a unit test.

This module is therefore the only place in ``src/repro`` allowed to spell
a schema literal out; everything else imports the constant.  The rule is
machine-enforced by ``repro.lint`` rule **REP004** (see ``docs/lint.md``),
which flags any ``name/vN`` string constant elsewhere under ``src/repro``.

Bumping a version is a deliberate act: change it here, update the readers
and writers in the same commit, and document the migration in
``docs/service.md`` (service schemas), ``docs/seed-schedules.md`` (the
sweep journal) or ``docs/lint.md`` (the lint formats).
"""

from __future__ import annotations

from typing import Mapping

__all__ = [
    "SWEEP_SPEC",
    "RESULT_STORE",
    "SWEEP_CHECKPOINT",
    "SWEEP_CHECKPOINT_V2",
    "GRAPH_CACHE",
    "LINT_REPORT",
    "ALL_SCHEMAS",
]

#: Serialisable sweep-job language accepted by the experiment service
#: (:mod:`repro.service.specs`).
SWEEP_SPEC = "sweep-spec/v1"

#: Sqlite schema of the persistent result store
#: (:mod:`repro.service.store`).  v2: a job's cells live in its sweep
#: journal's tables; v1 kept a separate ``cells`` copy.
RESULT_STORE = "result-store/v2"

#: Sqlite journal of finished sweep cells (:mod:`repro.analysis.sweep`).
#: v3: completion times as uint16 BLOBs, or int64 for a row whose times do
#: not fit; a reader takes the item width from the BLOB length.  v2 stored
#: every row as int64 BLOBs (header and cell rows already in sqlite
#: tables); v1 was a JSON-lines file.
SWEEP_CHECKPOINT = "sweep-checkpoint/v3"

#: The previous journal format.  v3 readers read it, and a writer that
#: claims a v2 journal re-stamps its header as v3.
SWEEP_CHECKPOINT_V2 = "sweep-checkpoint/v2"

#: Payload layout of the result store's graph cache
#: (:mod:`repro.service.store`), named in every cache key
#: (:meth:`repro.service.specs.SweepSpec.graph_key`), so a reader never
#: meets a row of a layout it does not speak.  v2: the edge endpoint arrays
#: and the identifiers, int64, back to back; v1 put a CSR copy of the edges
#: (row pointers and neighbour lists) in front, and its keys named no
#: layout.
GRAPH_CACHE = "graph-cache/v2"

#: JSON report emitted by ``python -m repro.lint --format=json``
#: (:mod:`repro.lint.cli`).  v2: the rules and the findings; v1 also
#: carried a ``baselined`` count and ``expired`` entries, from a
#: grandfathered-findings file the checker no longer reads.
LINT_REPORT = "lint-report/v2"

#: Every schema identifier this code base speaks, keyed by a short slug.
ALL_SCHEMAS: Mapping[str, str] = {
    "sweep_spec": SWEEP_SPEC,
    "result_store": RESULT_STORE,
    "sweep_checkpoint": SWEEP_CHECKPOINT,
    "sweep_checkpoint_v2": SWEEP_CHECKPOINT_V2,
    "graph_cache": GRAPH_CACHE,
    "lint_report": LINT_REPORT,
}
