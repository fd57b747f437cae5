"""Meta-tests: the checker is clean on the live tree, schemas can't drift.

Marked ``lint_smoke`` so CI (and ``pytest -m lint_smoke``) can run exactly
this guard; it also runs in the plain tier-1 suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.sweep import CHECKPOINT_FORMAT
from repro.core import schemas
from repro.lint.framework import lint_paths
from repro.lint.rules import DEFAULT_RULES
from repro.service.specs import SPEC_FORMAT
from repro.service.store import RESULT_STORE_SCHEMA

REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.lint_smoke


def test_live_tree_is_clean():
    findings = lint_paths(["src/repro"], str(REPO_ROOT), list(DEFAULT_RULES))
    assert findings == [], "lint findings:\n" + "\n".join(
        finding.render() for finding in findings
    )


def test_module_entry_point_is_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--format=json"],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_schema_strings_resolve_to_the_constants_module():
    # The writers' module-level identifiers ARE the schemas constants, so
    # readers, writers, docs pointers and the store can never drift apart.
    assert SPEC_FORMAT is schemas.SWEEP_SPEC
    assert RESULT_STORE_SCHEMA is schemas.RESULT_STORE
    assert CHECKPOINT_FORMAT is schemas.SWEEP_CHECKPOINT
    for slug, value in schemas.ALL_SCHEMAS.items():
        name, _, version = value.partition("/v")
        assert name and version.isdigit(), (slug, value)
