"""Per-rule fixture tests: exact rule ids at exact line numbers.

Each fixture under ``fixtures/`` is self-describing: a ``# lint-fixture:``
header names the repo location the file pretends to live at (rules gate on
paths), and every violating line carries a trailing ``# expect[REPxxx]``
marker.  The test asserts the checker produces *exactly* the expected
``(line, rule)`` set — bad fixtures fire on every marked line, good
fixtures stay completely silent.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Set, Tuple

import pytest

from repro.lint.framework import LintRunner
from repro.lint.rules import DEFAULT_RULES, rule_by_id

FIXTURES = Path(__file__).parent / "fixtures"
_HEADER_RE = re.compile(r"#\s*lint-fixture:\s*(\S+)")
_EXPECT_RE = re.compile(r"#\s*expect\[(REP\d+)\]")


def load_fixture(path: Path) -> Tuple[str, Set[Tuple[int, str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = _HEADER_RE.search(lines[0])
    if header is None:
        raise AssertionError(f"{path.name} lacks a '# lint-fixture:' header")
    expected = {
        (lineno, match.group(1))
        for lineno, line in enumerate(lines, start=1)
        for match in _EXPECT_RE.finditer(line)
    }
    return header.group(1), expected


def lint_fixture(path: Path) -> Tuple[Set[Tuple[int, str]], Set[Tuple[int, str]]]:
    logical, expected = load_fixture(path)
    findings = LintRunner(list(DEFAULT_RULES)).lint_file(
        str(path), root=str(FIXTURES), logical_path=logical
    )
    return expected, {(finding.line, finding.rule) for finding in findings}


@pytest.mark.parametrize(
    "name", sorted(p.name for p in FIXTURES.glob("rep*_bad.py"))
)
def test_bad_fixture_fires_on_every_marked_line(name):
    expected, actual = lint_fixture(FIXTURES / name)
    assert expected, f"{name} marks no expected findings"
    assert actual == expected


@pytest.mark.parametrize(
    "name", sorted(p.name for p in FIXTURES.glob("rep*_good.py"))
)
def test_good_fixture_stays_silent(name):
    expected, actual = lint_fixture(FIXTURES / name)
    assert expected == set()
    assert actual == set()


def test_every_rule_has_a_bad_and_a_good_fixture():
    ids = {rule.id for rule in DEFAULT_RULES}
    for rule_id in ids:
        stem = rule_id.lower()
        assert (FIXTURES / f"{stem}_bad.py").exists()
        assert (FIXTURES / f"{stem}_good.py").exists()
    # ... and the bad fixtures collectively demonstrate exactly those rules.
    fired = set()
    for path in FIXTURES.glob("rep*_bad.py"):
        _, actual = lint_fixture(path)
        fired.update(rule for _, rule in actual)
    assert fired == ids


def test_rule_by_id_round_trip():
    for rule in DEFAULT_RULES:
        assert rule_by_id(rule.id) is rule
    with pytest.raises(KeyError):
        rule_by_id("REP999")


def test_rules_scope_by_path():
    # The same source is a violation on a hot-path module and silent off it.
    bad = FIXTURES / "rep002_bad.py"
    runner = LintRunner([rule_by_id("REP002")])
    on_hot_path = runner.lint_file(
        str(bad), root=str(FIXTURES), logical_path="src/repro/local/engine.py"
    )
    off_hot_path = runner.lint_file(
        str(bad), root=str(FIXTURES), logical_path="src/repro/analysis/tables.py"
    )
    assert on_hot_path and not off_hot_path


@pytest.mark.parametrize(
    "module",
    [
        "src/repro/local/faults.py",
        "src/repro/algorithms/selfstab.py",
        "src/repro/algorithms/mis/luby.py",
        "src/repro/algorithms/matching/randomized.py",
    ],
)
def test_per_round_fault_modules_are_hot_paths(module):
    # The fault views and the fault-mode kernels run once per round.
    bad = FIXTURES / "rep002_bad.py"
    runner = LintRunner([rule_by_id("REP002")])
    assert runner.lint_file(str(bad), root=str(FIXTURES), logical_path=module)
