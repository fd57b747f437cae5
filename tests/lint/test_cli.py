"""CLI contract: exit codes, JSON report schema, rule selection."""

from __future__ import annotations

import json

import pytest

from repro.core import schemas
from repro.lint.cli import main
from repro.lint.rules import DEFAULT_RULES

VIOLATION = "def f(x):\n    assert x\n    return x\n"
CLEAN = "def f(x):\n    return x\n"


@pytest.fixture
def repo(tmp_path):
    """A miniature repo root with one (violating) module under src/repro."""
    module_dir = tmp_path / "src" / "repro" / "core"
    module_dir.mkdir(parents=True)
    (module_dir / "mod.py").write_text(VIOLATION, encoding="utf-8")
    return tmp_path


def run(repo, *argv):
    return main(["--root", str(repo), *argv])


class TestExitCodes:
    def test_findings_exit_1(self, repo):
        assert run(repo) == 1

    def test_clean_tree_exits_0(self, repo):
        (repo / "src" / "repro" / "core" / "mod.py").write_text(CLEAN)
        assert run(repo) == 0

    def test_inline_allow_comment_suppresses_the_finding(self, repo, capsys):
        # The one suppression mechanism: the reason sits at the excused line.
        (repo / "src" / "repro" / "core" / "mod.py").write_text(
            "def f(x):\n"
            "    assert x  # repro-lint: allow[REP006] checked by the caller\n"
            "    return x\n"
        )
        assert run(repo, "--format=json") == 0
        assert json.loads(capsys.readouterr().out)["findings"] == []

    def test_unknown_rule_id_is_a_usage_error(self, repo):
        with pytest.raises(SystemExit) as excinfo:
            run(repo, "--rules", "REP999")
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flag", ["--baseline", "--write-baseline", "--strict-baseline"]
    )
    def test_baseline_flags_are_usage_errors(self, repo, flag):
        # No file of grandfathered findings exists to read or write.
        with pytest.raises(SystemExit) as excinfo:
            run(repo, flag)
        assert excinfo.value.code == 2
        assert not (repo / "lint-baseline.json").exists()


class TestJsonReport:
    def read_report(self, capsys):
        return json.loads(capsys.readouterr().out)

    def test_schema_and_finding_rows(self, repo, capsys):
        assert run(repo, "--format=json") == 1
        report = self.read_report(capsys)
        assert report["format"] == schemas.LINT_REPORT
        assert report["format"] == "lint-report/v2"
        assert set(report) == {"format", "rules", "findings"}
        assert set(report["rules"]) == {rule.id for rule in DEFAULT_RULES}
        (row,) = report["findings"]
        assert set(row) == {"rule", "path", "line", "col", "message", "snippet"}
        assert row["rule"] == "REP006"
        assert row["path"] == "src/repro/core/mod.py"
        assert row["line"] == 2
        assert row["snippet"] == "assert x"


class TestSelection:
    def test_rules_filter(self, repo):
        assert run(repo, "--rules", "REP001") == 0  # REP006 not selected
        assert run(repo, "--rules", "REP006,REP001") == 1

    def test_list_rules(self, repo, capsys):
        assert run(repo, "--list-rules") == 0
        out = capsys.readouterr().out
        for rule in DEFAULT_RULES:
            assert rule.id in out

    def test_explicit_paths(self, repo):
        clean_dir = repo / "src" / "repro" / "graphs"
        clean_dir.mkdir()
        (clean_dir / "ok.py").write_text(CLEAN, encoding="utf-8")
        assert run(repo, "src/repro/graphs") == 0
        assert run(repo, "src/repro/core") == 1
