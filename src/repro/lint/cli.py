"""Command-line front end: ``python -m repro.lint``.

Exit status: 0 when every finding is baselined (or none exist), 1 when new
findings remain, 2 on usage errors.  ``--strict-baseline`` also fails the
run (exit 1) when baseline entries expired — the committed file must then
be pruned (``--write-baseline`` regenerates it from the live findings).

The JSON report (``--format=json``) has format
:data:`repro.core.schemas.LINT_REPORT`::

    {
      "format": "lint-report/v1",
      "rules": {"REP001": "<title>", ...},
      "findings": [{rule, path, line, col, message, snippet}, ...],
      "baselined": <int>,
      "expired": [{rule, path, line, snippet, justification}, ...]
    }
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.core import schemas
from repro.lint.baseline import Baseline
from repro.lint.framework import lint_paths
from repro.lint.rules import DEFAULT_RULES

__all__ = ["main", "build_parser"]

DEFAULT_PATHS = ("src/repro",)
DEFAULT_BASELINE = "lint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant checker for this repository "
        "(rules REP001-REP007; see docs/lint.md).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files/directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root paths are resolved against (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="FILE",
        help="grandfathered-findings file (bare flag: lint-baseline.json)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings and exit 0",
    )
    parser.add_argument(
        "--strict-baseline",
        action="store_true",
        help="fail when baseline entries no longer match anything",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule suite and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    rules = list(DEFAULT_RULES)
    if args.rules:
        wanted = {rule_id.strip() for rule_id in args.rules.split(",")}
        unknown = wanted - {rule.id for rule in rules}
        if unknown:
            parser.error(f"unknown rule ids: {', '.join(sorted(unknown))}")
        rules = [rule for rule in rules if rule.id in wanted]

    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}  {rule.title}")
        return 0

    root = os.path.abspath(args.root)
    findings = lint_paths(args.paths, root, rules)

    baseline_path = args.baseline
    if args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE
        target = target if os.path.isabs(target) else os.path.join(root, target)
        Baseline.from_findings(
            findings, justification="grandfathered by --write-baseline"
        ).save(target)
        print(f"wrote {len(findings)} baseline entries to {target}")
        return 0

    baselined = 0
    expired: List = []
    if baseline_path is not None:
        resolved = (
            baseline_path
            if os.path.isabs(baseline_path)
            else os.path.join(root, baseline_path)
        )
        try:
            baseline = Baseline.load(resolved)
        except FileNotFoundError:
            parser.error(f"baseline file not found: {resolved}")
        except ValueError as error:
            parser.error(str(error))
        findings, baselined, expired = baseline.apply(findings)

    if args.format == "json":
        report = {
            "format": schemas.LINT_REPORT,
            "rules": {rule.id: rule.title for rule in rules},
            "findings": [finding.to_row() for finding in findings],
            "baselined": baselined,
            "expired": [entry.to_row() for entry in expired],
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
        for entry in expired:
            print(
                f"{entry.path}: stale baseline entry for {entry.rule} "
                f"({entry.snippet!r} no longer matches; prune it)",
                file=sys.stderr,
            )
        summary = (
            f"{len(findings)} finding(s), {baselined} baselined, "
            f"{len(expired)} stale baseline entr{'y' if len(expired) == 1 else 'ies'}"
        )
        print(summary, file=sys.stderr)

    if findings:
        return 1
    if expired and args.strict_baseline:
        return 1
    return 0
