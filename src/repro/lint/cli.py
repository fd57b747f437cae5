"""Command-line front end: ``python -m repro.lint``.

Exit status: 0 when there is no finding, 1 on any finding, 2 on usage
errors.  A finding is suppressed only by an inline
``# repro-lint: allow[REP00X] <why>`` comment at the line it excuses.

The JSON report (``--format=json``) has format
:data:`repro.core.schemas.LINT_REPORT`::

    {
      "format": "lint-report/v2",
      "rules": {"REP001": "<title>", ...},
      "findings": [{rule, path, line, col, message, snippet}, ...]
    }
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.core import schemas
from repro.lint.framework import lint_paths
from repro.lint.rules import DEFAULT_RULES

__all__ = ["main", "build_parser"]

DEFAULT_PATHS = ("src/repro",)


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

    if args.format == "json":
        report = {
            "format": schemas.LINT_REPORT,
            "rules": {rule.id: rule.title for rule in rules},
            "findings": [finding.to_row() for finding in findings],
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
        print(f"{len(findings)} finding(s)", file=sys.stderr)

    return 1 if findings else 0
