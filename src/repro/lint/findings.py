"""Structured finding rows produced by the checker.

A :class:`Finding` is one rule violation at one source location.  Findings
are the interchange between the framework and both report formats, so
their JSON shape is part of the ``lint-report/v2`` contract
(:data:`repro.core.schemas.LINT_REPORT`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    #: Repo-relative POSIX path of the offending file.
    path: str
    #: 1-indexed line of the offending node.
    line: int
    #: 0-indexed column of the offending node.
    col: int
    #: Rule identifier (``REP001`` … ``REP007``).
    rule: str
    #: Human-readable statement of the violation (one sentence).
    message: str
    #: The offending physical line, stripped.
    snippet: str = ""

    def to_row(self) -> Dict[str, object]:
        """The JSON row shape of the ``lint-report/v2`` format."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        """The one-line text-format rendering (``path:line:col: RULE message``)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
