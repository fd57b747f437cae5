"""Structured finding rows produced by the checker.

A :class:`Finding` is one rule violation at one source location.  Findings
are the interchange between the framework, the baseline, and both report
formats, so their JSON shape is part of the ``lint-report/v1`` contract
(:data:`repro.core.schemas.LINT_REPORT`).

Baseline matching deliberately keys on the *stripped source line text*
(:attr:`Finding.snippet`) rather than the line number: grandfathered
findings survive unrelated edits above them, and a baseline entry expires
exactly when the offending line itself changes or disappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

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
    #: The offending physical line, stripped — the baseline match key.
    snippet: str = ""

    def key(self) -> Tuple[str, str, str]:
        """Identity used for baseline matching (line numbers may drift)."""
        return (self.rule, self.path, self.snippet)

    def to_row(self) -> Dict[str, object]:
        """The JSON row shape of the ``lint-report/v1`` / baseline formats."""
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
