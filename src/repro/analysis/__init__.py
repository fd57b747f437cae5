"""Experiment sweeps and table rendering for the benchmark harness."""

from repro.analysis.sweep import (
    CellFailure,
    SweepPoint,
    SweepResult,
    sweep,
)
from repro.analysis.tables import format_sweep, format_table

__all__ = [
    "sweep",
    "SweepPoint",
    "SweepResult",
    "CellFailure",
    "format_table",
    "format_sweep",
]
