"""Plain-text table rendering for benchmark output.

The benchmark harness prints the same rows/series the paper's theorems talk
about; this module renders them as aligned plain-text tables so that
``pytest benchmarks/ --benchmark-only`` output (the experiments
``benchmarks/README.md`` lists) stays readable without any plotting
dependency.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = ["format_table", "format_sweep"]


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dictionaries as an aligned text table.

    Args:
        rows: the table rows.
        columns: column order (defaults to the keys of the first row).
        title: optional heading printed above the table.

    Returns:
        The formatted table as a single string.
    """
    if not rows:
        return (title + "\n") if title else ""
    columns = list(columns) if columns is not None else list(rows[0].keys())
    rendered_rows = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), max(len(cells[i]) for cells in rendered_rows))
        for i, col in enumerate(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * widths[i] for i in range(len(columns))))
    for cells in rendered_rows:
        lines.append("  ".join(cells[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def format_sweep(points: Iterable, title: Optional[str] = None) -> str:
    """Render a list of :class:`repro.analysis.sweep.SweepPoint` objects."""
    rows = [point.as_row() for point in points]
    columns = [
        "parameter",
        "value",
        "algorithm",
        "n",
        "m",
        "node_averaged",
        "edge_averaged",
        "node_expected",
        "worst_case",
    ]
    return format_table(rows, columns=columns, title=title)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
