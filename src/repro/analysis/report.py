"""Plain-text table and series rendering for benchmark output.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output consistent and legible.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Tuple


def format_count(value: float) -> str:
    """Human-scale count formatting in the paper's style (1.3M, 45.5k)."""
    if value >= 1_000_000:
        return "%.1fM" % (value / 1_000_000)
    if value >= 1_000:
        return "%.1fk" % (value / 1_000)
    if isinstance(value, float) and not value.is_integer():
        return "%.2f" % value
    return "%d" % value


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width text table."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(
            "  ".join(cell.rjust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_series(
    name: str, points: Iterable[Tuple[float, float]], x_label: str, y_label: str
) -> str:
    """One figure series as aligned (x, y) pairs."""
    lines = ["%s  [%s -> %s]" % (name, x_label, y_label)]
    for x, y in points:
        lines.append("  %12g  %12g" % (x, y))
    return "\n".join(lines)


def render_cdf(
    series: Mapping[str, Sequence[Tuple[int, float]]], x_label: str
) -> str:
    """Several CDFs side by side, bins as rows."""
    names = list(series)
    bins = [edge for edge, _ in series[names[0]]] if names else []
    headers = [x_label] + names
    rows = []
    for index, edge in enumerate(bins):
        row = [edge] + ["%.3f" % series[name][index][1] for name in names]
        rows.append(row)
    return render_table(headers, rows)
