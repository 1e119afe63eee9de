"""Plain-text table/series rendering for experiment output.

``python -m repro experiment`` and ``misscurve`` and the examples print
their rows through :func:`rows_to_table`, so every table has one format.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

__all__ = ["format_table", "format_series", "rows_to_table"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str = "") -> str:
    """Render an aligned ASCII table."""
    srows = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out: List[str] = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in srows:
        out.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def rows_to_table(rows: Sequence[Dict[str, Any]], title: str = "") -> str:
    """Render a list of uniform dicts as a table (keys of the first row)."""
    if not rows:
        return title + "\n(no rows)" if title else "(no rows)"
    headers = list(rows[0].keys())
    return format_table(headers, [[r.get(h, "") for h in headers] for r in rows], title=title)


def format_series(name: str, xs: Sequence[Any], ys: Sequence[Any]) -> str:
    """Render an (x, y) series as `name: x->y` pairs, one per line."""
    lines = [f"series {name}:"]
    for x, y in zip(xs, ys):
        lines.append(f"  {_fmt(x)} -> {_fmt(y)}")
    return "\n".join(lines)
