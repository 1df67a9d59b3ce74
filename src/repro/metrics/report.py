"""Plain-text rendering of experiment results.

``python -m repro figures`` prints its figures as ASCII tables and
charts so the output reads like the paper's evaluation section.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.metrics.series import TimeSeries


def format_number(value: float) -> str:
    """Compact human formatting: ints plain, floats to 2–3 significants."""
    if isinstance(value, bool):
        return str(value)
    if float(value).is_integer():
        return f"{int(value):,}"
    if abs(value) >= 100:
        return f"{value:,.1f}"
    if abs(value) >= 1:
        return f"{value:,.2f}"
    return f"{value:.4f}"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a fixed-width table with a header rule."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append(
            [
                format_number(c) if isinstance(c, (int, float)) else str(c)
                for c in row
            ]
        )
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_ascii_chart(
    series_by_label: Dict[str, TimeSeries],
    n_buckets: int = 12,
    width: int = 40,
    title: str = "",
) -> str:
    """Render several series as rows of horizontal bars over time buckets.

    Each series is averaged inside ``n_buckets`` equal time buckets; the
    bar length is proportional to the bucket mean relative to the global
    maximum, so relative magnitudes (the paper's "who wins") are visible
    at a glance.
    """
    populated = {k: s for k, s in series_by_label.items() if len(s) > 0}
    if not populated:
        return f"{title}\n(no data)"
    t_min = min(s.times[0] for s in populated.values())
    t_max = max(s.times[-1] for s in populated.values())
    span = max(t_max - t_min, 1e-9)
    bucket = span / n_buckets
    bucket_means: Dict[str, List[float]] = {}
    for label, series in populated.items():
        means = []
        for i in range(n_buckets):
            start = t_min + i * bucket
            means.append(series.window_mean(start, start + bucket))
        bucket_means[label] = means
    global_max = max(max(m) for m in bucket_means.values()) or 1.0
    lines = []
    if title:
        lines.append(title)
    for label, means in bucket_means.items():
        lines.append(f"{label}:")
        for i, mean in enumerate(means):
            bar = "#" * max(0, round(mean / global_max * width))
            start = t_min + i * bucket
            lines.append(f"  t={start:9.0f}ms |{bar:<{width}}| {format_number(mean)}")
    return "\n".join(lines)


def series_summary_row(label: str, series: TimeSeries) -> List[object]:
    """A standard summary row: label, mean, max, final value."""
    return [label, series.time_weighted_mean(), series.maximum(), series.last()]
