"""Metrics collection and reporting for experiments.

A :class:`~repro.metrics.collector.MetricsCollector` samples registered
gauges (state sizes, output counters) at fixed virtual-time intervals —
the time series behind every figure in the paper — and
:mod:`~repro.metrics.report` renders them as ASCII tables and charts
for ``python -m repro figures``.
"""

from repro.metrics.series import TimeSeries
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import render_table, render_ascii_chart, format_number
from repro.metrics.analysis import (
    first_crossover,
    growth_ratio,
    is_bounded,
    linear_fit,
    relative_level,
    steadiness,
)

__all__ = [
    "TimeSeries",
    "MetricsCollector",
    "render_table",
    "render_ascii_chart",
    "format_number",
    "linear_fit",
    "growth_ratio",
    "is_bounded",
    "steadiness",
    "first_crossover",
    "relative_level",
]
