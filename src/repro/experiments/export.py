"""JSON export of experiment results.

``python -m repro figures ... --export DIR`` archives each figure's
measurements so figures can be re-rendered, diffed across code changes,
or plotted elsewhere without re-running the simulation.  The format is
intentionally plain: a dict per run with the summary numbers and every
sampled series.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from repro.experiments.figures import FigureResult
from repro.experiments.harness import ExperimentRun
from repro.metrics.series import TimeSeries

# Version 2 added the per-run "manifest" block (config, seed, counters).
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)


def series_to_dict(series: TimeSeries) -> Dict[str, Any]:
    return {
        "name": series.name,
        "times": list(series.times),
        "values": list(series.values),
    }


def series_from_dict(data: Dict[str, Any]) -> TimeSeries:
    series = TimeSeries(name=data.get("name", ""))
    for t, v in zip(data["times"], data["values"]):
        series.append(t, v)
    return series


def run_to_dict(run: ExperimentRun) -> Dict[str, Any]:
    return {
        "label": run.label,
        "summary": run.summary(),
        "series": {name: series_to_dict(s) for name, s in run.series.items()},
        "manifest": run.manifest,
    }


def figure_to_dict(result: FigureResult) -> Dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "figure_id": result.figure_id,
        "title": result.title,
        "notes": result.notes,
        "checks": [
            {"description": c.description, "passed": c.passed}
            for c in result.checks
        ],
        "runs": [run_to_dict(run) for run in result.runs],
    }


def save_figure_json(result: FigureResult, path: Path) -> None:
    """Write a figure's full measurement record to *path*."""
    path.write_text(json.dumps(figure_to_dict(result), indent=1))


def load_figure_json(path: Path) -> Dict[str, Any]:
    """Load a record written by :func:`save_figure_json`.

    Returns the plain dict (runs are not re-hydrated into live
    :class:`ExperimentRun` objects — they reference operators that no
    longer exist); series can be re-hydrated with
    :func:`series_from_dict` for plotting or diffing.
    """
    data = json.loads(path.read_text())
    version = data.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"{path} has format version {version!r}; "
            f"this build reads {SUPPORTED_VERSIONS}"
        )
    return data
