#!/usr/bin/env python3
"""Compare two figure-report archives (regression tooling).

``python -m repro figures NAME ... --export DIR`` writes each figure's
measurements as JSON under ``DIR``.  This tool diffs two such
directories — e.g. exports saved before and after a change — and
prints, per figure and variant, how the headline metrics moved.

Usage:
    python tools/compare_runs.py OLD_DIR NEW_DIR [--threshold 0.05]
    python tools/compare_runs.py OLD_DIR NEW_DIR --counters
    python tools/compare_runs.py old_manifest.json new_manifest.json

With ``--counters`` the diff descends into each run's manifest (format
version 2 reports) and compares the per-operator counter registries —
probes, matches, purged tuples, disk I/O, punctuation flow — instead of
only the headline summary metrics.  Two bare manifest JSON files (as
written by ``repro trace ... --manifest``) can also be compared
directly; their counters are always diffed.

Exit status 1 when any metric moved more than the threshold (relative),
so it can serve as a CI regression gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.experiments.export import load_figure_json
from repro.metrics.report import render_table
from repro.obs.manifest import aggregate_shard_counters, diff_counters

METRICS = ("results", "mean_state", "max_state", "duration_ms",
           "punctuations_out")


def load_dir(path: Path) -> Dict[str, dict]:
    figures = {}
    for json_path in sorted(path.glob("*.json")):
        try:
            data = load_figure_json(json_path)
        except ValueError as exc:
            print(f"skipping {json_path}: {exc}", file=sys.stderr)
            continue
        figures[data["figure_id"]] = data
    return figures


def relative_change(old: float, new: float) -> float:
    if old == new:
        return 0.0
    if old == 0:
        return float("inf")
    return (new - old) / abs(old)


def counter_rows(
    scope: str,
    old_manifest: dict,
    new_manifest: dict,
    threshold: float,
) -> List[List[object]]:
    """Render-ready rows for every counter that moved past *threshold*.

    Per-shard counter namespaces (``pjoin.shard0`` …) are folded into
    their logical operator on both sides first, so a sharded manifest
    diffs cleanly against an unsharded one.
    """
    rows: List[List[object]] = []
    for op_name, counter, old_value, new_value, change in diff_counters(
        aggregate_shard_counters(old_manifest),
        aggregate_shard_counters(new_manifest),
        threshold=threshold,
    ):
        rows.append(
            [
                scope,
                f"{op_name}.{counter}",
                round(old_value, 2),
                round(new_value, 2),
                f"{change:+.1%}" if change != float("inf") else "new",
            ]
        )
    return rows


def compare_manifests(old_path: Path, new_path: Path, threshold: float) -> int:
    """Diff the counter registries of two bare manifest JSON files."""
    old_manifest = json.loads(old_path.read_text())
    new_manifest = json.loads(new_path.read_text())
    rows = counter_rows(
        old_manifest.get("label", old_path.stem), old_manifest, new_manifest,
        threshold,
    )
    if rows:
        print(render_table(["run", "counter", "old", "new", "change"], rows))
    else:
        print(f"no counter moved more than {threshold:.0%}")
    return 1 if rows else 0


def compare_counters(old_dir: Path, new_dir: Path, threshold: float) -> int:
    """Diff the per-run manifest counters of two report directories."""
    old_figures = load_dir(old_dir)
    new_figures = load_dir(new_dir)
    shared = sorted(set(old_figures) & set(new_figures))
    rows: List[List[object]] = []
    for figure_id in shared:
        old_runs = {r["label"]: r.get("manifest") or {}
                    for r in old_figures[figure_id]["runs"]}
        new_runs = {r["label"]: r.get("manifest") or {}
                    for r in new_figures[figure_id]["runs"]}
        for label in sorted(set(old_runs) & set(new_runs)):
            rows.extend(counter_rows(
                f"{figure_id}/{label}", old_runs[label], new_runs[label],
                threshold,
            ))
    if rows:
        print(render_table(["run", "counter", "old", "new", "change"], rows))
    else:
        print(f"no counter moved more than {threshold:.0%} across "
              f"{len(shared)} shared figures")
    return 1 if rows else 0


def compare(old_dir: Path, new_dir: Path, threshold: float) -> int:
    old_figures = load_dir(old_dir)
    new_figures = load_dir(new_dir)
    shared = sorted(set(old_figures) & set(new_figures))
    only_old = sorted(set(old_figures) - set(new_figures))
    only_new = sorted(set(new_figures) - set(old_figures))
    if only_old:
        print(f"only in {old_dir}: {only_old}")
    if only_new:
        print(f"only in {new_dir}: {only_new}")
    regressions = 0
    rows: List[List[object]] = []
    for figure_id in shared:
        old_runs = {r["label"]: r["summary"] for r in old_figures[figure_id]["runs"]}
        new_runs = {r["label"]: r["summary"] for r in new_figures[figure_id]["runs"]}
        for label in sorted(set(old_runs) & set(new_runs)):
            for metric in METRICS:
                old_value = old_runs[label].get(metric, 0) or 0
                new_value = new_runs[label].get(metric, 0) or 0
                change = relative_change(float(old_value), float(new_value))
                if abs(change) > threshold:
                    regressions += 1
                    rows.append(
                        [
                            figure_id,
                            label,
                            metric,
                            round(float(old_value), 2),
                            round(float(new_value), 2),
                            f"{change:+.1%}",
                        ]
                    )
    if rows:
        print(render_table(
            ["figure", "variant", "metric", "old", "new", "change"], rows
        ))
    else:
        print(f"no metric moved more than {threshold:.0%} across "
              f"{len(shared)} shared figures")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir", type=Path,
                        help="report directory or manifest JSON file")
    parser.add_argument("new_dir", type=Path,
                        help="report directory or manifest JSON file")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="relative change that counts as a regression")
    parser.add_argument("--counters", action="store_true",
                        help="diff per-operator manifest counters instead of "
                             "headline summary metrics")
    args = parser.parse_args(argv)
    if args.old_dir.is_file() or args.new_dir.is_file():
        return compare_manifests(args.old_dir, args.new_dir, args.threshold)
    if args.counters:
        return compare_counters(args.old_dir, args.new_dir, args.threshold)
    return compare(args.old_dir, args.new_dir, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
