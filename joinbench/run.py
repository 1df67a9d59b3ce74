#!/usr/bin/env python3
"""Benchmark of the punctuated stream joins in ``src/repro``.

Run from the repository root::

    python3 joinbench/run.py                      # every workload, both modes
    python3 joinbench/run.py --workload fig5_eager --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Each metric is printed as a line ``name value
unit``; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Problems found by
the checks go to standard error.  See ``joinbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; "
                        "default: both")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"joinbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from cases import CASES
    from measure import measure

    names = list(CASES) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in CASES]
    if unknown:
        print(f"joinbench: unknown workload {unknown[0]!r}; known: "
              f"{', '.join(CASES)}", file=sys.stderr)
        return 2
    modes = [args.trace] if args.trace is not None else [0, 1]
    out_dir = os.path.join(HERE, "out")
    reports = []
    for mode in modes:
        for name in names:
            report = measure(name, args.seed, args.seconds, bool(mode), out_dir)
            reports.append((name, report))
            print(f"# {name} seed={args.seed} trace={mode}")
            for metric, entry in report["metrics"].items():
                print(f"{metric:34s} {entry['value']:.6g} {entry['unit']}")
            for problem in report["problems"]:
                print(f"joinbench: {name}: {problem}", file=sys.stderr)
    if len(reports) == 1:
        metrics = reports[0][1]["metrics"]
    else:
        metrics = {
            f"{name}.{metric}": entry
            for name, report in reports
            for metric, entry in report["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for _n, r in reports),
        "attempted": sum(r["attempted"] for _n, r in reports),
        "failed": sum(r["failed"] for _n, r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
