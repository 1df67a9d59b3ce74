"""One benchmark run of one workload: timed repetitions, then a check.

Untraced mode repeats *generate → build → run* until the time budget is
spent, cycling through ``SUBSEEDS`` inputs derived from the run's seed,
and reports medians of the end-to-end metrics.  Traced mode alternates
untraced and traced repetitions on the first derived input and reports
the per-layer metrics, with the traced-over-untraced wall ratio.

Every repetition's result count is checked against the count oracle,
and every repetition of one input must share one deterministic outcome
(results, engine events, finish time, peak state).  Both modes end with
a verification run on the first input that keeps the sink's result
tuples: they are compared with an independent reference
(:mod:`oracle`) and give the virtual result latencies.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from cases import CASES, Case
from layers import METRICS as LAYER_METRICS
from layers import TracedRun, fastpath_map, shape_failures
from oracle import (
    count_errors,
    count_oracle,
    percentile,
    result_errors,
    result_latencies,
    stream_tuples,
)

END_TO_END = {
    "input_tuples_per_s": "1/s",
    "results_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "peak_state_tuples": "tuples",
    "sim_finish_ms": "ms",
    "sim_result_latency_p50_ms": "ms",
    "sim_result_latency_p99_ms": "ms",
}

# Inputs one untraced run cycles through.  The virtual-time metrics
# depend on the input; their mean over four inputs halves the spread
# from one run seed to the next.
SUBSEEDS = 4

# Repetitions of each kind a run makes at least, whatever its budget.
MIN_REPEATS = 4

# Per-layer metrics measured in wall seconds (medians over the traced
# repetitions); every other per-layer metric is a deterministic count.
_TIMED_LAYER_METRICS = {
    name for name in LAYER_METRICS
    if name.endswith("_s") or name.startswith("trace.")
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_share", ".imbalance")) or "_per_" in name:
        return "ratio"
    return "count"


def sub_seeds(seed: int) -> List[int]:
    """The input seeds one run uses: distinct for distinct run seeds."""
    return [seed * SUBSEEDS + k for k in range(SUBSEEDS)]


def input_tuples(workload: Any) -> int:
    """Data tuples over all input streams (punctuations not counted)."""
    return sum(len(stream_tuples(schedule)) for schedule in workload.schedules)


def outcome(run: Any) -> Tuple[int, int, float, float]:
    """The deterministic fingerprint every run of one input must share."""
    return (run.results, run.join.engine.events_executed, run.sink.eos_time,
            run.max_state())


class Rep:
    """What one repetition measured."""

    def __init__(
        self, seed: int, setup_s: float, wall_s: float, inputs: int,
        expected_results: int, run: Any,
    ) -> None:
        self.seed = seed
        self.setup_s = setup_s
        self.wall_s = wall_s
        self.inputs = inputs
        self.expected_results = expected_results
        self.outcome = outcome(run)


def repeat(
    case: Case, seed: int, traced: Optional[TracedRun] = None
) -> Tuple[Rep, Any, List[bool]]:
    """Generate, build and run once; the run is timed without the build."""
    gc.collect()
    start = time.perf_counter()
    workload = case.workload(seed)
    generate_s = time.perf_counter() - start
    built: List[Any] = []

    def on_build(join: Any, seconds: float) -> None:
        built.append((fastpath_map(join), seconds))
        if traced is not None:
            traced.install_join(join)

    start = time.perf_counter()
    if traced is None:
        run = case.run(workload, on_build)
    else:
        with traced.installed():
            run = traced.root(lambda: case.run(workload, on_build))
    wall = time.perf_counter() - start
    fastpaths, build_s = built[0]
    expected = sum(count_oracle(workload).values())
    rep = Rep(seed, generate_s + build_s, wall - build_s,
              input_tuples(workload), expected, run)
    return rep, run, fastpaths


def measure(name: str, seed: int, seconds: float, trace: bool,
            out_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run workload *name*; return the result object the CLI prints."""
    case = CASES[name]
    seeds = sub_seeds(seed)
    problems: List[str] = []
    untraced: List[Rep] = []
    traced: List[Tuple[Rep, Dict[str, float]]] = []
    fastpaths: Optional[List[bool]] = None
    failed = 0
    # An untraced run measures every input at least once.
    min_untraced = MIN_REPEATS if trace else max(MIN_REPEATS, len(seeds))
    deadline = time.perf_counter() + seconds
    while True:
        tracer = TracedRun() if trace and len(traced) < len(untraced) else None
        rep_seed = seeds[0] if trace else seeds[len(untraced) % len(seeds)]
        rep, run, built_fastpaths = repeat(case, rep_seed, tracer)
        if tracer is None:
            untraced.append(rep)
            fastpaths = fastpaths or built_fastpaths
        else:
            if tracer.fastpaths != fastpaths:
                failed += 1
                problems.append(
                    f"traced build changed the fast path: {tracer.fastpaths} "
                    f"vs untraced {fastpaths}"
                )
            traced.append((rep, tracer.metrics(run)))
            if out_dir is not None:
                os.makedirs(out_dir, exist_ok=True)
                tracer.recorder.write(
                    os.path.join(out_dir, f"spans-{name}-seed{seed}.bin")
                )
        del run, tracer
        if (
            time.perf_counter() >= deadline
            and len(untraced) >= min_untraced
            and (not trace or len(traced) >= MIN_REPEATS)
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reps = untraced + [rep for rep, _m in traced]
    outcomes: Dict[int, Tuple[int, int, float, float]] = {}
    for rep in reps:
        first = outcomes.setdefault(rep.seed, rep.outcome)
        if rep.outcome != first or rep.outcome[0] != rep.expected_results:
            failed += 1
            problems.append(
                f"input seed {rep.seed}: outcome {rep.outcome} differs from "
                f"{first} or from the oracle's {rep.expected_results} results"
            )

    # Verification: keep the results and judge them against the inputs.
    verified = [
        verify(case, input_seed, outcomes[input_seed], full_reference=k == 0)
        for k, input_seed in enumerate(seeds[:1] if trace else seeds)
    ]
    for check in verified:
        if check.problems:
            failed += 1
            problems.extend(check.problems)
    errors = sum(check.errors for check in verified)

    if trace:
        metrics = _layer_metrics(traced, untraced, errors)
        for problem in shape_failures(name, metrics):
            problems.append(problem)
            failed += 1
        counts = [
            {k: v for k, v in m.items() if k not in _TIMED_LAYER_METRICS}
            for _r, m in traced
        ]
        if any(c != counts[0] for c in counts):
            problems.append("layer counts differ between traced repetitions")
            failed += 1
        units = {k: layer_unit(k) for k in LAYER_METRICS}
    else:
        metrics = {
            "input_tuples_per_s": statistics.median(
                r.inputs / r.wall_s for r in untraced
            ),
            "results_per_s": statistics.median(
                r.outcome[0] / r.wall_s for r in untraced
            ),
            "setup_s": statistics.median(r.setup_s for r in untraced),
            "peak_rss_mb": peak_rss_mb,
            "peak_state_tuples": statistics.fmean(outcomes[k][3] for k in seeds),
            "sim_finish_ms": statistics.fmean(outcomes[k][2] for k in seeds),
            "sim_result_latency_p50_ms": statistics.fmean(
                check.p50 for check in verified
            ),
            "sim_result_latency_p99_ms": statistics.fmean(
                check.p99 for check in verified
            ),
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(reps) + len(verified),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "problems": problems,
    }


class Verified:
    """The verdict of one verification run."""

    def __init__(self) -> None:
        self.errors = 0
        self.p50 = self.p99 = 0.0
        self.problems: List[str] = []


def verify(
    case: Case, seed: int, timed_outcome: Tuple[int, int, float, float],
    full_reference: bool,
) -> Verified:
    """Re-run one input keeping every result, and judge the results.

    With *full_reference* the results are judged by
    :func:`oracle.result_errors`, otherwise by the cheaper per-value
    count oracle.
    """
    check = Verified()
    gc.collect()
    workload = case.workload(seed)
    run = case.run(workload, lambda join, s: None, keep_items=True)
    kept = run.sink.results
    if full_reference:
        check.errors = result_errors(workload, kept)
    else:
        check.errors = count_errors(workload, kept)
    if check.errors:
        check.problems.append(
            f"input seed {seed}: {check.errors} results missing or extra "
            "against the reference"
        )
    if not kept:
        check.problems.append(f"input seed {seed}: the join produced no results")
    try:
        latencies = sorted(result_latencies(workload, kept))
        check.p50 = percentile(latencies, 0.5)
        check.p99 = percentile(latencies, 0.99)
    except (KeyError, ValueError):
        check.problems.append(
            f"input seed {seed}: no results, or one made of tuples never input"
        )
    if outcome(run) != timed_outcome:
        check.problems.append(
            f"input seed {seed}: the verification run's outcome {outcome(run)} "
            f"differs from the timed runs' {timed_outcome}"
        )
    return check


def _layer_metrics(
    traced: List[Tuple[Rep, Dict[str, float]]],
    untraced: List[Rep],
    errors: int,
) -> Dict[str, float]:
    first = traced[0][1]
    metrics = dict(first)
    for key in _TIMED_LAYER_METRICS:
        if key in first:
            metrics[key] = statistics.median(m[key] for _r, m in traced)
    metrics["trace.overhead_ratio"] = statistics.median(
        r.wall_s for r, _m in traced
    ) / statistics.median(r.wall_s for r in untraced)
    metrics["result_errors"] = errors
    return metrics
