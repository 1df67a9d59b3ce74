"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures`` — run paper-figure presets (and ablations) and print their
  reports;
* ``demo`` — a one-shot PJoin-vs-XJoin comparison on a configurable
  workload;
* ``list`` — show every available experiment;
* ``trace`` — run a traced PJoin workload *or* any experiment preset and
  print the span timeline; export Chrome trace JSON / JSONL / manifests;
* ``metrics`` — run a workload or preset and print the per-operator
  counter registries from its run manifest;
* ``chaos`` — run deterministic fault-injection scenarios (contract
  violations, disorder, disk faults, source stalls) under a chosen
  fault policy and print their resilience counter summaries;
* ``plan`` — run the adaptive probe-order planner on an n-way preset and
  print (with ``--explain``, explain) its decisions;
* ``check`` — the CI gates: run the oracle-judged suites of
  :mod:`repro.verify` (memory, skew, shard, recovery, plan, chaos) and
  fail on an oracle mismatch, an idle layer or golden drift;
* ``profile`` — per-layer wall-time attribution with latency histograms
  and flame-graph exports.

``figures`` and ``demo`` accept ``--memory-budget`` /
``--eviction-policy`` to attach the memory governor (budgeted join
state with spill/fault-back) to every join.

Examples
--------
::

    python -m repro list
    python -m repro figures figure5 figure7 --scale 0.5
    python -m repro figures --all --scale 0.2
    python -m repro demo --tuples 5000 --spacing-a 10 --spacing-b 20
    python -m repro trace figure8 --scale 0.1 --chrome trace.json
    python -m repro metrics --tuples 2000 --manifest run.json
    python -m repro chaos gentle disk_storm --policy quarantine
    python -m repro check skew --goldens tests/goldens
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import List, Optional

import repro
from repro.core.config import PJoinConfig
from repro.errors import ConfigError
from repro.experiments.ablations import ALL_ABLATIONS
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.harness import (
    governed,
    pjoin_factory,
    run_join_experiment,
    sharding,
    tracing,
    xjoin_factory,
)
from repro.memory.budget import GovernorSpec, parse_memory_budget
from repro.memory.policies import POLICIES
from repro.metrics.report import render_table
from repro.obs.export import render_timeline, save_chrome_trace, save_jsonl
from repro.obs.logging import LOG_LEVELS, get_logger, setup_logging
from repro.obs.trace import Tracer
from repro.resilience.chaos import CHAOS_SCENARIOS, run_chaos
from repro.resilience.policy import FAULT_POLICIES, QUARANTINE
from repro.workloads.generator import generate_workload

ALL_EXPERIMENTS = {**ALL_FIGURES, **ALL_ABLATIONS}

log = get_logger(__name__)


def _budget_type(text: str) -> float:
    """argparse type for ``--memory-budget`` (tuples or byte suffixes)."""
    try:
        return parse_memory_budget(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_memory_args(parser: argparse.ArgumentParser) -> None:
    """The memory-governor flags shared by figures and demo."""
    parser.add_argument(
        "--memory-budget", type=_budget_type, default=None, metavar="BUDGET",
        help="warm join-state budget: a tuple count, bytes with a "
             "b/kb/mb/gb suffix, or 'inf' (governor attached but never "
             "spilling); omit to run ungoverned",
    )
    parser.add_argument(
        "--eviction-policy", choices=sorted(POLICIES), default="lru",
        help="governor eviction policy (default %(default)s)",
    )


def _add_planner_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--planner", choices=("static", "adaptive"), default="static",
        help="probe-order planning for n-way joins built by the presets "
             "(default %(default)s = fixed stream order, byte-identical "
             "to unplanned runs); 'adaptive' re-optimizes the order at "
             "punctuation-aligned purge boundaries",
    )


def _planner_context(args: argparse.Namespace):
    """The ``planning(...)`` context for ``--planner``, or ``None``.

    ``--planner static`` installs nothing: the default build is already
    the fixed stream order and stays byte-identical to unplanned runs.
    """
    if getattr(args, "planner", "static") != "adaptive":
        return None
    from repro.experiments.harness import planning
    from repro.planner import PlannerSpec

    return planning(PlannerSpec(mode="adaptive"))


def _governor_spec(args: argparse.Namespace) -> Optional[GovernorSpec]:
    """The GovernorSpec requested on the command line, if any."""
    budget = getattr(args, "memory_budget", None)
    if budget is None:
        return None
    return GovernorSpec(budget_tuples=budget, policy=args.eviction_policy)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Joining Punctuated Streams' (EDBT 2004)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    parser.add_argument(
        "--log-level", choices=list(LOG_LEVELS), default="info",
        help="diagnostic verbosity on stderr (default %(default)s); "
             "report output on stdout is unaffected",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress diagnostics below error level (overrides --log-level)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit diagnostics as JSON lines (machine-readable logs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list available experiments")
    list_cmd.set_defaults(func=cmd_list)

    figures_cmd = sub.add_parser(
        "figures", help="run paper-figure presets and print their reports"
    )
    figures_cmd.add_argument(
        "names", nargs="*",
        help="experiment names (e.g. figure5 ablation_purge_sweep)",
    )
    figures_cmd.add_argument(
        "--all", action="store_true", help="run every figure and ablation"
    )
    figures_cmd.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (default 1.0 = paper scale)",
    )
    figures_cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run each experiment's sweep points across N worker "
             "processes (results are identical to a serial run)",
    )
    figures_cmd.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="run every join in the presets as a K-shard stack "
             "(K=1 replays the unsharded execution exactly)",
    )
    figures_cmd.add_argument(
        "--export", type=Path, default=None, metavar="DIR",
        help="also write each experiment's figure JSON (series, checks "
             "and run manifests) to DIR/<name>.json",
    )
    _add_memory_args(figures_cmd)
    _add_planner_args(figures_cmd)
    figures_cmd.set_defaults(func=cmd_figures)

    demo_cmd = sub.add_parser(
        "demo", help="compare PJoin and XJoin on one synthetic workload"
    )
    demo_cmd.add_argument("--tuples", type=int, default=5000,
                          help="tuples per stream")
    demo_cmd.add_argument("--spacing-a", type=float, default=20.0,
                          help="stream A punctuation spacing (tuples)")
    demo_cmd.add_argument("--spacing-b", type=float, default=20.0,
                          help="stream B punctuation spacing (tuples)")
    demo_cmd.add_argument("--purge-threshold", type=int, default=10,
                          help="PJoin purge threshold (1 = eager)")
    demo_cmd.add_argument("--seed", type=int, default=42)
    demo_cmd.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="run both joins as K-shard stacks",
    )
    _add_memory_args(demo_cmd)
    demo_cmd.set_defaults(func=cmd_demo)

    _add_plan_parser(sub)
    _add_check_parser(sub)
    _add_trace_parser(sub)
    _add_metrics_parser(sub)
    _add_chaos_parser(sub)
    _add_profile_parser(sub)

    return parser


def _add_plan_parser(sub) -> None:
    plan_cmd = sub.add_parser(
        "plan",
        help="run the adaptive probe-order planner on an n-way preset "
             "and explain its decisions",
        description="Runs an n-way punctuated join over a named planner "
                    "preset with adaptive probe-order planning, prints "
                    "the planner counters and the punctuation-aligned "
                    "decision log, and (with --explain) the per-candidate "
                    "cost breakdown behind every decision.",
    )
    plan_cmd.add_argument(
        "preset", nargs="?", default="nary_drift",
        help="planner preset name (default %(default)s); see --list",
    )
    plan_cmd.add_argument(
        "--list", action="store_true", dest="list_presets",
        help="list the available presets and exit",
    )
    plan_cmd.add_argument(
        "--scale", type=float, default=0.3,
        help="workload scale factor (default %(default)s)",
    )
    plan_cmd.add_argument(
        "--seed", type=int, default=None,
        help="override the preset's workload seed",
    )
    plan_cmd.add_argument(
        "--reopt-interval", type=int, default=2, metavar="K",
        help="re-optimize every Kth purge-complete boundary "
             "(default %(default)s)",
    )
    plan_cmd.add_argument(
        "--purge-threshold", type=int, default=8, metavar="N",
        help="join purge threshold (default %(default)s); the purge "
             "boundaries it induces are the planner's re-plan points",
    )
    plan_cmd.add_argument(
        "--explain", action="store_true",
        help="print the per-candidate cost table behind every decision",
    )
    plan_cmd.set_defaults(func=cmd_plan)


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.checkpoint import cover_cut_times_n
    from repro.errors import PlannerError
    from repro.experiments.harness import run_nary_experiment
    from repro.planner import PlannerSpec, get_preset, preset_names
    from repro.sim.costs import CostModel
    from repro.workloads.nary import generate_nary_workload

    if args.list_presets:
        for name in preset_names():
            print(name)
        return 0
    try:
        spec = get_preset(args.preset, scale=args.scale)
    except PlannerError as exc:
        log.error(str(exc))
        return 2
    if args.seed is not None:
        spec = spec.with_overrides(seed=args.seed)
    workload = generate_nary_workload(spec)
    names = list(workload.stream_names)
    config = PJoinConfig(purge_threshold=args.purge_threshold)
    # Probe-heavy charging (as in fig_nary_adaptive) so order costs are
    # visible against the fixed per-tuple overhead.
    cost_model = CostModel().with_overrides(probe_per_candidate=0.04)
    planner = PlannerSpec(mode="adaptive", reopt_interval=args.reopt_interval)
    adaptive = run_nary_experiment(
        workload, config=config, planner=planner,
        cost_model=cost_model, label="adaptive",
    )
    reopt = adaptive.join.reoptimizer
    order_names = lambda order: "->".join(names[i] for i in order)  # noqa: E731
    initial = planner.initial_order or tuple(range(len(names)))
    print(f"preset:      {args.preset} (scale {args.scale}, "
          f"seed {workload.spec.seed})")
    print(f"streams:     {', '.join(names)}")
    print(f"probe order: {order_names(initial)} -> "
          f"{order_names(adaptive.join.stream_order)}")
    print(f"results:     {adaptive.results} tuples in "
          f"{adaptive.duration_ms:.0f} virtual ms")
    boundaries = cover_cut_times_n(
        workload.schedules, workload.join_fields,
        every=args.purge_threshold,
    )
    print(f"boundaries:  {reopt.boundaries} purge-complete cover cuts "
          f"(schedule predicts {len(boundaries)}), re-optimized every "
          f"{args.reopt_interval}")
    print()
    print("planner counters:")
    for key, value in sorted(reopt.counters().items()):
        print(f"  planner.{key:<22} {value:g}")
    decisions = list(reopt.decisions)
    if decisions:
        print()
        rows = [
            [
                f"{d.at_ms:.0f}",
                d.boundary,
                order_names(d.previous),
                order_names(d.chosen),
                "switch" if d.switched else "hold",
                f"{d.current_cost:.3f}",
                f"{d.best_cost:.3f}",
                f"{d.cost_delta:+.3f}",
            ]
            for d in decisions
        ]
        print(
            render_table(
                ["at (ms)", "boundary", "previous", "chosen", "action",
                 "incumbent", "best", "delta"],
                rows,
            )
        )
    if args.explain:
        for d in decisions:
            print()
            print(f"decision at {d.at_ms:.0f} ms (boundary {d.boundary}, "
                  f"{'switched' if d.switched else 'held'}):")
            print(d.choice.explain(names))
    return 0


def _add_check_parser(sub) -> None:
    from repro.verify import SUITES

    check_cmd = sub.add_parser(
        "check",
        help="judge every layer's variants against the reference oracle "
             "(the CI gates)",
        description="Fails unless every variant of each suite reproduces "
                    "the oracle result multiset, every engagement counter "
                    "is non-zero and every counter golden matches.",
    )
    check_cmd.add_argument(
        "suites", nargs="*", metavar="SUITE",
        help=f"suites to run ({', '.join(SUITES)}); default all",
    )
    check_cmd.add_argument(
        "--goldens", type=Path, default=Path("tests/goldens"), metavar="DIR",
        help="directory holding the counter goldens (default %(default)s)",
    )
    check_cmd.set_defaults(func=cmd_check)


def cmd_check(args: argparse.Namespace) -> int:
    from repro.verify import SUITES, run_suite

    names = args.suites or list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        log.error("unknown check suites: %s; suites: %s", unknown, list(SUITES))
        return 2
    failed = []
    for name in names:
        failures = run_suite(SUITES[name](), args.goldens)
        for failure in failures:
            log.error("%s", failure)
        print(f"check {name}: {'FAILED' if failures else 'passed'}\n")
        if failures:
            failed.append(name)
    if failed:
        log.error("check FAILED: %s", failed)
        return 1
    return 0


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    """Flags for the ad-hoc PJoin workload (used when no preset is named)."""
    parser.add_argument("--tuples", type=int, default=500)
    parser.add_argument("--spacing-a", type=float, default=10.0)
    parser.add_argument("--spacing-b", type=float, default=10.0)
    parser.add_argument("--purge-threshold", type=int, default=5)
    parser.add_argument("--memory-threshold", type=int, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--fault-policy", choices=sorted(FAULT_POLICIES), default="strict",
        help="punctuation-contract fault policy for the ad-hoc PJoin "
             "(quarantine adds dead-letter counters to the registry)",
    )


def _add_export_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chrome", type=Path, default=None, metavar="PATH",
        help="write the span trace as Chrome trace-event JSON "
             "(load in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--jsonl", type=Path, default=None, metavar="PATH",
        help="write the raw trace events as JSON lines",
    )
    parser.add_argument(
        "--manifest", type=Path, default=None, metavar="PATH",
        help="write the run manifest(s) as JSON "
             "(diff two with tools/compare_runs.py)",
    )


def _add_trace_parser(sub) -> None:
    trace_cmd = sub.add_parser(
        "trace",
        help="run a traced PJoin workload or experiment preset and print "
             "the component timeline (purges, relocations, disk joins, "
             "propagations)",
    )
    trace_cmd.add_argument(
        "target", nargs="?", default=None,
        help="optional experiment preset to trace (e.g. figure8; "
             "see 'repro list'); omit to trace an ad-hoc PJoin workload",
    )
    trace_cmd.add_argument(
        "--scale", type=float, default=0.1,
        help="workload scale factor for preset targets (default 0.1)",
    )
    _add_workload_args(trace_cmd)
    trace_cmd.add_argument("--max-events", type=int, default=40,
                           help="timeline lines to print")
    _add_export_args(trace_cmd)
    trace_cmd.set_defaults(func=cmd_trace)


def _add_metrics_parser(sub) -> None:
    metrics_cmd = sub.add_parser(
        "metrics",
        help="run a workload or experiment preset and print the "
             "per-operator counter registries from its run manifest",
    )
    metrics_cmd.add_argument(
        "target", nargs="?", default=None,
        help="optional experiment preset (e.g. figure8); omit for an "
             "ad-hoc PJoin workload",
    )
    metrics_cmd.add_argument(
        "--scale", type=float, default=0.1,
        help="workload scale factor for preset targets (default 0.1)",
    )
    _add_workload_args(metrics_cmd)
    metrics_cmd.add_argument(
        "--manifest", type=Path, default=None, metavar="PATH",
        help="also write the run manifest(s) as JSON",
    )
    metrics_cmd.set_defaults(func=cmd_metrics)


def _add_chaos_parser(sub) -> None:
    chaos_cmd = sub.add_parser(
        "chaos",
        help="run deterministic fault-injection scenarios and print "
             "their resilience counter summaries",
        description="Chaos harness: each preset composes seeded faults "
                    "(contract violations, disorder, duplicates, disk "
                    "faults, stalls) into one deterministic run; same "
                    "preset + seed always yields identical counters.",
    )
    chaos_cmd.add_argument(
        "names", nargs="*",
        help=f"scenario presets ({', '.join(sorted(CHAOS_SCENARIOS))}); "
             "omit with --all to run every preset",
    )
    chaos_cmd.add_argument(
        "--all", action="store_true", help="run every chaos preset"
    )
    chaos_cmd.add_argument(
        "--policy", choices=sorted(FAULT_POLICIES), default=QUARANTINE,
        help="fault policy for the join under chaos (default quarantine; "
             "strict will raise on scenarios that inject violations)",
    )
    chaos_cmd.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's seed",
    )
    chaos_cmd.add_argument(
        "--manifest", type=Path, default=None, metavar="PATH",
        help="write the run manifest(s), resilience section included",
    )
    chaos_cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run scenarios across N worker processes (each scenario is "
             "deterministic, so counters are identical to a serial run)",
    )
    chaos_cmd.set_defaults(func=cmd_chaos)


def _add_profile_parser(sub) -> None:
    profile_cmd = sub.add_parser(
        "profile",
        help="attribute hot-path wall time to feature layers (core vs "
             "obs vs resilience vs governor vs shard) with latency "
             "histograms and flame-graph exports",
        description="Runs a pinned profiling preset with scoped timers "
                    "shadowing the hot-path callables, prints the "
                    "per-layer overhead table and virtual-time latency "
                    "histograms (result latency, purge lag, probe "
                    "cost), and optionally collapsed-stack/speedscope "
                    "exports or the CI profiling contract (--check).",
    )
    # Lazy import keeps `repro --help` cheap; the parser args live with
    # the runner so `python -m repro.profiling.runner` shares them.
    from repro.profiling.runner import add_profile_args, cmd_profile

    add_profile_args(profile_cmd)
    profile_cmd.set_defaults(func=cmd_profile)


def cmd_chaos(args: argparse.Namespace) -> int:
    names: List[str] = list(CHAOS_SCENARIOS) if args.all else args.names
    if not names:
        log.error("nothing to run: name scenarios or pass --all")
        return 2
    unknown = [n for n in names if n not in CHAOS_SCENARIOS]
    if unknown:
        log.error("unknown chaos scenarios: %s; presets: %s",
                  unknown, sorted(CHAOS_SCENARIOS))
        return 2
    jobs = getattr(args, "jobs", 1)
    if jobs > 1:
        from repro.perf.parallel import ParallelSweepRunner

        runs = ParallelSweepRunner(jobs).run_chaos_scenarios(
            names, policy=args.policy, seed=args.seed
        )
    else:
        runs = [
            run_chaos(name, policy=args.policy, seed=args.seed) for name in names
        ]
    for run in runs:
        print(f"{run.scenario.name}: {run.scenario.description}")
        rows = [[key, value] for key, value in run.summary.items()]
        print(render_table([f"counter ({run.manifest['label']})", "value"],
                           rows))
        if run.join.dead_letters:
            print(f"dead-letter store: {len(run.join.dead_letters)} tuples "
                  f"({run.join.dead_letters.counters()})")
        print()
    if args.manifest is not None:
        _write_manifests(runs, args.manifest)
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        [name, (fn.__doc__ or "").strip().splitlines()[0]]
        for name, fn in ALL_EXPERIMENTS.items()
    ]
    print(render_table(["experiment", "description"], rows))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    names: List[str] = list(ALL_EXPERIMENTS) if args.all else args.names
    if not names:
        log.error("nothing to run: name experiments or pass --all")
        return 2
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        log.error("unknown experiments: %s; try 'repro list'", unknown)
        return 2
    jobs = getattr(args, "jobs", 1)
    shards = getattr(args, "shards", None)
    spec = _governor_spec(args)
    if shards is not None and jobs > 1:
        # Worker processes re-import the experiment module and would not
        # see the parent's sharding context.
        log.error("--shards cannot be combined with --jobs > 1")
        return 2
    if spec is not None and jobs > 1:
        # Same re-import problem: the governed() context would not reach
        # the sweep workers.
        log.error("--memory-budget cannot be combined with --jobs > 1")
        return 2
    planner_ctx = _planner_context(args)
    if planner_ctx is not None and jobs > 1:
        # The planning() context would not reach re-importing sweep
        # workers either, but the serial path runs the identical
        # experiments — degrade instead of refusing.
        log.warning(
            "--planner adaptive cannot fan out over worker processes; "
            "falling back to a serial run (--jobs 1)"
        )
        jobs = 1
    runner = None
    if jobs > 1:
        from repro.perf.parallel import ParallelSweepRunner

        runner = ParallelSweepRunner(jobs)
    failures = []
    with contextlib.ExitStack() as stack:
        if shards is not None:
            stack.enter_context(sharding(shards))
        if spec is not None:
            stack.enter_context(governed(spec))
        if planner_ctx is not None:
            stack.enter_context(planner_ctx)
        export_dir = getattr(args, "export", None)
        if export_dir is not None:
            from repro.experiments.export import save_figure_json

            export_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            if runner is not None:
                result = runner.run_experiment(name, scale=args.scale)
            else:
                result = ALL_EXPERIMENTS[name](scale=args.scale)
            print(result.render())
            print()
            if export_dir is not None:
                save_figure_json(result, export_dir / f"{name}.json")
            if not result.all_passed:
                failures.append(name)
    if failures:
        log.error("shape-check failures: %s", failures)
        return 1
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    workload = generate_workload(
        n_tuples_per_stream=args.tuples,
        punct_spacing_a=args.spacing_a,
        punct_spacing_b=args.spacing_b,
        seed=args.seed,
    )
    shards = getattr(args, "shards", None)
    spec = _governor_spec(args)
    with contextlib.ExitStack() as stack:
        if shards is not None:
            stack.enter_context(sharding(shards))
        if spec is not None:
            stack.enter_context(governed(spec))
        pjoin = run_join_experiment(
            pjoin_factory(PJoinConfig(purge_threshold=args.purge_threshold)),
            workload,
            label=f"PJoin-{args.purge_threshold}",
        )
        xjoin = run_join_experiment(xjoin_factory(), workload, label="XJoin")
    rows = []
    for run in (pjoin, xjoin):
        summary = run.summary()
        rows.append(
            [
                summary["label"],
                summary["results"],
                round(summary["mean_state"], 1),
                summary["max_state"],
                round(summary["rate_second_half"], 2),
                round(summary["duration_ms"]),
            ]
        )
    print(
        render_table(
            ["variant", "results", "state mean", "state max",
             "late rate (t/ms)", "finished (ms)"],
            rows,
        )
    )
    return 0


def _traced_runs(args: argparse.Namespace, tracer: Tracer):
    """Run the requested preset or ad-hoc workload under *tracer*.

    Returns the list of :class:`ExperimentRun` objects, or ``None`` when
    the preset name is unknown (an error was already printed).
    """
    if args.target is not None:
        if args.target not in ALL_EXPERIMENTS:
            log.error("unknown experiment: %r; try 'repro list'", args.target)
            return None
        with tracing(tracer):
            result = ALL_EXPERIMENTS[args.target](scale=args.scale)
        return list(result.runs)
    workload = generate_workload(
        n_tuples_per_stream=args.tuples,
        punct_spacing_a=args.spacing_a,
        punct_spacing_b=args.spacing_b,
        seed=args.seed,
    )
    config = PJoinConfig(
        purge_threshold=args.purge_threshold,
        memory_threshold=args.memory_threshold,
        propagation_mode="push_count",
        propagate_count_threshold=max(2, args.purge_threshold),
        fault_policy=getattr(args, "fault_policy", "strict"),
    )
    run = run_join_experiment(
        pjoin_factory(config),
        workload,
        label=f"PJoin-{args.purge_threshold}",
        keep_items=False,
        tracer=tracer,
    )
    return [run]


def _write_manifests(runs, path: Path) -> None:
    """Write one manifest (single run) or a ``{label: manifest}`` map."""
    if len(runs) == 1:
        payload = runs[0].manifest
    else:
        payload = {run.label: run.manifest for run in runs}
    path.write_text(json.dumps(payload, indent=1))
    print(f"wrote manifest: {path}")


def cmd_trace(args: argparse.Namespace) -> int:
    tracer = Tracer()
    runs = _traced_runs(args, tracer)
    if runs is None:
        return 2
    print(render_timeline(tracer, max_events=args.max_events))
    print()
    print(render_table(
        ["action", "count"], sorted(tracer.counts().items())
    ))
    for run in runs:
        stats = getattr(run.join, "stats", None)
        if stats is None:
            continue
        print()
        rows = [[key, value] for key, value in stats().items()
                if not isinstance(value, (dict, tuple))]
        print(render_table([f"join statistic ({run.label})", "value"], rows))
    if args.chrome is not None:
        save_chrome_trace(tracer, args.chrome)
        print(f"\nwrote Chrome trace: {args.chrome}")
    if args.jsonl is not None:
        save_jsonl(tracer, args.jsonl)
        print(f"wrote JSONL trace: {args.jsonl}")
    if args.manifest is not None:
        _write_manifests(runs, args.manifest)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    runs = _traced_runs(args, Tracer())
    if runs is None:
        return 2
    for run in runs:
        rows = []
        for op_name, counters in run.manifest.get("counters", {}).items():
            for counter, value in counters.items():
                rows.append([op_name, counter,
                             round(value, 3) if isinstance(value, float)
                             else value])
        print(render_table(
            [f"operator ({run.label})", "counter", "value"], rows
        ))
        print()
    if args.manifest is not None:
        _write_manifests(runs, args.manifest)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(
        level=args.log_level, json_lines=args.log_json, quiet=args.quiet
    )
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
