"""Oracle-judged check suites: ``python -m repro check [SUITE ...]``.

A :class:`Suite` is data: a workload, named variants, the counters that
prove each layer engaged and optional counter goldens.  :func:`run_suite`
judges every variant against the reference oracle — the join result
computed directly from the schedules — never against a sibling variant,
so a bug shared by all variants still fails.  :data:`SUITES` maps each
name to a builder whose defaults are the CI parameters.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import PJoinConfig
from repro.experiments import harness
from repro.experiments.harness import JoinFactory, pjoin_factory, xjoin_factory
from repro.memory.budget import GovernorSpec, format_budget
from repro.metrics.report import render_table
from repro.workloads import (
    generate_nary_workload,
    generate_workload,
    reference_nary_join_multiset,
)


@dataclass(frozen=True)
class Outcome:
    """A variant's result and output-punctuation multisets (``None``
    when not judged) and its counters."""

    results: Optional[Counter]
    punctuations: Optional[Counter]
    counters: Dict[str, Any]


@dataclass(frozen=True)
class Variant:
    """One configuration of the join.  Every counter in *engage* must be
    non-zero: a layer that never engaged proves nothing."""

    name: str
    run: Callable[[Any], Outcome]
    engage: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Suite:
    """A workload and its variants.  With *oracle* every variant must
    reproduce the reference result multiset; with *punctuations_like*
    every variant's output punctuations must equal that variant's.
    *goldens* maps the outcomes by variant name to ``{golden file stem:
    counter summary}``."""

    name: str
    workload: Callable[[], Any]
    variants: Sequence[Variant]
    oracle: bool = True
    punctuations_like: Optional[str] = None
    goldens: Optional[Callable[[Dict[str, Outcome]], Dict[str, Dict]]] = None


def _in_sim(
    factory: JoinFactory,
    shards: Optional[int] = None,
    governor: Optional[GovernorSpec] = None,
    skew: Any = None,
) -> Callable[[Any], Outcome]:
    """A variant runner: *factory*'s join in the simulator, layered."""

    def run(workload: Any) -> Outcome:
        with harness.sharding(shards), harness.governed(governor), \
                harness.skewed(skew):
            ran = harness.run_join_experiment(factory, workload, keep_items=True)
        counters = dict(ran.join.counters())
        router = getattr(ran.join, "router", None)
        for key, value in (router.counters() if router is not None else {}).items():
            counters[f"router.{key}"] = value
        return Outcome(Counter(ran.sink.result_multiset()),
                       Counter(p.patterns[0] for p in ran.sink.punctuations),
                       counters)

    return run


def _merged(outcome: Any) -> Outcome:
    """The :class:`Outcome` of a multiprocess, recovered or rescaled run."""
    return Outcome(Counter(outcome.result_multiset()),
                   Counter(outcome.punctuation_multiset()), outcome.counters)


def _fig5_workload(tuples: int, seed: int, **extra: Any) -> Callable[[], Any]:
    return lambda: generate_workload(
        n_tuples_per_stream=tuples, punct_spacing_a=40.0,
        punct_spacing_b=40.0, seed=seed, **extra,
    )


def memory_suite(tuples: int = 2000, budget: float = 100.0) -> Suite:
    """The governor never changes a result: PJoin (eager purge) and XJoin
    run ungoverned, at an unlimited budget and at a tight budget that
    must spill; a 2-shard PJoin splits the tight budget."""
    tight, label = GovernorSpec(budget), f"b={format_budget(budget)}"
    pjoin = pjoin_factory(PJoinConfig(purge_threshold=1))
    variants = []
    for algo, factory in (("PJoin-1", pjoin), ("XJoin", xjoin_factory())):
        variants += [
            Variant(f"{algo} ungoverned", _in_sim(factory)),
            Variant(f"{algo} b=inf",
                    _in_sim(factory, governor=GovernorSpec(math.inf))),
            Variant(f"{algo} {label}", _in_sim(factory, governor=tight),
                    ("governor.spills",)),
        ]
    variants.append(Variant(f"PJoin-1 K=2 {label}",
                            _in_sim(pjoin, shards=2, governor=tight),
                            ("governor.spills",)))
    return Suite("memory", _fig5_workload(tuples, seed=5), variants)


def skew_suite(tuples: int = 3000) -> Suite:
    """Skew handling never changes a result: one Zipf workload runs
    static, with adaptive buckets, sharded, and sharded with hot-key
    replication.  Splits, activations and replicas must all happen, and
    the counter summary must match ``skew_smoke.json``."""
    from repro.skew import SkewSpec

    factory = pjoin_factory(PJoinConfig(n_partitions=8, purge_threshold=1))
    hot = "sharded K=4 hot-key"
    variants = [
        Variant("static", _in_sim(factory)),
        Variant("adaptive", _in_sim(factory, skew=SkewSpec()), ("skew.splits",)),
        Variant("sharded K=4", _in_sim(factory, shards=4)),
        Variant(hot, _in_sim(factory, shards=4,
                             skew=SkewSpec(hot_keys=True, adaptive=False)),
                ("router.hot_activations", "router.replica_copies")),
    ]

    def goldens(out: Dict[str, Outcome]) -> Dict[str, Dict]:
        adaptive, hotkey = out["adaptive"].counters, out[hot].counters
        summary = {"results": sum((out["static"].results or {}).values())}
        for key in ("splits", "coalesces", "entries_moved", "leaf_partitions"):
            summary[f"adaptive.{key}"] = adaptive[f"skew.{key}"]
        for key in ("hot_activations", "hot_deactivations", "replica_copies",
                    "hot_spread_tuples", "hot_broadcast_tuples",
                    "hot_broadcast_punctuations"):
            summary[f"hotkey.{key}"] = hotkey[f"router.{key}"]
        summary["hotkey.replica_inserts"] = hotkey.get("replica_inserts", 0)
        return {"skew_smoke": summary}

    workload = _fig5_workload(tuples, seed=7, active_values=48,
                              zipf_exponent=1.4)
    return Suite("skew", workload, variants, goldens=goldens)


# Eager purge is the exact-equivalence regime for output punctuations:
# lazy purge batches land on different boundaries per shard.
_SHARD_CONFIG = PJoinConfig(purge_threshold=1, propagation_mode="push_count")


def shard_suite(tuples: int = 2000, shards: Sequence[int] = (1, 2, 4)) -> Suite:
    """Sharding never changes a result or an output punctuation, for
    every shard count on the in-simulator and multiprocess backends."""
    from repro.shard.backend import run_sharded_multiprocess

    factory = pjoin_factory(_SHARD_CONFIG)
    variants = [Variant("unsharded", _in_sim(factory))]
    for k in shards:
        variants += [
            Variant(f"K={k} sim", _in_sim(factory, shards=k)),
            Variant(f"K={k} mp", lambda w, k=k: _merged(
                run_sharded_multiprocess(w, k, config=_SHARD_CONFIG))),
        ]
    return Suite("shard", _fig5_workload(tuples, seed=42), variants,
                 punctuations_like="unsharded")


def recovery_suite(tuples: int = 1200, crash: Tuple[int, int] = (0, 80)) -> Suite:
    """Crash recovery and live rescaling never change a result or an
    output punctuation.  A worker dies before its Nth delivery (*crash*
    is ``(shard, N)``) on 1 and 2 shards and must be detected — a
    crash aimed past the last shard never fires — and a 2-shard run
    rescales to 3 at mid-run, migrating state."""
    from repro.checkpoint.recovery import CrashSpec, run_sharded_resilient
    from repro.checkpoint.rescale import RescalePlan, run_sharded_rescale

    def crashed(k: int) -> Callable[[Any], Outcome]:
        spec = CrashSpec(*crash) if crash[0] < k else None
        return lambda w: _merged(run_sharded_resilient(
            w, k, config=_SHARD_CONFIG, checkpoint_every=4, crash=spec))

    variants = [Variant("unsharded", _in_sim(pjoin_factory(_SHARD_CONFIG)))]
    variants += [Variant(f"K={k} crash {crash[0]}@{crash[1]}", crashed(k),
                         ("recovery.crashes_detected",)) for k in (1, 2)]
    variants.append(Variant("rescale 2:3@mid", lambda w: _merged(
        run_sharded_rescale(w, RescalePlan(2, 3, w.end_time / 2),
                            config=_SHARD_CONFIG, checkpoint_every=4)),
        ("rescale.migrated_tuples",)))
    return Suite("recovery", _fig5_workload(tuples, seed=42), variants,
                 punctuations_like="unsharded")


def plan_suite(scale: float = 0.3) -> Suite:
    """Re-planning never changes a result: on the drifting three-way
    preset the adaptive planner must switch probe order, and it and the
    static order must both reproduce the n-way oracle.  Probe-heavy
    charging (as in ``fig_nary_adaptive``) makes order costs visible."""
    from repro.planner import PlannerSpec, get_preset
    from repro.sim.costs import CostModel

    def nary(planner: PlannerSpec) -> Callable[[Any], Outcome]:
        def run(workload: Any) -> Outcome:
            ran = harness.run_nary_experiment(
                workload, config=PJoinConfig(purge_threshold=8),
                planner=planner, keep_items=True,
                cost_model=CostModel().with_overrides(probe_per_candidate=0.04),
            )
            return Outcome(Counter(ran.sink.result_multiset()), None,
                           ran.join.counters())
        return run

    adaptive = PlannerSpec(mode="adaptive", reopt_interval=2)
    variants = [Variant("adaptive", nary(adaptive), ("planner.switches",)),
                Variant("static", nary(PlannerSpec(mode="static")))]
    return Suite("plan", lambda: generate_nary_workload(
        get_preset("nary_drift", scale=scale)), variants)


def chaos_suite(presets: Sequence[str] = ("gentle", "disk_storm", "crash")) -> Suite:
    """Fault handling stays deterministic: each preset under quarantine
    matches ``chaos_<preset>.json``.  No oracle: quarantine drops tuples
    by design (the ``crash`` preset reports its own ``results_match``)."""
    from repro.resilience.chaos import run_chaos

    variants = [Variant(name, lambda _w, name=name: Outcome(
        None, None, run_chaos(name).summary)) for name in presets]
    return Suite("chaos", lambda: None, variants, oracle=False,
                 goldens=lambda out: {f"chaos_{name}": o.counters
                                      for name, o in out.items()})


SUITES: Dict[str, Callable[[], Suite]] = {
    "memory": memory_suite,
    "skew": skew_suite,
    "shard": shard_suite,
    "recovery": recovery_suite,
    "plan": plan_suite,
    "chaos": chaos_suite,
}


def _golden_drift(path: Path, summary: Dict[str, Any]) -> List[str]:
    if not path.exists():
        return [f"missing golden: {path}"]
    golden = json.loads(path.read_text())
    return [f"drift in {path.stem}.{key}: golden={golden.get(key)!r} "
            f"run={summary.get(key)!r}"
            for key in sorted(golden.keys() | summary.keys())
            if golden.get(key) != summary.get(key)]


def run_suite(suite: Suite, goldens_dir: Path) -> List[str]:
    """Run every variant of *suite*, print a verdict table and return
    the failures (empty when the suite passes)."""
    workload = suite.workload()
    expected = reference_nary_join_multiset(
        workload.schedules, workload.schemas, workload.join_fields
    ) if suite.oracle else None
    outcomes: Dict[str, Outcome] = {}
    failures: List[str] = []
    rows = []
    for variant in suite.variants:
        out = outcomes[variant.name] = variant.run(workload)
        where, mine = f"{suite.name}/{variant.name}", []
        if expected is not None and out.results != expected:
            mine.append(f"{where}: result multiset differs from the oracle "
                        f"({sum((out.results or {}).values())} results, "
                        f"oracle {sum(expected.values())})")
        like = suite.punctuations_like
        if like is not None and out.punctuations != outcomes[like].punctuations:
            mine.append(f"{where}: output punctuations differ from {like}'s")
        mine += [f"{where}: engagement counter {c} is {out.counters.get(c, 0)}"
                 for c in variant.engage if not out.counters.get(c)]
        failures += mine
        rows.append([
            variant.name,
            "-" if out.results is None else sum(out.results.values()),
            "-" if out.punctuations is None else sum(out.punctuations.values()),
            " ".join(f"{c}={out.counters.get(c, 0)}" for c in variant.engage),
            "FAIL" if mine else "ok",
        ])
    print(render_table([f"variant ({suite.name})", "results", "puncts out",
                        "engaged", "verdict"], rows))
    for stem, summary in (suite.goldens(outcomes) if suite.goldens else {}).items():
        failures += _golden_drift(goldens_dir / f"{stem}.json", summary)
    return failures
