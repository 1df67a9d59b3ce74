"""The benchmark's four workloads: inputs, join build and run.

Each case turns a seed into generated schedules (the program sees only
those) and runs one join over them through ``repro.experiments.harness``.
Every knob that gives a case its character is pinned here rather than
taken from a program default or preset, so a later change of defaults
cannot silently turn one workload into a copy of another; the shape
guards in :mod:`layers` catch the defaults that are not pinned.

All cases replay seeded schedules with Poisson tuple arrivals (2 ms mean
per stream for the binary cases, the preset's rates for ``nary_drift``)
as an open loop in virtual time, in one single-threaded process.
Punctuation spacing is aligned (exactly every k-th tuple of a stream):
Poisson spacing lets the two streams' open-value windows drift apart
like a random walk, and the join state then varies by a third between
seeds, which no bound on the metrics could absorb.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, Iterator, Optional

from repro.core.config import PJoinConfig
from repro.experiments.harness import (
    ExperimentRun,
    JoinFactory,
    governed,
    nary_pjoin_factory,
    pjoin_factory,
    run_join_experiment,
    sharding,
    skewed,
)
from repro.memory.budget import GovernorSpec
from repro.planner.spec import PlannerSpec
from repro.sim.costs import CostModel
from repro.skew.manager import SkewSpec
from repro.workloads import (
    NaryWorkloadSpec,
    WorkloadSpec,
    generate_nary_workload,
    generate_workload,
)

# Called with (join, build_seconds) right after the harness built the join.
BuildHook = Callable[[Any, float], None]


@dataclass(frozen=True)
class Case:
    """One workload: how to generate its inputs and how to run its join."""

    name: str
    tuples_per_stream: int
    generate: Callable[[int, int], Any]
    factory: Callable[[], JoinFactory]
    layers: Callable[[], ContextManager[Any]] = contextlib.nullcontext
    cost_model: Optional[CostModel] = None

    def workload(self, seed: int, tuples_per_stream: Optional[int] = None) -> Any:
        return self.generate(seed, tuples_per_stream or self.tuples_per_stream)

    def run(
        self, workload: Any, on_build: BuildHook, keep_items: bool = False
    ) -> ExperimentRun:
        """Run the join once; *on_build* sees the join before it runs."""
        with self.layers():
            factory = self.factory()

            def build(plan: Any, wl: Any) -> Any:
                start = time.perf_counter()
                join = factory(plan, wl)
                on_build(join, time.perf_counter() - start)
                return join

            return run_join_experiment(
                build, workload, cost_model=self.cost_model, keep_items=keep_items
            )


# ---------------------------------------------------------------------------
# fig5_eager: the paper's Figure 5 shape
# ---------------------------------------------------------------------------

FIG5_CONFIG = PJoinConfig(
    purge_threshold=1, index_building="lazy", propagation_mode="off"
)


def _fig5_generate(seed: int, n: int) -> Any:
    return generate_workload(
        WorkloadSpec(
            n_tuples_per_stream=n,
            tuple_interarrival_ms=2.0,
            punct_spacing_a=40,
            punct_spacing_b=40,
            active_values=10,
            aligned_punctuations=True,
            seed=seed,
        )
    )


# ---------------------------------------------------------------------------
# punct_dense: ten times the punctuations, propagation on
# ---------------------------------------------------------------------------

DENSE_CONFIG = PJoinConfig(
    purge_threshold=1,
    index_building="eager",
    propagation_mode="push_count",
    propagate_count_threshold=50,
)


def _dense_generate(seed: int, n: int) -> Any:
    return generate_workload(
        WorkloadSpec(
            n_tuples_per_stream=n,
            tuple_interarrival_ms=2.0,
            punct_spacing_a=4,
            punct_spacing_b=4,
            active_values=200,
            aligned_punctuations=True,
            seed=seed,
        )
    )


# ---------------------------------------------------------------------------
# nary_drift: 3-way join under the adaptive planner
# ---------------------------------------------------------------------------

# The repository's ``nary_drift`` planner preset, pinned: arrival rates
# and punctuation cadences of streams 1 and 2 swap halfway through.
NARY_CONFIG = PJoinConfig(purge_threshold=8)
NARY_PLANNER = PlannerSpec(mode="adaptive", reopt_interval=2)
NARY_COSTS = CostModel().with_overrides(probe_per_candidate=0.04)


def _nary_generate(seed: int, n: int) -> Any:
    return generate_nary_workload(
        NaryWorkloadSpec(
            n_streams=3,
            n_tuples_per_stream=n,
            interarrival_ms=(1.0, 6.0, 0.4),
            drift_interarrival_ms=(1.0, 0.4, 6.0),
            punct_spacings=(5.0, 15.0, 60.0),
            drift_spacings=(5.0, 60.0, 15.0),
            drift_at=0.5,
            active_values=12,
            aligned_punctuations=True,
            seed=seed,
        )
    )


# ---------------------------------------------------------------------------
# zipf_governed: skewed keys, in-sim shards, a tight memory budget
# ---------------------------------------------------------------------------

ZIPF_CONFIG = PJoinConfig(purge_threshold=1, n_partitions=8)
ZIPF_SHARDS = 4
ZIPF_SKEW = SkewSpec(hot_keys=True, adaptive=True)
ZIPF_GOVERNOR = GovernorSpec(budget_tuples=256.0, policy="skew-aware")


def _zipf_generate(seed: int, n: int) -> Any:
    return generate_workload(
        WorkloadSpec(
            n_tuples_per_stream=n,
            tuple_interarrival_ms=2.0,
            punct_spacing_a=40,
            punct_spacing_b=40,
            active_values=48,
            zipf_exponent=1.4,
            aligned_punctuations=True,
            seed=seed,
        )
    )


@contextlib.contextmanager
def _zipf_layers() -> Iterator[None]:
    with sharding(ZIPF_SHARDS), skewed(ZIPF_SKEW), governed(ZIPF_GOVERNOR):
        yield


CASES: Dict[str, Case] = {
    case.name: case
    for case in (
        Case(
            "fig5_eager", 10_000, _fig5_generate,
            lambda: pjoin_factory(FIG5_CONFIG),
        ),
        Case(
            "punct_dense", 3_000, _dense_generate,
            lambda: pjoin_factory(DENSE_CONFIG),
        ),
        Case(
            "nary_drift", 2_000, _nary_generate,
            lambda: nary_pjoin_factory(config=NARY_CONFIG, planner=NARY_PLANNER),
            cost_model=NARY_COSTS,
        ),
        Case(
            "zipf_governed", 5_000, _zipf_generate,
            lambda: pjoin_factory(ZIPF_CONFIG),
            layers=_zipf_layers,
        ),
    )
}

