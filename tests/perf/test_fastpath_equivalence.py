"""Equivalence suite for PJoin's fast-path build.

The fast path must be invisible in the results: a PJoin built on the
specialized fast path must produce **byte-identical** output — full run
manifest (engine event count, every per-operator counter), figure JSON,
and the collected result tuples — compared to the layered execution.
This suite is that proof.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.errors import ContractViolationError
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.export import save_figure_json
from repro.experiments.harness import (
    governed,
    pjoin_factory,
    run_join_experiment,
    tracing,
)
from repro.memory.budget import GovernorSpec
from repro.obs.trace import Tracer
from repro.operators import fastpath
from repro.profiling.presets import resolve_preset
from repro.query.plan import QueryPlan
from repro.resilience.policy import QUARANTINE
from repro.workloads.faults import (
    delay_punctuations,
    inject_duplicates,
    inject_punctuation_violation,
)
from repro.workloads.generator import GeneratedWorkload

PRESETS = ["fig5_pjoin", "fig8_pjoin_lazy"]
SCALE = 0.12


def run_preset(name, scale=SCALE, keep_items=False):
    preset = resolve_preset(name)
    return run_join_experiment(
        preset.factory(), preset.workload(scale), label=name, keep_items=keep_items
    )


def chaos_workload(scale=SCALE):
    """A contract-legal but hostile workload: duplicates + laggy puncts."""
    preset = resolve_preset("fig5_pjoin")
    wl = preset.workload(scale)
    chaos_a = inject_duplicates(wl.schedule_a, fraction=0.2, seed=11)
    chaos_b = delay_punctuations(wl.schedule_b, delay_ms=40.0)
    return GeneratedWorkload(wl.spec, chaos_a, chaos_b)


# ---------------------------------------------------------------------------
# Fast-path builds equal the layered path
# ---------------------------------------------------------------------------


class TestFastPathEquivalence:
    @pytest.mark.parametrize("name", PRESETS)
    def test_manifest_identical(self, name):
        fast = run_preset(name)
        with fastpath.disabled():
            layered = run_preset(name)
        assert fastpath.has_fastpath(fast.join)
        assert not fastpath.has_fastpath(layered.join)
        assert fast.manifest == layered.manifest

    def test_results_identical_with_kept_items(self):
        fast = run_preset("fig5_pjoin", keep_items=True)
        with fastpath.disabled():
            layered = run_preset("fig5_pjoin", keep_items=True)
        assert [t.values for t in fast.sink.results] == [
            t.values for t in layered.sink.results
        ]
        assert [t.ts for t in fast.sink.results] == [
            t.ts for t in layered.sink.results
        ]

    def test_figure_json_byte_identical(self, tmp_path):
        fast_path = tmp_path / "fast.json"
        layered_path = tmp_path / "layered.json"
        save_figure_json(ALL_FIGURES["figure5"](scale=0.06), fast_path)
        with fastpath.disabled():
            save_figure_json(ALL_FIGURES["figure5"](scale=0.06), layered_path)
        assert fast_path.read_bytes() == layered_path.read_bytes()

    def test_chaos_workload_identical(self):
        wl = chaos_workload()
        factory = pjoin_factory(PJoinConfig(purge_threshold=2))
        fast = run_join_experiment(factory, wl, label="chaos")
        with fastpath.disabled():
            layered = run_join_experiment(factory, wl, label="chaos")
        assert fastpath.has_fastpath(fast.join)
        assert fast.manifest == layered.manifest


class TestFastPathBuildMatrix:
    """Which configurations specialize — and which must decline."""

    def test_default_build_installs_fast_path(self):
        run = run_preset("fig5_pjoin")
        handle = vars(run.join).get("handle")
        assert handle is not None and getattr(handle, "__repro_fastpath__", False)

    def test_tracer_declines_fast_path(self):
        preset = resolve_preset("fig5_pjoin")
        with tracing(Tracer()):
            run = run_join_experiment(preset.factory(), preset.workload(SCALE))
        assert not fastpath.has_fastpath(run.join)

    def test_governor_declines_fast_path(self):
        preset = resolve_preset("fig5_pjoin")
        with governed(GovernorSpec(10_000)):
            run = run_join_experiment(preset.factory(), preset.workload(SCALE))
        assert not fastpath.has_fastpath(run.join)

    def test_non_default_policy_declines_fast_path(self):
        preset = resolve_preset("fig5_pjoin")
        factory = pjoin_factory(PJoinConfig(fault_policy=QUARANTINE))
        run = run_join_experiment(factory, preset.workload(SCALE))
        assert not fastpath.has_fastpath(run.join)

    def test_strict_violation_still_raises_on_fast_path(self):
        preset = resolve_preset("fig5_pjoin")
        wl = preset.workload(SCALE)
        corrupted = inject_punctuation_violation(
            wl.schedule_a, wl.schemas[0], wl.join_fields[0]
        )
        bad = GeneratedWorkload(wl.spec, corrupted.schedule, wl.schedule_b)
        plan = QueryPlan()
        join = PJoin(
            plan.engine,
            plan.cost_model,
            wl.schemas[0],
            wl.schemas[1],
            wl.join_fields[0],
            wl.join_fields[1],
        )
        assert fastpath.has_fastpath(join)
        from repro.operators.sink import Sink

        join.connect(Sink(plan.engine, plan.cost_model))
        plan.add_source(bad.schedule_a, join, port=0, name="A")
        plan.add_source(bad.schedule_b, join, port=1, name="B")
        with pytest.raises(ContractViolationError):
            plan.run()
        assert join.validator.violations == 1


# ---------------------------------------------------------------------------
# Schema interning
# ---------------------------------------------------------------------------


class TestSchemaInterning:
    def test_repeated_builds_share_output_schema(self):
        first = run_preset("fig5_pjoin", scale=0.06)
        second = run_preset("fig5_pjoin", scale=0.06)
        assert first.join.out_schema is second.join.out_schema

    def test_manifest_json_stable_under_interning(self):
        run = run_preset("fig5_pjoin", scale=0.06)
        again = run_preset("fig5_pjoin", scale=0.06)
        assert json.dumps(run.manifest, sort_keys=True) == json.dumps(
            again.manifest, sort_keys=True
        )
