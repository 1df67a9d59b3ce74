"""Crash recovery reproduces the fault-free run, from any crash point.

The central property: a seeded crash before the Nth delivery — for
*any* N — followed by restore-from-latest-checkpoint and replay of the
unacknowledged suffix yields exactly the reference join multiset.  It
is driven through the supervisor's in-process path (the one a host
without ``fork`` takes); the in-flight log unit tests pin the
bounded-replay bookkeeping, and the supervised-backend tests drive the
real fork/respawn path and check that both paths agree.
"""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checkpoint import recovery
from repro.checkpoint.store import CheckpointStore
from repro.checkpoint.recovery import (
    CrashSpec,
    run_checkpointed_shard,
    run_sharded_resilient,
)
from repro.core.config import PJoinConfig
from repro.errors import OperatorError, RecoveryError, ShardWorkerError
from repro.experiments.harness import pjoin_factory, run_join_experiment
from repro.memory.budget import GovernorSpec
from repro.shard import backend
from repro.shard.backend import ShardPlan, fork_available
from repro.shard.router import InFlightLog
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.workloads.generator import generate_workload
from repro.workloads.reference import reference_join_multiset

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CONFIGS = {
    "eager": PJoinConfig(purge_threshold=1),
    "spill": PJoinConfig(purge_threshold=3, memory_threshold=40),
}


def small_workload(seed=3):
    return generate_workload(
        n_tuples_per_stream=120,
        punct_spacing_a=10,
        punct_spacing_b=10,
        seed=seed,
    )


def result_multiset(outcome):
    return Counter(values for values, _ts in outcome["results"])


def without_fork():
    """Run the supervisor in-process, as on a host without ``fork``."""
    return mock.patch.object(backend, "fork_available", lambda: False)


def recovered_in_process(workload, config, crash_after):
    with without_fork():
        return run_sharded_resilient(
            workload, 1, config=config, checkpoint_every=2,
            crash=CrashSpec(0, crash_after),
        )


def governed_workload():
    return generate_workload(
        n_tuples_per_stream=800, punct_spacing_a=40, punct_spacing_b=40,
        seed=23,
    )


# Flow counters of the per-segment disk and governor (gauges excluded).
SEGMENT_FLOWS = (
    "disk.tuples_written", "disk.tuples_read", "disk.write_ops",
    "governor.spills", "governor.faults", "governor.tuples_spilled",
)


@pytest.fixture(scope="module")
def workload():
    return small_workload()


@pytest.fixture(scope="module")
def reference(workload):
    return reference_join_multiset(
        workload.schedule_a, workload.schedule_b,
        workload.schemas[0], workload.schemas[1],
    )


class TestCheckpointedRun:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_segmented_run_matches_reference(
        self, workload, reference, config_name
    ):
        outcome = run_checkpointed_shard(
            0, workload.schedule_a, workload.schedule_b, workload,
            config=CONFIGS[config_name], checkpoint_every=2,
        )
        assert result_multiset(outcome) == reference
        assert outcome["counters"]["checkpoint.checkpoints_saved"] > 0
        assert outcome["counters"]["checkpoint.checkpoint_bytes"] > 0

    def test_checkpoint_io_is_charged(self, workload):
        outcome = run_checkpointed_shard(
            0, workload.schedule_a, workload.schedule_b, workload,
            config=CONFIGS["eager"], checkpoint_every=2,
        )
        assert outcome["counters"]["checkpoint.save_time_ms"] > 0

    def test_saved_checkpoints_do_not_grow_after_the_cut(self, workload):
        store = CheckpointStore(SimulatedDisk(CostModel()))
        outcome = run_checkpointed_shard(
            0, workload.schedule_a, workload.schedule_b, workload,
            config=CONFIGS["eager"], checkpoint_every=2,
            checkpoint_store=store,
        )
        outputs = store.latest(0).state["outputs"]
        assert outputs["result_count"] < outcome["result_count"]
        assert len(outputs["results"]) == outputs["result_count"]

    def test_disk_and_governor_counters_sum_over_segments(self, monkeypatch):
        # Every segment builds a fresh disk and governor; the outcome
        # must report their work over all segments, not the last one's.
        workload = governed_workload()
        plan = ShardPlan(workload, 2)
        segments = []

        def spy(*args, **kwargs):
            join, out = backend.run_shard_slice(*args, **kwargs)
            segments.append(out["counters"])
            return join, out

        monkeypatch.setattr(recovery, "run_shard_slice", spy)
        outcome = run_checkpointed_shard(
            0, plan.schedules[0][0], plan.schedules[0][1], workload,
            config=PJoinConfig(purge_threshold=1, propagation_mode="push_count"),
            governor=GovernorSpec(40).split(2)[0], checkpoint_every=8,
        )
        assert len(segments) == 3
        for key in SEGMENT_FLOWS:
            assert outcome["counters"][key] == sum(s[key] for s in segments), key
        assert outcome["counters"]["governor.spills"] > segments[-1]["governor.spills"]
        assert outcome["counters"]["governor.budget_tuples"] == 20


class TestCrashAtAnyIndex:
    @SETTINGS
    @given(
        crash_after=st.integers(1, 250),
        config_name=st.sampled_from(sorted(CONFIGS)),
    )
    def test_recovery_reproduces_reference(self, crash_after, config_name):
        workload = small_workload()
        reference = reference_join_multiset(
            workload.schedule_a, workload.schedule_b,
            workload.schemas[0], workload.schemas[1],
        )
        outcome = recovered_in_process(
            workload, CONFIGS[config_name], crash_after
        )
        assert Counter(outcome.result_multiset()) == reference
        total = len(workload.schedule_a) + len(workload.schedule_b)
        if crash_after <= total:
            assert outcome.counters["recovery.crashes_detected"] == 1
            assert outcome.counters["recovery.workers_respawned"] == 1
            assert outcome.counters["recovery.events_replayed"] > 0

    def test_crash_before_first_checkpoint_cold_starts(
        self, workload, reference
    ):
        outcome = recovered_in_process(workload, CONFIGS["eager"], 1)
        assert Counter(outcome.result_multiset()) == reference
        total = len(workload.schedule_a) + len(workload.schedule_b)
        assert outcome.counters["recovery.events_replayed"] == total

    def test_crash_spec_validates(self):
        with pytest.raises(RecoveryError, match="after_items"):
            CrashSpec(0, 0)


class TestInFlightLog:
    def test_ack_trims_prefix_and_suffix_shrinks(self):
        log = InFlightLog([1, 2, 3, 4], [5, 6])
        assert log.retained == 6
        log.ack(2, 1)
        assert log.base == (2, 1)
        assert log.suffix() == ([3, 4], [6])
        assert log.retained == 3
        assert log.items_retired == 3

    def test_ack_is_cumulative_and_idempotent(self):
        log = InFlightLog([1, 2, 3], [4, 5, 6])
        log.ack(1, 1)
        log.ack(1, 1)  # same positions again: nothing more trimmed
        assert log.items_retired == 2
        log.ack(3, 2)
        assert log.suffix() == ([], [6])

    def test_ack_backwards_raises(self):
        log = InFlightLog([1, 2], [3])
        log.ack(2, 1)
        with pytest.raises(OperatorError, match="backwards"):
            log.ack(1, 1)

    def test_ack_beyond_end_raises(self):
        log = InFlightLog([1, 2], [3])
        with pytest.raises(OperatorError, match="beyond"):
            log.ack(3, 0)

    def test_counters(self):
        log = InFlightLog([1], [2, 3])
        log.ack(1, 2)
        assert log.counters() == {
            "acks": 1, "items_retired": 3, "items_retained": 0,
        }


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestSupervisedBackend:
    def test_worker_crash_recovers_to_unsharded_multiset(self, workload):
        config = PJoinConfig(purge_threshold=1, propagation_mode="push_count")
        base = run_join_experiment(
            pjoin_factory(config), workload, label="base", keep_items=True
        )
        outcome = run_sharded_resilient(
            workload, 2, config=config, keep_items=True,
            checkpoint_every=2, crash=CrashSpec(0, 40),
        )
        assert outcome.result_multiset() == base.sink.result_multiset()
        assert outcome.counters["recovery.crashes_detected"] == 1
        assert outcome.counters["recovery.workers_respawned"] == 1
        assert outcome.counters["recovery.checkpoints_taken"] > 0
        assert outcome.counters["recovery.events_replayed"] > 0

    def test_crash_shard_out_of_range_raises(self, workload):
        with pytest.raises(RecoveryError, match="out of range"):
            run_sharded_resilient(workload, 2, crash=CrashSpec(5, 10))

    @pytest.mark.parametrize("fork", [True, False], ids=["fork", "inline"])
    def test_worker_error_is_reported_not_respawned(
        self, workload, monkeypatch, fork
    ):
        # A worker's own exception is not a crash: respawning would only
        # re-run the same deterministic failure.
        real = recovery.run_checkpointed_shard

        def failing(shard, *args, **kwargs):
            if shard == 0:
                raise ValueError("boom")
            return real(shard, *args, **kwargs)

        monkeypatch.setattr(recovery, "run_checkpointed_shard", failing)
        if not fork:
            monkeypatch.setattr(backend, "fork_available", lambda: False)
        with pytest.raises(ShardWorkerError, match="shard 0 worker raised ValueError: boom"):
            run_sharded_resilient(workload, 2, crash=CrashSpec(0, 40))

    def test_in_process_supervision_matches_fork(self, workload):
        config = PJoinConfig(purge_threshold=1, propagation_mode="push_count")

        def run():
            return run_sharded_resilient(
                workload, 2, config=config, checkpoint_every=2,
                crash=CrashSpec(0, 40),
            )

        forked = run()
        with without_fork():
            inline = run()
        assert inline.results == forked.results
        assert inline.punctuations == forked.punctuations
        assert inline.counters == forked.counters

    def test_respawned_worker_keeps_segment_counters(self):
        # The respawned worker resumes from a checkpoint that carries
        # the disk and governor counters of the segments before it.
        workload = governed_workload()
        config = PJoinConfig(purge_threshold=1, propagation_mode="push_count")
        clean, crashed = (
            run_sharded_resilient(
                workload, 2, config=config, governor=GovernorSpec(40),
                crash=crash,
            )
            for crash in (None, CrashSpec(0, 600))
        )
        assert crashed.counters["recovery.crashes_detected"] == 1
        # ... after shard 0's first checkpoint: only a suffix replays.
        shard0 = ShardPlan(workload, 2).schedules[0]
        assert crashed.counters["recovery.events_replayed"] < len(shard0[0]) + len(shard0[1])
        assert crashed.result_multiset() == clean.result_multiset()
        for key in SEGMENT_FLOWS:
            assert crashed.counters[key] == clean.counters[key], key
