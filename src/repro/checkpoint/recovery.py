"""Cover-aligned segmented execution and crash recovery.

The runner slices a shard's routed schedules at punctuation-cover
boundaries (every ``checkpoint_every``-th join-exploitable punctuation
time) and runs each slice as its own mini simulation: one
:func:`~repro.shard.backend.run_shard_slice` call per segment, the
operator restored from the previous segment's snapshot.  Schedule times
are absolute, and :class:`~repro.streams.source.StreamSource` schedules
each item at ``max(item_time, now)``, so the virtual timeline is
continuous across segments — probe histories, residency intervals and
the last full disk-join time all carry absolute times through the
snapshot, which is what keeps the timestamp dedupe rules exact across a
resume.

Each segment ends with the mini-run's end-of-stream quiesce (full disk
join, purge buffers cleared, pending propagation released), so the cut
is *purge-complete*: the snapshot owes no deferred work.  By the
result-multiset invariance the sharding layer already relies on,
finishing deferred work earlier than the unsegmented run only shifts
emission times — every pair is still produced exactly once, so the
segmented/recovered run reproduces the unsharded result multiset.

:func:`run_sharded_resilient` supervises one such runner per shard
through :func:`~repro.shard.backend.run_shard_workers`: each forked
worker streams its checkpoints to the parent, and a seeded crash exits
the worker mid-run without a message.  The supervisor sees the EOF and
respawns the worker with the latest checkpoint and the suffix retained
in the router's bounded :class:`~repro.shard.router.InFlightLog`.  A
worker that raises is reported, not respawned: a deterministic error
would only recur.  Without ``fork`` the same supervision runs
in-process.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as PyTuple

from repro.checkpoint.store import CheckpointStore
from repro.core.config import PJoinConfig
from repro.errors import RecoveryError, TransientIOError
from repro.memory.budget import GovernorSpec
from repro.punctuations.punctuation import Punctuation
from repro.punctuations.store import is_join_exploitable
from repro.resilience.retry import DiskFaultProfile
from repro.shard.backend import (
    Job,
    Schedule,
    ShardedRunOutcome,
    ShardPlan,
    SimulatedCrash,
    run_shard_slice,
    run_shard_workers,
)
from repro.shard.operator import shard_governors
from repro.shard.router import InFlightLog
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.workloads.generator import GeneratedWorkload

DEFAULT_CHECKPOINT_EVERY = 8
DEFAULT_MAX_RESPAWNS = 2

# The disk and the governor are rebuilt with every segment's operator
# and are not in its snapshot, so their counters are summed over the
# segments (and carried in checkpoint outputs); gauges and the
# configured budget keep the last segment's value.
_SEGMENT_SUMMED = ("disk.", "governor.")
_SEGMENT_GAUGES = frozenset(
    {"governor.cold_tuples", "governor.budget_tuples", "governor.budget_bytes"}
)


class CrashSpec:
    """A seeded crash: kill *shard*'s worker before its Nth delivery."""

    __slots__ = ("shard", "after_items")

    def __init__(self, shard: int, after_items: int) -> None:
        if after_items < 1:
            raise RecoveryError(
                f"crash after_items must be >= 1, got {after_items}"
            )
        self.shard = shard
        self.after_items = after_items

    def __repr__(self) -> str:
        return f"CrashSpec(shard={self.shard}, after_items={self.after_items})"


class _CrashTrigger:
    """Counts operator deliveries; raises :class:`SimulatedCrash` before the Nth."""

    __slots__ = ("remaining", "message", "fired")

    def __init__(self, after_items: int, message: str) -> None:
        self.remaining = after_items
        self.message = message
        self.fired = False

    def arm(self, operator: Any) -> None:
        original = operator.push
        trigger = self

        def push(item: Any, port: int = 0) -> None:
            if not trigger.fired:
                trigger.remaining -= 1
                if trigger.remaining <= 0:
                    trigger.fired = True
                    raise SimulatedCrash(trigger.message)
            original(item, port)

        operator.push = push


def cover_cut_times(
    schedule_a: Schedule,
    schedule_b: Schedule,
    join_fields: PyTuple[str, str],
    every: int = DEFAULT_CHECKPOINT_EVERY,
) -> List[float]:
    """Checkpoint cut times: every Nth join-exploitable cover boundary.

    Times are merged over both sides, ascending and deduplicated; the
    cut lands *after* all items scheduled at that time (a cover's own
    purge has run by the time the segment quiesces).
    """
    return cover_cut_times_n((schedule_a, schedule_b), join_fields, every)


def cover_cut_times_n(
    schedules: Sequence[Schedule],
    join_fields: Sequence[str],
    every: int = DEFAULT_CHECKPOINT_EVERY,
) -> List[float]:
    """:func:`cover_cut_times` over *n* schedules.

    The same punctuation-aligned boundaries the adaptive planner
    re-optimizes at (:mod:`repro.planner.reopt`): every Nth
    join-exploitable punctuation over all streams, merged ascending and
    deduplicated by time.
    """
    times: List[float] = []
    for side, schedule in enumerate(schedules):
        field = join_fields[side]
        for time, item in schedule:
            if isinstance(item, Punctuation) and is_join_exploitable(item, field):
                times.append(time)
    times.sort()
    unique: List[float] = []
    for time in times:
        if not unique or time > unique[-1]:
            unique.append(time)
    if every < 1:
        raise RecoveryError(f"checkpoint_every must be >= 1, got {every}")
    return unique[every - 1 :: every]


def _empty_outputs(keep_items: bool) -> Dict[str, Any]:
    return {
        "results": [] if keep_items else None,
        "result_count": 0,
        "punctuations": [],
        "punctuation_count": 0,
        "counters": {},
        "events": 0,
        "virtual_now": 0.0,
        "eos_time": None,
    }


def _copy_outputs(outputs: Dict[str, Any]) -> Dict[str, Any]:
    """A copy whose lists and dicts a checkpoint and the running
    accumulators do not share: later segments must not grow a saved
    checkpoint, nor a resumed run its source checkpoint."""
    return {
        key: type(value)(value) if isinstance(value, (list, dict)) else value
        for key, value in outputs.items()
    }


def run_checkpointed_shard(
    shard_index: int,
    schedule_a: Schedule,
    schedule_b: Schedule,
    workload: GeneratedWorkload,
    config: Optional[PJoinConfig] = None,
    keep_items: bool = True,
    governor: Optional[GovernorSpec] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    initial_state: Optional[Dict[str, Any]] = None,
    crash_after: Optional[int] = None,
    on_checkpoint: Optional[Callable[[int, float, PyTuple[int, int], Dict[str, Any]], None]] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
    checkpoint_fault_profile: Optional[DiskFaultProfile] = None,
    final_snapshot: bool = False,
    name: str = "pjoin",
) -> Dict[str, Any]:
    """Run one shard's slice in cover-aligned segments with checkpoints.

    Returns the outcome of :func:`repro.shard.backend.run_shard_slice`
    summed over the segments — with no cut, exactly that slice's
    outcome — with the checkpoint store's counters merged in under
    ``checkpoint.*`` (and, with ``final_snapshot=True``, the quiesced
    operator snapshot under ``"final_state"`` — the rescale migration
    input).

    *initial_state* is a checkpoint payload (``{"operator": ...,
    "outputs": ...}``; outputs it omits start empty) to resume from;
    *crash_after* arms a seeded :class:`SimulatedCrash` before the Nth
    schedule-item delivery.
    """
    if checkpoint_store is None:
        checkpoint_store = CheckpointStore(
            SimulatedDisk(CostModel(), fault_profile=checkpoint_fault_profile)
        )
    times_a = [t for t, _item in schedule_a]
    times_b = [t for t, _item in schedule_b]
    len_a, len_b = len(schedule_a), len(schedule_b)

    cuts = cover_cut_times(
        schedule_a, schedule_b, tuple(workload.join_fields), checkpoint_every
    )
    segments: List[PyTuple[Optional[float], PyTuple[int, int]]] = []
    prev = (0, 0)
    for cut_ts in cuts:
        end = (bisect_right(times_a, cut_ts), bisect_right(times_b, cut_ts))
        if end == prev or end == (len_a, len_b):
            continue  # degenerate or final-coincident cut: no segment
        segments.append((cut_ts, end))
        prev = end
    segments.append((None, (len_a, len_b)))

    trigger: Optional[_CrashTrigger] = None
    if crash_after is not None:
        trigger = _CrashTrigger(
            crash_after,
            f"seeded crash on shard {shard_index} after {crash_after} deliveries",
        )

    acc = _empty_outputs(keep_items)
    op_state: Optional[Dict[str, Any]] = None
    if initial_state is not None:
        op_state = initial_state["operator"]
        acc.update(_copy_outputs(initial_state["outputs"]))

    checkpoints_failed = 0
    seq = 0
    start = (0, 0)
    join = None
    for cut_ts, end in segments:
        if end == start:
            continue  # empty segment: nothing to deliver, cut not needed
        # Resume the virtual clock where the previous segment (or the
        # checkpointed run being resumed) left off.  The quiesce at a
        # cut can run past the next segment's first schedule times (the
        # busy tail), and the snapshot carries absolute-time dedupe
        # metadata (probe histories, departure timestamps) stamped
        # during that tail; restarting the clock at the raw schedule
        # times would put those stamps in the *future* of the new
        # segment, breaking the exactly-once pair rules.
        join, out = run_shard_slice(
            shard_index,
            (schedule_a[start[0] : end[0]], schedule_b[start[1] : end[1]]),
            workload, config, keep_items, name, governor,
            state=op_state, now=acc["virtual_now"],
            arm=trigger.arm if trigger is not None and not trigger.fired else None,
        )
        if keep_items:
            acc["results"].extend(out["results"])
        acc["punctuations"].extend(out["punctuations"])
        for key in ("result_count", "punctuation_count", "events"):
            acc[key] += out[key]
        for key, value in out["counters"].items():
            if key.startswith(_SEGMENT_SUMMED) and key not in _SEGMENT_GAUGES:
                acc["counters"][key] = acc["counters"].get(key, 0) + value
        acc["virtual_now"] = max(acc["virtual_now"], out["virtual_now"])
        acc["eos_time"] = out["eos_time"]
        start = end
        if cut_ts is None:
            break  # the final segment: nothing left to checkpoint for
        op_state = join.snapshot_state()
        state = {"operator": op_state, "outputs": _copy_outputs(acc)}
        try:
            checkpoint_store.save(shard_index, seq, cut_ts, end, state)
        except TransientIOError:
            # A checkpoint that cannot be persisted is skipped; the
            # run keeps going from the previous one.
            checkpoints_failed += 1
        else:
            if on_checkpoint is not None:
                on_checkpoint(seq, cut_ts, end, state)
        seq += 1

    if join is None:
        # Every segment was empty — a shard that received no items, or
        # a resume whose unacknowledged suffix is empty.  Nothing runs,
        # but the outcome still needs an operator counter snapshot (and
        # a final state for rescale): a quiet operator, restored on
        # resume, provides both.
        join, out = run_shard_slice(
            shard_index, None, workload, config, keep_items, name, governor,
            state=op_state,
        )
    outcome = {"shard": shard_index, **acc}
    outcome["counters"] = {**out["counters"], **acc["counters"]}
    for key, value in checkpoint_store.counters().items():
        outcome["counters"][f"checkpoint.{key}"] = value
    if checkpoints_failed:
        outcome["counters"]["checkpoint.checkpoints_failed"] = checkpoints_failed
    if final_snapshot:
        outcome["final_state"] = join.snapshot_state()
    return outcome


def run_sharded_resilient(
    workload: GeneratedWorkload,
    n_shards: int,
    config: Optional[PJoinConfig] = None,
    keep_items: bool = True,
    governor: Optional[GovernorSpec] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    crash: Optional[CrashSpec] = None,
    max_respawns: int = DEFAULT_MAX_RESPAWNS,
) -> ShardedRunOutcome:
    """The supervised multiprocess backend with crash recovery.

    Routes the workload like :func:`run_sharded_multiprocess`, but each
    worker checkpoints at cover boundaries and the parent supervises:
    a worker that dies without reporting is respawned with its latest
    checkpoint and fed the schedule suffix retained in its
    :class:`~repro.shard.router.InFlightLog`, at most *max_respawns*
    times per shard.  A worker that raises stops the run with
    :class:`~repro.errors.ShardWorkerError`.
    """
    plan = ShardPlan(workload, n_shards)
    if crash is not None and not (0 <= crash.shard < n_shards):
        raise RecoveryError(
            f"crash shard {crash.shard} out of range for K={n_shards}"
        )
    governors = shard_governors(governor, n_shards)
    recovery = {
        "checkpoints_taken": 0,
        "crashes_detected": 0,
        "workers_respawned": 0,
        "events_replayed": 0,
    }
    logs = [InFlightLog(*plan.schedules[shard]) for shard in range(n_shards)]
    latest: Dict[int, Dict[str, Any]] = {}
    respawns = [0] * n_shards
    # A worker's checkpoint positions are relative to the schedules it
    # was spawned with; the log base at spawn time translates them back
    # into absolute schedule positions.
    spawn_bases = [(0, 0)] * n_shards

    def job(
        shard: int,
        schedules: PyTuple[Schedule, Schedule],
        initial_state: Optional[Dict[str, Any]],
        crash_after: Optional[int],
    ) -> Job:
        def work(send: Callable[[Any], None]) -> Dict[str, Any]:
            return run_checkpointed_shard(
                shard, schedules[0], schedules[1], workload,
                config=config, keep_items=keep_items, governor=governors[shard],
                checkpoint_every=checkpoint_every, initial_state=initial_state,
                crash_after=crash_after,
                on_checkpoint=lambda _seq, _ts, positions, state: send(
                    (positions, state)
                ),
            )
        return work

    def on_checkpoint(shard: int, message: Any) -> None:
        positions, state = message
        base_a, base_b = spawn_bases[shard]
        logs[shard].ack(base_a + positions[0], base_b + positions[1])
        latest[shard] = state
        recovery["checkpoints_taken"] += 1

    def on_death(shard: int) -> Job:
        # Respawn from the latest checkpoint with the in-flight log's
        # unacknowledged suffix.
        recovery["crashes_detected"] += 1
        if respawns[shard] >= max_respawns:
            raise RecoveryError(
                f"shard {shard} worker died {respawns[shard] + 1} times; giving up"
            )
        respawns[shard] += 1
        recovery["workers_respawned"] += 1
        suffix = logs[shard].suffix()
        recovery["events_replayed"] += len(suffix[0]) + len(suffix[1])
        spawn_bases[shard] = logs[shard].base
        return job(shard, suffix, latest.get(shard), None)

    jobs = [
        job(shard, plan.schedules[shard], None,
            crash.after_items if crash is not None and crash.shard == shard else None)
        for shard in range(n_shards)
    ]
    merged = ShardedRunOutcome(plan, run_shard_workers(jobs, on_checkpoint, on_death))
    for key, value in recovery.items():
        merged.counters[f"recovery.{key}"] = value
    return merged
