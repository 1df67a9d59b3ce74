"""The wall-clock multiprocess backend: one OS process per shard.

Mirrors the PR 3 sweep runner's plan/worker/merge shape, but splits one
*run* instead of many runs:

* **plan** — :func:`plan_shards` routes the workload's schedules offline
  with the same rules the in-simulator router applies (tuples to their
  owning shard, punctuations narrowed per cover) and records the
  alignment subscriptions in arrival order;
* **worker** — each shard process replays its slice through a private
  :class:`~repro.sim.engine.SimulationEngine`; shards share no state,
  so a shard's virtual trace is identical whether it runs in the shared
  engine or alone, which is what makes the two backends agree;
* **merge** — results are re-ordered deterministically by
  ``(virtual time, shard, sequence)`` and shard punctuation frontiers
  are replayed through an :class:`~repro.shard.merger.AlignmentLedger`,
  yielding the same merged output punctuations the in-simulator
  :class:`~repro.shard.merger.AlignedMerger` emits.

Worker processes are forked, so shard payloads transfer by inheritance
(no pickling of tuple schedules); each worker blocks on a pipe until
released, so a wall clock around :meth:`ShardWorkerPool.run` times only
the simulation work, not process start-up.  On platforms without
``fork`` the backend degrades to running the shard simulations
sequentially in-process — same outcome, no parallelism.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple as PyTuple

from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.memory.budget import GovernorSpec
from repro.obs.manifest import operator_counters
from repro.operators.sink import Sink
from repro.punctuations.punctuation import Punctuation
from repro.punctuations.store import is_join_exploitable
from repro.query.plan import QueryPlan
from repro.shard.merger import AlignmentLedger
from repro.shard.operator import aggregate_counters
from repro.shard.routing import narrow_punctuation, shard_cover, shard_of
from repro.tuples.tuple import Tuple
from repro.workloads.generator import GeneratedWorkload

Schedule = List[PyTuple[float, Any]]


class ShardPlan:
    """The offline routing of one workload across K shards."""

    def __init__(
        self,
        workload: GeneratedWorkload,
        n_shards: int,
    ) -> None:
        self.workload = workload
        self.n_shards = n_shards
        self.schedules: List[PyTuple[Schedule, Schedule]] = [
            ([], []) for _ in range(n_shards)
        ]
        # (ts, side, original_join_pattern, cover) in arrival order —
        # replayed into an AlignmentLedger by the merge step.
        self.registrations: List[PyTuple[float, int, Any, Any]] = []
        self._route()

    def _route(self) -> None:
        workload = self.workload
        join_indices = [
            workload.schemas[side].index_of(workload.join_fields[side])
            for side in (0, 1)
        ]
        registrations = []
        for side in (0, 1):
            join_index = join_indices[side]
            join_field = workload.join_fields[side]
            for order, (time, item) in enumerate(workload.schedules[side]):
                if isinstance(item, Tuple):
                    target = shard_of(item.values[join_index], self.n_shards)
                    self.schedules[target][side].append((time, item))
                elif isinstance(item, Punctuation):
                    cover = shard_cover(item.patterns[join_index], self.n_shards)
                    if not cover:
                        continue
                    if is_join_exploitable(item, join_field):
                        registrations.append(
                            (time, side, order, item.patterns[join_index], cover)
                        )
                    for shard, narrowed in cover:
                        self.schedules[shard][side].append(
                            (time, narrow_punctuation(item, join_index, shard, narrowed))
                        )
                else:
                    for shard in range(self.n_shards):
                        self.schedules[shard][side].append((time, item))
        registrations.sort(key=lambda r: (r[0], r[1], r[2]))
        self.registrations = [(t, side, pat, cover)
                              for t, side, _order, pat, cover in registrations]


def run_shard_simulation(
    shard_index: int,
    schedule_a: Schedule,
    schedule_b: Schedule,
    workload: GeneratedWorkload,
    config: Optional[PJoinConfig],
    keep_items: bool,
    name: str = "pjoin",
    governor: Optional[GovernorSpec] = None,
) -> Dict[str, Any]:
    """Run one shard's slice to completion; return its plain-dict outcome.

    *governor* is this shard's own (already split) budget share.
    """
    plan = QueryPlan()
    join = PJoin(
        plan.engine,
        plan.cost_model,
        workload.schemas[0],
        workload.schemas[1],
        workload.join_fields[0],
        workload.join_fields[1],
        config=config,
        name=f"{name}.shard{shard_index}",
        governor=governor,
    )
    sink = Sink(plan.engine, plan.cost_model, keep_items=keep_items)
    join.connect(sink)
    plan.add_source(schedule_a, join, port=0, name=f"A{shard_index}")
    plan.add_source(schedule_b, join, port=1, name=f"B{shard_index}")
    plan.run()
    out_join_index = join.join_indices[0]
    return {
        "shard": shard_index,
        "results": [(tup.values, tup.ts) for tup in sink.results]
        if keep_items else None,
        "result_count": sink.tuple_count,
        "punctuations": [
            (punct.patterns[out_join_index], punct.ts)
            for punct in sink.punctuations
        ] if keep_items else [],
        "punctuation_count": sink.punctuation_count,
        "counters": operator_counters(join),
        "events": plan.engine.events_executed,
        "virtual_now": plan.engine.now,
        "eos_time": sink.eos_time,
    }


class ShardedRunOutcome:
    """The merged view of one sharded multiprocess run."""

    def __init__(
        self,
        plan: ShardPlan,
        shard_outcomes: Sequence[Dict[str, Any]],
    ) -> None:
        self.n_shards = plan.n_shards
        self.shard_outcomes = list(shard_outcomes)
        self.result_count = sum(o["result_count"] for o in self.shard_outcomes)
        self.events = sum(o["events"] for o in self.shard_outcomes)
        self.virtual_now = max(
            (o["virtual_now"] for o in self.shard_outcomes), default=0.0
        )
        self.counters = aggregate_counters(
            [o["counters"] for o in self.shard_outcomes]
        )
        self.counters["shards"] = self.n_shards
        # Deterministic merged result order: (virtual time, shard, seq).
        self.results: List[PyTuple[tuple, float]] = []
        for outcome in self.shard_outcomes:
            if outcome["results"] is not None:
                self.results.extend(outcome["results"])
        self.results.sort(key=lambda r: r[1])
        # Merged output punctuations via ledger replay.
        ledger = AlignmentLedger()
        for _ts, _side, pattern, cover in plan.registrations:
            ledger.register(pattern, cover)
        arrivals = []
        for outcome in self.shard_outcomes:
            for index, (pattern, ts) in enumerate(outcome["punctuations"]):
                arrivals.append((ts, outcome["shard"], index, pattern))
        arrivals.sort(key=lambda a: (a[0], a[1], a[2]))
        self.punctuations: List[PyTuple[Any, float]] = []
        self.punctuations_unaligned = 0
        for ts, shard, _index, pattern in arrivals:
            matched, original = ledger.settle(shard, pattern)
            if not matched:
                self.punctuations_unaligned += 1
            elif original is not None:
                self.punctuations.append((original, ts))

    def result_multiset(self) -> Dict[tuple, int]:
        counts: Dict[tuple, int] = {}
        for values, _ts in self.results:
            counts[values] = counts.get(values, 0) + 1
        return counts

    def punctuation_multiset(self) -> Dict[Any, int]:
        counts: Dict[Any, int] = {}
        for pattern, _ts in self.punctuations:
            counts[pattern] = counts.get(pattern, 0) + 1
        return counts


# ---------------------------------------------------------------------------
# Worker-process plumbing (fork + pipe; workers idle until released)
# ---------------------------------------------------------------------------


def _shard_worker_main(conn, shard_index, schedule_a, schedule_b, workload,
                       config, keep_items, governor=None) -> None:
    """Worker loop: run the inherited slice once per ``"go"`` message."""
    try:
        while True:
            message = conn.recv()
            if message != "go":
                break
            outcome = run_shard_simulation(
                shard_index, schedule_a, schedule_b, workload, config,
                keep_items, governor=governor,
            )
            conn.send(outcome)
    finally:
        conn.close()


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class ShardWorkerPool:
    """K forked shard workers, each parked on a pipe until released.

    Created outside a timed window (process start-up and payload
    transfer-by-fork are setup, not simulation); :meth:`run` releases
    every worker and gathers the shard outcomes, so a wall clock around
    it times only simulation work plus the small outcome pickles.
    """

    def __init__(
        self,
        plan: ShardPlan,
        config: Optional[PJoinConfig] = None,
        keep_items: bool = False,
        governor: Optional[GovernorSpec] = None,
    ) -> None:
        self.plan = plan
        self.config = config
        self.keep_items = keep_items
        self.governor = governor
        shard_governors = (
            governor.split(plan.n_shards) if governor is not None
            else [None] * plan.n_shards
        )
        ctx = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        for shard in range(plan.n_shards):
            parent_conn, child_conn = ctx.Pipe()
            schedule_a, schedule_b = plan.schedules[shard]
            proc = ctx.Process(
                target=_shard_worker_main,
                args=(child_conn, shard, schedule_a, schedule_b,
                      plan.workload, config, keep_items,
                      shard_governors[shard]),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def run(self) -> ShardedRunOutcome:
        """Release every worker, gather outcomes, merge deterministically."""
        for conn in self._conns:
            conn.send("go")
        outcomes = [conn.recv() for conn in self._conns]
        return ShardedRunOutcome(self.plan, outcomes)

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send("stop")
                conn.close()
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        self._conns = []
        self._procs = []


def run_sharded_multiprocess(
    workload: GeneratedWorkload,
    n_shards: int,
    config: Optional[PJoinConfig] = None,
    keep_items: bool = True,
    governor: Optional[GovernorSpec] = None,
) -> ShardedRunOutcome:
    """Plan, fork, run and merge one sharded PJoin over *workload*.

    *governor* is the **global** budget; each shard receives its split
    share, so the per-shard budgets sum to the global one.  Falls back
    to sequential in-process shard simulations where ``fork`` is
    unavailable — identical outcome, no parallelism.
    """
    plan = ShardPlan(workload, n_shards)
    if not fork_available():  # pragma: no cover - non-POSIX fallback
        shard_governors = (
            governor.split(n_shards) if governor is not None
            else [None] * n_shards
        )
        outcomes = [
            run_shard_simulation(
                shard, plan.schedules[shard][0], plan.schedules[shard][1],
                workload, config, keep_items,
                governor=shard_governors[shard],
            )
            for shard in range(n_shards)
        ]
        return ShardedRunOutcome(plan, outcomes)
    pool = ShardWorkerPool(
        plan, config=config, keep_items=keep_items, governor=governor
    )
    try:
        return pool.run()
    finally:
        pool.close()
