"""The wall-clock multiprocess backend: one OS process per shard.

Splits one *run* of a PJoin across K shards, outside the simulator:

* **plan** — :class:`ShardPlan` routes the workload's schedules offline
  with the same rules the in-simulator router applies (tuples to their
  owning shard, punctuations narrowed per cover) and records the
  alignment subscriptions in arrival order;
* **run** — :func:`run_shard_slice` builds a shard's PJoin and Sink on a
  private :class:`~repro.sim.engine.SimulationEngine` and replays its
  slice.  It is the only place such a shard operator is assembled: the
  checkpoint segment loop and the rescale migration
  (:mod:`repro.checkpoint`) call it too.  Shards share no state, so a
  shard's virtual trace is identical whether it runs in the shared
  engine or alone, which is what makes the two backends agree;
* **supervise** — :func:`run_shard_workers` forks one worker per shard
  and waits for every outcome.  Payloads transfer by inheritance (no
  pickling of tuple schedules).  A worker that raises reports its
  error, which stops the run; a worker that dies silently is handed to
  the caller's respawn hook (the crash-recovery backend's).  Where
  ``fork`` is unavailable the same jobs run in-process, one after the
  other — same outcome, no parallelism;
* **merge** — :class:`ShardedRunOutcome` re-orders results by virtual
  time and replays shard punctuation frontiers through an
  :class:`~repro.shard.merger.AlignmentLedger`, yielding the same merged
  output punctuations the in-simulator
  :class:`~repro.shard.merger.AlignedMerger` emits.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple as PyTuple

from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.errors import ShardWorkerError
from repro.memory.budget import GovernorSpec
from repro.obs.manifest import operator_counters
from repro.operators.sink import Sink
from repro.punctuations.punctuation import Punctuation
from repro.punctuations.store import is_join_exploitable
from repro.query.plan import QueryPlan
from repro.shard.merger import AlignmentLedger
from repro.shard.operator import aggregate_counters, shard_governors
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


def run_shard_slice(
    shard_index: int,
    schedules: Optional[PyTuple[Schedule, Schedule]],
    workload: GeneratedWorkload,
    config: Optional[PJoinConfig] = None,
    keep_items: bool = True,
    name: str = "pjoin",
    governor: Optional[GovernorSpec] = None,
    state: Optional[Dict[str, Any]] = None,
    now: float = 0.0,
    arm: Optional[Callable[[PJoin], None]] = None,
) -> PyTuple[PJoin, Dict[str, Any]]:
    """Build one shard's PJoin and Sink and run *schedules* through it.

    The one place a shard operator outside the simulator is assembled:
    the multiprocess worker, every checkpoint segment and the rescale
    migration all call it.  *governor* is this shard's own (already
    split) budget share, *state* a :meth:`PJoin.snapshot_state` payload
    to restore, *now* the virtual clock to resume at and *arm* a hook
    applied to the join before its first delivery.  With *schedules*
    ``None`` nothing runs and the join stays quiet.

    Returns the join and the slice's plain-dict outcome.
    """
    plan = QueryPlan()
    plan.engine.now = now
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
    if state is not None:
        join.restore_state(state)
    sink = Sink(plan.engine, plan.cost_model, keep_items=keep_items)
    join.connect(sink)
    if arm is not None:
        arm(join)
    if schedules is not None:
        plan.add_source(schedules[0], join, port=0, name=f"A{shard_index}")
        plan.add_source(schedules[1], join, port=1, name=f"B{shard_index}")
        plan.run()
    out_join_index = join.join_indices[0]
    return join, {
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
        subscriptions = [
            (side, ledger.register(pattern, cover))
            for _ts, side, pattern, cover in plan.registrations
        ]
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
        # (side, original) of every promise some covering shard has not
        # propagated its piece of: what a rescale re-delivers.
        self.unsettled: List[PyTuple[int, Any]] = [
            (side, sub.original) for side, sub in subscriptions
            if sub is not None and sub.remaining
        ]

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
# Fork-and-wait supervision (inline where fork is unavailable)
# ---------------------------------------------------------------------------

_CRASH_EXIT_CODE = 23

# A shard job runs in a worker: it takes ``send`` for progress messages
# and returns the shard's outcome.
Job = Callable[[Callable[[Any], None]], Dict[str, Any]]


class SimulatedCrash(Exception):
    """A seeded worker death: a forked worker exits without reporting."""


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _worker_main(conn: Any, job: Job) -> None:
    """Run *job* in a forked worker and report back over *conn*.

    A :class:`SimulatedCrash` calls ``os._exit``: the pipe closes with
    no message, exactly like a real worker death.  Any other exception
    is reported with its type, message and traceback.
    """
    try:
        outcome = job(lambda message: conn.send(("progress", message)))
    except SimulatedCrash:
        os._exit(_CRASH_EXIT_CODE)
    except BaseException as exc:
        conn.send(("error", type(exc).__name__, str(exc),
                   traceback.format_exc()))
    else:
        conn.send(("done", outcome))
    finally:
        conn.close()


def _worker_failed(shard: int, error: str, message: str, trace: str) -> ShardWorkerError:
    return ShardWorkerError(
        f"shard {shard} worker raised {error}: {message}\n{trace}"
    )


def run_shard_workers(
    jobs: Sequence[Job],
    on_message: Optional[Callable[[int, Any], None]] = None,
    on_death: Optional[Callable[[int], Job]] = None,
) -> List[Dict[str, Any]]:
    """Run ``jobs[i]`` as shard *i*'s worker; return outcomes in shard order.

    Each job runs in a forked process, so its payload transfers by
    inheritance.  A progress message reaches ``on_message(shard,
    message)`` in the parent.  A worker that raises stops the run at
    once with :class:`~repro.errors.ShardWorkerError`.  A worker that
    dies without reporting is handed to ``on_death(shard)``, which
    returns the job to respawn it with or raises; without *on_death* a
    death raises :class:`~repro.errors.ShardWorkerError`.

    Where ``fork`` is unavailable the jobs run in-process, one after
    the other, with the same semantics: messages are copied as the
    pipe would copy them and a :class:`SimulatedCrash` counts as a
    death.  Same outcome, no parallelism.
    """

    def respawn(shard: int) -> Job:
        if on_death is None:
            raise ShardWorkerError(f"shard {shard} worker died without reporting")
        return on_death(shard)

    def deliver(shard: int, message: Any) -> None:
        if on_message is not None:
            on_message(shard, message)

    if not fork_available():
        outcomes: List[Dict[str, Any]] = []
        for shard, job in enumerate(jobs):
            def send(message: Any, shard: int = shard) -> None:
                deliver(shard, pickle.loads(pickle.dumps(message)))

            while True:
                try:
                    outcomes.append(job(send))
                    break
                except SimulatedCrash:
                    job = respawn(shard)
                except Exception as exc:
                    raise _worker_failed(
                        shard, type(exc).__name__, str(exc),
                        traceback.format_exc(),
                    ) from exc
        return outcomes

    ctx = multiprocessing.get_context("fork")
    conns: Dict[int, Any] = {}
    procs: Dict[int, Any] = {}

    def spawn(shard: int, job: Job) -> None:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_worker_main, args=(child_conn, job), daemon=True)
        proc.start()
        child_conn.close()
        conns[shard] = parent_conn
        procs[shard] = proc

    for shard, job in enumerate(jobs):
        spawn(shard, job)
    done: Dict[int, Dict[str, Any]] = {}
    try:
        while len(done) < len(jobs):
            pending = {conn: shard for shard, conn in conns.items() if shard not in done}
            for conn in connection_wait(list(pending)):
                shard = pending[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    conn.close()
                    procs[shard].join()
                    spawn(shard, respawn(shard))
                    continue
                if message[0] == "progress":
                    deliver(shard, message[1])
                elif message[0] == "done":
                    done[shard] = message[1]
                else:
                    raise _worker_failed(shard, *message[1:])
    finally:
        for conn in conns.values():
            conn.close()
        for shard, proc in procs.items():
            if shard in done:
                proc.join(timeout=5.0)
            if proc.is_alive():  # unreported after a failure, or hung
                proc.terminate()
                proc.join()
    return [done[shard] for shard in range(len(jobs))]


def run_sharded_multiprocess(
    workload: GeneratedWorkload,
    n_shards: int,
    config: Optional[PJoinConfig] = None,
    keep_items: bool = True,
    governor: Optional[GovernorSpec] = None,
) -> ShardedRunOutcome:
    """Plan, fork, run and merge one sharded PJoin over *workload*.

    *governor* is the **global** budget; each shard receives its split
    share, so the per-shard budgets sum to the global one.
    """
    plan = ShardPlan(workload, n_shards)
    governors = shard_governors(governor, n_shards)

    def job(shard: int) -> Job:
        return lambda send: run_shard_slice(
            shard, plan.schedules[shard], workload, config, keep_items,
            governor=governors[shard],
        )[1]

    return ShardedRunOutcome(
        plan, run_shard_workers([job(shard) for shard in range(n_shards)])
    )
