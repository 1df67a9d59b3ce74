"""Which calls the traced run wraps, and the per-layer metrics they give.

A layer is a module of the program.  Each wrapped callable opens a span
named ``<layer>.<boundary>``; a layer's self time is the summed self
time of its spans.  Boundaries (all wrapped from here, nothing switched
on inside the program):

==================  ===================================================
span                wrapped callable
==================  ===================================================
sim                 ``SimulationEngine.run`` of the run's engine
streams             ``StreamSource._deliver``: a source hands an item
                    to the join's input queue
core.pjoin.handle   each PJoin's installed ``handle`` (fast path or not)
core.nary.handle    the NaryPJoin's installed ``handle``
core.nary.purge     ``NaryPJoin._purge_all``
operators.emit      ``emit_joins`` / ``NaryPJoin._emit_combinations``
operators.sink      ``Sink.accept_batch`` and ``Sink.handle``
operators.queue     each join operator's (and the merger's) ``_pump``
                    and ``_finish_item``: the base operator's input
                    queue and outbox delivery, which have no public
                    entry point
storage.probe       each side table's ``probe``
storage.insert      each side table's ``insert``
punctuations.add    each side's ``add_punctuation``
punctuations.covers each side store's ``covers_value``
core.purge          ``repro.core.pjoin.purge_side``
core.index          each side index's ``build``
core.propagation    ``run_propagation`` as PJoin and NaryPJoin call it
planner             ``Reoptimizer.on_cover_boundary``
memory              the governor's ``fault_in`` / ``fault_in_all`` /
                    ``after_insert``
storage.disk        the join's ``SimulatedDisk.read`` / ``write``
shard.router        the shard router's ``push``
shard.merger        the aligned merger's ``handle``
skew.sketch         ``SkewManager.observe`` and the hot-key router's
                    sketch ``observe``
skew.restructure    ``SkewManager.maybe_restructure``
harness (root)      the whole ``run_join_experiment`` call; its self
                    time is the unattributed remainder
==================  ===================================================

Checkpoint, resilience and obs are left unmeasured: no workload turns
them on.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.core.nary
import repro.core.pjoin
from repro.operators import fastpath
from repro.operators.sink import Sink
from repro.streams.source import StreamSource
from repro.tuples.item import END_OF_STREAM

from oracle import percentile
from spans import Patches, SpanRecorder

# Per-layer metric names, in the order they are printed.
METRICS = (
    "operators.emit_results",
    "operators.emit_self_s",
    "operators.sink_batches",
    "operators.sink_self_s",
    "operators.queue_self_s",
    "core.pjoin.handle_self_s",
    "storage.probes",
    "storage.probe_self_s",
    "storage.probe_hit_ratio",
    "storage.candidates_per_probe",
    "storage.inserts",
    "storage.insert_self_s",
    "core.purge.runs",
    "core.purge.self_s",
    "core.purge.scanned",
    "core.purge.removed_ratio",
    "punctuations.adds",
    "punctuations.covers_calls",
    "punctuations.self_s",
    "core.index.builds",
    "core.index.self_s",
    "core.index.entries",
    "core.propagation.runs",
    "core.propagation.self_s",
    "core.propagation.emitted_ratio",
    "punctuations_out",
    "core.nary.handle_self_s",
    "core.nary.purge_self_s",
    "core.nary.purge_scanned",
    "core.nary.purge_removed_ratio",
    "planner.reopts",
    "planner.self_s",
    "planner.switches",
    "memory.spills",
    "memory.faults",
    "memory.faults_per_probe",
    "memory.evictions_denied",
    "memory.self_s",
    "storage.disk.tuples_written",
    "storage.disk.tuples_read",
    "storage.disk.retries",
    "storage.disk.self_s",
    "shard.routed",
    "shard.router_self_s",
    "shard.merger_self_s",
    "shard.imbalance",
    "skew.sketch_self_s",
    "skew.restructure_self_s",
    "skew.splits",
    "skew.entries_moved",
    "skew.hot_activations",
    "skew.replica_copies",
    "core.state.mean_tuples",
    "sim.events",
    "sim.self_s",
    "streams.items",
    "streams.self_s",
    "streams.max_queue",
    "streams.queue_wait_p99_ms",
    "trace.overhead_ratio",
    "trace.unattributed_share",
    "result_errors",
)

# Wall-clock self-time metrics, and the span names each one sums.
SELF_TIMES = {
    "operators.emit_self_s": ("operators.emit",),
    "operators.sink_self_s": ("operators.sink",),
    "operators.queue_self_s": ("operators.queue",),
    "core.pjoin.handle_self_s": ("core.pjoin.handle",),
    "storage.probe_self_s": ("storage.probe",),
    "storage.insert_self_s": ("storage.insert",),
    "core.purge.self_s": ("core.purge",),
    "punctuations.self_s": ("punctuations.add", "punctuations.covers"),
    "core.index.self_s": ("core.index",),
    "core.propagation.self_s": ("core.propagation",),
    "core.nary.handle_self_s": ("core.nary.handle",),
    "core.nary.purge_self_s": ("core.nary.purge",),
    "planner.self_s": ("planner",),
    "memory.self_s": ("memory",),
    "storage.disk.self_s": ("storage.disk",),
    "shard.router_self_s": ("shard.router",),
    "shard.merger_self_s": ("shard.merger",),
    "skew.sketch_self_s": ("skew.sketch",),
    "skew.restructure_self_s": ("skew.restructure",),
    "sim.self_s": ("sim",),
    "streams.self_s": ("streams",),
}

ROOT = "harness"


def join_operators(join: Any) -> List[Any]:
    """The operators doing the join: the join itself or its shards."""
    return list(getattr(join, "shards", None) or [join])


def fastpath_map(join: Any) -> List[bool]:
    """Which join operators carry a fast-path ``handle``."""
    return [fastpath.has_fastpath(op) for op in join_operators(join)]


class Tally:
    """Counts gathered at the wrapped boundaries during one traced run."""

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)
        self.queue_waits: List[float] = []

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount


class TracedRun:
    """Wraps every layer boundary of one run; undoes it all afterwards."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.tally = Tally()
        self.patches = Patches()
        self.fastpaths: Optional[List[bool]] = None

    # -- installation ---------------------------------------------------

    def _span(
        self, owner: Any, attr: str, name: str,
        on_exit: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        self.patches.replace(
            owner, attr, lambda fn: self.recorder.wrap(name, fn, on_exit)
        )

    def install_static(self) -> None:
        """Wrap what exists before the join is built."""
        tally = self.tally

        def purged(_args: tuple, result: Any) -> None:
            tally.add("purge.scanned", result.scanned)
            tally.add("purge.removed", result.removed)

        def propagated(_args: tuple, result: Any) -> None:
            tally.add("propagation.checked", result.checked)
            tally.add("propagation.emitted", result.propagated)

        self._span(Sink, "accept_batch", "operators.sink")
        self._span(Sink, "handle", "operators.sink")
        self._span(StreamSource, "_deliver", "streams")
        self._span(repro.core.pjoin, "purge_side", "core.purge", purged)
        for module in (repro.core.pjoin, repro.core.nary):
            self._span(module, "run_propagation", "core.propagation", propagated)

    def install_join(self, join: Any) -> None:
        """Wrap the built join's instances (called before it runs)."""
        self.fastpaths = fastpath_map(join)
        tally = self.tally
        self._span(join.engine, "run", "sim")
        router = getattr(join, "router", None)
        if router is not None:
            self._span(router, "push", "shard.router")
            self._span(join.merger, "handle", "shard.merger")
            self._queue_spans(join.merger)
            sketch = getattr(router, "sketch", None)
            if sketch is not None:
                self._span(sketch, "observe", "skew.sketch")

        def probed(_args: tuple, result: Any) -> None:
            occupancy, matches = result
            tally.add("probe.occupancy", occupancy)
            if matches:
                tally.add("probe.hits")

        def indexed(_args: tuple, result: Any) -> None:
            tally.add("index.entries", result.scanned)

        for op in join_operators(join):
            nary = isinstance(op, repro.core.nary.NaryPJoin)
            self._queue_waits(op, "core.nary.handle" if nary else "core.pjoin.handle")
            self._queue_spans(op)
            if nary:
                self._span(op, "_emit_combinations", "operators.emit")
                self._nary_purge(op)
                if op.reoptimizer is not None:
                    self._span(op.reoptimizer, "on_cover_boundary", "planner")
            else:
                self._span(op, "emit_joins", "operators.emit")
            for side in op.sides:
                self._span(side.table, "probe", "storage.probe", probed)
                self._span(side.table, "insert", "storage.insert")
                self._span(side, "add_punctuation", "punctuations.add")
                self._span(side.store, "covers_value", "punctuations.covers")
                self._span(side.index, "build", "core.index", indexed)
            governor = getattr(op, "governor", None)
            if governor is not None:
                for attr in ("fault_in", "fault_in_all", "after_insert"):
                    self._span(governor, attr, "memory")
            disk = getattr(op, "disk", None)
            if disk is not None:
                self._span(disk, "read", "storage.disk")
                self._span(disk, "write", "storage.disk")
            skew = getattr(op, "skew", None)
            if skew is not None:
                self._span(skew, "observe", "skew.sketch")
                self._span(skew, "maybe_restructure", "skew.restructure")

    def _queue_waits(self, op: Any, handle_span: str) -> None:
        """Span *op*'s ``handle``; time each item's wait in its queue."""
        engine = op.engine
        enqueued: Dict[int, float] = {}
        waits = self.tally.queue_waits

        def make_push(push: Callable[..., None]) -> Callable[..., None]:
            def timed_push(item: Any, port: int = 0) -> None:
                if item is not END_OF_STREAM:
                    enqueued[id(item)] = engine.now
                push(item, port)

            return timed_push

        def dequeued(args: tuple, _result: Any) -> None:
            start = enqueued.pop(id(args[0]), None)
            if start is not None:
                waits.append(engine.now - start)

        self.patches.replace(op, "push", make_push)
        self._span(op, "handle", handle_span, dequeued)

    def _queue_spans(self, op: Any) -> None:
        self._span(op, "_pump", "operators.queue")
        self._span(op, "_finish_item", "operators.queue")

    def _nary_purge(self, op: Any) -> None:
        tally = self.tally

        def make(purge_all: Callable[[], float]) -> Callable[[], float]:
            def counted() -> float:
                tally.add("nary.scanned", sum(s.memory_size for s in op.sides))
                before = op.tuples_purged
                cost = purge_all()
                tally.add("nary.removed", op.tuples_purged - before)
                return cost

            return self.recorder.wrap("core.nary.purge", counted)

        self.patches.replace(op, "_purge_all", make)

    # -- running --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator["TracedRun"]:
        self.install_static()
        try:
            yield self
        finally:
            self.patches.undo()

    def root(self, fn: Callable[[], Any]) -> Any:
        return self.recorder.wrap(ROOT, fn)()

    # -- metrics --------------------------------------------------------

    def metrics(self, run: Any) -> Dict[str, float]:
        """Every per-layer metric of this run except the two the caller
        owns (``trace.overhead_ratio`` and ``result_errors``)."""
        calls = self.recorder.calls
        counts = self.tally.counts
        self_s = self.recorder.self_seconds()
        join = run.join
        ops = join_operators(join)
        governors = [op.governor for op in ops if getattr(op, "governor", None)]
        disks = [op.disk for op in ops if getattr(op, "disk", None) is not None]
        skews = [op.skew for op in ops if getattr(op, "skew", None) is not None]
        router = getattr(join, "router", None)
        reopt = [op.reoptimizer for op in ops if getattr(op, "reoptimizer", None)]
        probes = calls["storage.probe"]
        shard_in = [op.tuples_in for op in ops]
        waits = sorted(self.tally.queue_waits)
        total = self.recorder.total_seconds()
        out: Dict[str, float] = {
            "operators.emit_results": sum(op.results_produced for op in ops),
            "operators.sink_batches": calls["operators.sink"],
            "storage.probes": probes,
            "storage.probe_hit_ratio": _ratio(counts["probe.hits"], probes),
            "storage.candidates_per_probe": _ratio(counts["probe.occupancy"], probes),
            "storage.inserts": calls["storage.insert"],
            "core.purge.runs": calls["core.purge"],
            "core.purge.scanned": counts["purge.scanned"],
            "core.purge.removed_ratio": _ratio(
                counts["purge.removed"], counts["purge.scanned"]
            ),
            "punctuations.adds": calls["punctuations.add"],
            "punctuations.covers_calls": calls["punctuations.covers"],
            "core.index.builds": calls["core.index"],
            "core.index.entries": counts["index.entries"],
            "core.propagation.runs": calls["core.propagation"],
            "core.propagation.emitted_ratio": _ratio(
                counts["propagation.emitted"], counts["propagation.checked"]
            ),
            "punctuations_out": run.punctuations_out,
            "core.nary.purge_scanned": counts["nary.scanned"],
            "core.nary.purge_removed_ratio": _ratio(
                counts["nary.removed"], counts["nary.scanned"]
            ),
            "planner.reopts": sum(r.reopt_count for r in reopt),
            "planner.switches": sum(r.switches for r in reopt),
            "memory.spills": sum(g.spills for g in governors),
            "memory.faults": sum(g.faults for g in governors),
            "memory.faults_per_probe": _ratio(
                sum(g.faults for g in governors), probes
            ),
            "memory.evictions_denied": sum(g.evictions_denied for g in governors),
            "storage.disk.tuples_written": sum(d.tuples_written for d in disks),
            "storage.disk.tuples_read": sum(d.tuples_read for d in disks),
            "storage.disk.retries": sum(
                d.counters().get("fault.retries", 0) for d in disks
            ),
            "shard.routed": router.tuples_routed if router is not None else 0,
            "shard.imbalance": (
                max(shard_in) * len(shard_in) / sum(shard_in)
                if router is not None and sum(shard_in) else 0.0
            ),
            "skew.splits": sum(s.splits for s in skews),
            "skew.entries_moved": sum(s.entries_moved for s in skews),
            "skew.hot_activations": getattr(router, "hot_activations", 0),
            "skew.replica_copies": getattr(router, "replica_copies", 0),
            "core.state.mean_tuples": run.mean_state(),
            "sim.events": join.engine.events_executed,
            "streams.items": calls["streams"],
            "streams.max_queue": max(op.max_queue_length for op in ops),
            "streams.queue_wait_p99_ms": percentile(waits, 0.99) if waits else 0.0,
            "trace.unattributed_share": _ratio(self_s.get(ROOT, 0.0), total),
        }
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(self_s.get(name, 0.0) for name in names)
        return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def shape_failures(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Guards that keep each workload stressing the layers it was chosen for."""
    failures = []

    def require(ok: bool, what: str) -> None:
        if not ok:
            failures.append(f"{workload}: {what}")

    m = metrics
    if workload == "fig5_eager":
        require(
            m["operators.emit_self_s"] > m["core.purge.self_s"],
            "result emission must outweigh purge",
        )
        require(
            m["core.index.builds"] == 0 and m["core.propagation.runs"] == 0,
            "index build and propagation must do no work",
        )
    if workload == "punct_dense":
        require(
            m["core.purge.self_s"] + m["core.index.self_s"]
            > m["operators.emit_self_s"],
            "purge plus index build must outweigh result emission",
        )
    if workload == "nary_drift":
        require(m["core.nary.purge_self_s"] > 0, "n-ary purge must run")
        require(m["planner.reopts"] > 0, "the planner must re-plan")
    layered = [k for k in m if k.startswith(("memory.", "skew."))]
    if workload == "zipf_governed":
        for key in ("memory.spills", "memory.faults", "memory.self_s",
                    "storage.disk.self_s", "shard.router_self_s",
                    "skew.sketch_self_s", "skew.hot_activations"):
            require(m[key] > 0, f"{key} must be non-zero")
    else:
        zero = [k for k in layered if m[k]]
        require(not zero, f"memory/skew layers must be idle, saw {zero}")
    return failures
