"""Run one join over one workload and collect the paper's metrics.

The harness assembles the plan ``sources → join → sink``, samples state
sizes and cumulative output over virtual time, runs the simulation to
completion and returns an :class:`ExperimentRun` with everything the
figures need: time series, final counters and derived statistics.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, Optional

from repro.core.config import PJoinConfig
from repro.core.nary import NaryPJoin
from repro.core.pjoin import PJoin
from repro.core.registry import EventListenerRegistry
from repro.memory.budget import GovernorSpec
from repro.planner.spec import PlannerSpec
from repro.metrics.collector import MetricsCollector
from repro.metrics.series import TimeSeries
from repro.obs.manifest import build_manifest
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer
from repro.operators.base import Operator
from repro.operators.shj import SymmetricHashJoin
from repro.operators.sink import Sink
from repro.operators.xjoin import XJoin
from repro.query.plan import QueryPlan
from repro.sim.costs import CostModel
from repro.workloads.generator import GeneratedWorkload

# A factory builds the join under test inside the experiment's plan.
JoinFactory = Callable[[QueryPlan, GeneratedWorkload], Operator]

# Tracer installed by the tracing() context manager; every
# run_join_experiment call inside the block attaches it to its engine.
_ACTIVE_TRACER: Optional[Tracer] = None

# Interceptor installed by intercepting_runs(); when set, every
# run_join_experiment call is routed through it instead of executing.
_RUN_INTERCEPTOR: Optional[Callable[..., Any]] = None

# Shard count installed by the sharding() context manager; when set, the
# stock join factories build the sharded stack instead of a plain join.
_ACTIVE_SHARDS: Optional[int] = None

# Governor spec installed by the governed() context manager; when set,
# the stock join factories attach a memory governor to every join they
# build (split across shards under an active sharding() block).
_ACTIVE_GOVERNOR: Optional[GovernorSpec] = None

# Profiler installed by the profiling() context manager; when set,
# every run is instrumented (hot-path callables shadowed) just before
# execution and restored right after, and the run carries the
# profiler's snapshot.  When unset, nothing is shadowed: the unprofiled
# path is byte-for-byte today's code.
_ACTIVE_PROFILER: Optional[Profiler] = None

# Planner spec installed by the planning() context manager; when set,
# the n-ary stock factory builds its joins with this spec (the CLI's
# --planner flag).  When unset, joins are unplanned: stream order,
# byte-identical to pre-planner builds.
_ACTIVE_PLANNER: Optional[PlannerSpec] = None

# Skew spec installed by the skewed() context manager; when set, the
# stock PJoin factory attaches the skew layer (sketch + adaptive
# tables, and the hot-key router under sharding).  When unset, joins
# build stock tables on the byte-identical default path.
_ACTIVE_SKEW: Optional[Any] = None


@contextlib.contextmanager
def skewed(spec: Optional[Any]) -> Iterator[None]:
    """Attach the skew layer to every stock PJoin built in this block.

    The ``skew`` check suite and the skew-sweep figure use this to
    re-run unmodified experiment presets skew-adaptively: *spec* is a
    :class:`~repro.skew.manager.SkewSpec`; :func:`pjoin_factory`
    consults it when building (plain or sharded).  ``skewed(None)``
    restores stock builds.
    """
    global _ACTIVE_SKEW
    previous = _ACTIVE_SKEW
    _ACTIVE_SKEW = spec
    try:
        yield
    finally:
        _ACTIVE_SKEW = previous


def active_skew() -> Optional[Any]:
    """The skew spec installed by :func:`skewed`, if any."""
    return _ACTIVE_SKEW


@contextlib.contextmanager
def planning(spec: Optional[PlannerSpec]) -> Iterator[None]:
    """Build every stock n-ary join in this block with a planner spec.

    The CLI's ``--planner {static,adaptive}`` uses this to re-run
    unmodified experiment presets under the cost-based planner:
    :func:`nary_pjoin_factory` consults the active spec when its own
    ``planner`` argument is ``None``.  ``planning(None)`` restores
    unplanned builds (the byte-identical default path).
    """
    global _ACTIVE_PLANNER
    previous = _ACTIVE_PLANNER
    _ACTIVE_PLANNER = spec
    try:
        yield
    finally:
        _ACTIVE_PLANNER = previous


def active_planner() -> Optional[PlannerSpec]:
    """The planner spec installed by :func:`planning`, if any."""
    return _ACTIVE_PLANNER


@contextlib.contextmanager
def governed(spec: Optional[GovernorSpec]) -> Iterator[None]:
    """Attach a memory governor to every stock-factory join built here.

    The CLI's ``--memory-budget``/``--eviction-policy`` use this to
    re-run unmodified experiment presets under a state budget.  Under an
    active :func:`sharding` block the spec is split so the per-shard
    budgets sum to the global one.  ``governed(None)`` restores
    ungoverned builds.
    """
    global _ACTIVE_GOVERNOR
    previous = _ACTIVE_GOVERNOR
    _ACTIVE_GOVERNOR = spec
    try:
        yield
    finally:
        _ACTIVE_GOVERNOR = previous


def active_governor() -> Optional[GovernorSpec]:
    """The governor spec installed by :func:`governed`, if any."""
    return _ACTIVE_GOVERNOR


@contextlib.contextmanager
def sharding(n_shards: Optional[int]) -> Iterator[None]:
    """Build every stock-factory join as a K-shard stack in this block.

    The CLI's ``--shards K`` uses this to re-run unmodified experiment
    presets sharded: :func:`pjoin_factory`, :func:`xjoin_factory` and
    :func:`shj_factory` consult the active shard count when they build.
    ``sharding(1)`` still builds the sharded stack (router, one shard,
    merger) — it replays the unsharded execution byte-for-byte, which is
    the subsystem's equivalence anchor.  ``sharding(None)`` restores the
    plain operators.
    """
    global _ACTIVE_SHARDS
    if n_shards is not None and n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    previous = _ACTIVE_SHARDS
    _ACTIVE_SHARDS = n_shards
    try:
        yield
    finally:
        _ACTIVE_SHARDS = previous


def active_shards() -> Optional[int]:
    """The shard count installed by :func:`sharding`, if any."""
    return _ACTIVE_SHARDS


@contextlib.contextmanager
def profiling(profiler: Optional[Profiler] = None) -> Iterator[Profiler]:
    """Profile every experiment run inside the ``with`` block.

    The CLI's ``repro profile`` uses this to measure unmodified
    experiment presets: :func:`execute_join_experiment` instruments the
    built plan with the active profiler before running it and restores
    the instrumentation afterwards, so shared objects (cost models,
    tracers) never leak timing shadows into later runs.  Yields the
    profiler so callers can read its snapshot and histograms.
    """
    global _ACTIVE_PROFILER
    if profiler is None:
        profiler = Profiler()
    previous = _ACTIVE_PROFILER
    _ACTIVE_PROFILER = profiler
    try:
        yield profiler
    finally:
        _ACTIVE_PROFILER = previous


def active_profiler() -> Optional[Profiler]:
    """The profiler installed by :func:`profiling`, if any."""
    return _ACTIVE_PROFILER


@contextlib.contextmanager
def intercepting_runs(interceptor: Callable[..., Any]) -> Iterator[None]:
    """Route every ``run_join_experiment`` call to *interceptor*.

    The parallel sweep runner (:mod:`repro.perf.parallel`) uses this to
    re-drive an unmodified experiment function while substituting each
    of its runs: the interceptor receives exactly the arguments of
    :func:`run_join_experiment` and its return value is returned to the
    experiment function.  Call :func:`execute_join_experiment` from
    inside an interceptor to really execute a run.
    """
    global _RUN_INTERCEPTOR
    previous = _RUN_INTERCEPTOR
    _RUN_INTERCEPTOR = interceptor
    try:
        yield
    finally:
        _RUN_INTERCEPTOR = previous


@contextlib.contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Trace every experiment run inside the ``with`` block.

    The CLI's ``repro trace fig08`` uses this to instrument experiment
    presets without threading a tracer through every preset function:
    ``run_join_experiment`` consults the active tracer when its own
    ``tracer`` argument is ``None``.  Yields the tracer so callers can
    export its events afterwards.
    """
    global _ACTIVE_TRACER
    if tracer is None:
        tracer = Tracer()
    previous = _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer
    try:
        yield tracer
    finally:
        _ACTIVE_TRACER = previous


class ExperimentRun:
    """Everything measured in one experiment run."""

    def __init__(
        self,
        label: str,
        join: Operator,
        sink: Sink,
        series: Dict[str, TimeSeries],
        duration_ms: float,
        manifest: Optional[Dict[str, Any]] = None,
        tracer: Optional[Tracer] = None,
        profile: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.label = label
        self.join = join
        self.sink = sink
        self.series = series
        self.duration_ms = duration_ms
        self.manifest = manifest or {}
        self.tracer = tracer
        # Profiler snapshot (repro profile); kept OFF the manifest so
        # profiled runs stay byte-identical to unprofiled ones.
        self.profile = profile

    # -- metric accessors ----------------------------------------------------

    @property
    def state_series(self) -> TimeSeries:
        """Total join-state size over time (Figures 5/6/8/10/13)."""
        return self.series["state_total"]

    @property
    def output_series(self) -> TimeSeries:
        """Cumulative result tuples over time (Figures 7/9/11/12)."""
        return self.series["output"]

    @property
    def punctuation_output_series(self) -> TimeSeries:
        """Cumulative propagated punctuations over time (Figure 14)."""
        return self.series["punct_output"]

    @property
    def results(self) -> int:
        return self.sink.tuple_count

    @property
    def punctuations_out(self) -> int:
        return self.sink.punctuation_count

    def mean_state(self) -> float:
        return self.state_series.time_weighted_mean()

    def max_state(self) -> float:
        return self.state_series.maximum()

    def output_rate_first_half(self) -> float:
        """Mean output rate (tuples/ms) over the first half of the run."""
        return self._window_rate(0.0, 0.5)

    def output_rate_second_half(self) -> float:
        """Mean output rate (tuples/ms) over the second half of the run."""
        return self._window_rate(0.5, 1.0)

    def _window_rate(self, frac_start: float, frac_end: float) -> float:
        series = self.output_series
        if len(series) < 2:
            return 0.0
        t0 = series.times[0]
        span = series.times[-1] - t0
        if span <= 0:
            return 0.0
        start, end = t0 + frac_start * span, t0 + frac_end * span
        produced = series.value_at(end) - series.value_at(start)
        return produced / (end - start)

    def summary(self) -> Dict[str, Any]:
        """Headline numbers for report tables."""
        return {
            "label": self.label,
            "results": self.results,
            "mean_state": self.mean_state(),
            "max_state": self.max_state(),
            "rate_first_half": self.output_rate_first_half(),
            "rate_second_half": self.output_rate_second_half(),
            "punctuations_out": self.punctuations_out,
            "duration_ms": self.duration_ms,
        }

    def __repr__(self) -> str:
        return (
            f"ExperimentRun({self.label!r}, results={self.results}, "
            f"mean_state={self.mean_state():.1f})"
        )


def run_join_experiment(
    factory: JoinFactory,
    workload: GeneratedWorkload,
    label: str = "",
    sample_interval_ms: float = 200.0,
    cost_model: Optional[CostModel] = None,
    keep_items: bool = False,
    horizon_factor: float = 4.0,
    tracer: Optional[Tracer] = None,
) -> ExperimentRun:
    """Execute one join over one workload and return its measurements.

    Parameters
    ----------
    factory:
        Builds the join under test (see :func:`pjoin_factory` etc.).
    workload:
        A :class:`~repro.workloads.generator.GeneratedWorkload`.
    sample_interval_ms:
        Virtual-time distance between metric samples.
    keep_items:
        Retain every result tuple in the sink (tests need this; large
        benchmark runs do not).
    horizon_factor:
        Metrics are pre-scheduled until ``end_time * horizon_factor`` so
        a saturated join that lags behind its inputs is still sampled;
        trailing samples after completion are trimmed.
    tracer:
        Attach this :class:`~repro.obs.trace.Tracer` to the simulation
        engine for the run.  Defaults to the tracer installed by the
        :func:`tracing` context manager, if any; otherwise the run is
        untraced (the zero-cost-when-off path).
    """
    if _RUN_INTERCEPTOR is not None:
        return _RUN_INTERCEPTOR(
            factory,
            workload,
            label=label,
            sample_interval_ms=sample_interval_ms,
            cost_model=cost_model,
            keep_items=keep_items,
            horizon_factor=horizon_factor,
            tracer=tracer,
        )
    return execute_join_experiment(
        factory,
        workload,
        label=label,
        sample_interval_ms=sample_interval_ms,
        cost_model=cost_model,
        keep_items=keep_items,
        horizon_factor=horizon_factor,
        tracer=tracer,
    )


def execute_join_experiment(
    factory: JoinFactory,
    workload: GeneratedWorkload,
    label: str = "",
    sample_interval_ms: float = 200.0,
    cost_model: Optional[CostModel] = None,
    keep_items: bool = False,
    horizon_factor: float = 4.0,
    tracer: Optional[Tracer] = None,
) -> ExperimentRun:
    """The un-interceptable body of :func:`run_join_experiment`."""
    if tracer is None:
        tracer = _ACTIVE_TRACER
    plan = QueryPlan(cost_model=cost_model)
    if tracer is not None:
        plan.engine.tracer = tracer
    join = factory(plan, workload)
    sink = Sink(plan.engine, plan.cost_model, keep_items=keep_items)
    join.connect(sink)
    # One source per stream: binary workloads expose ("A", "B"), n-ary
    # workloads ("S0", "S1", ...) — the wiring is shape-agnostic.
    schedules = workload.schedules
    names = getattr(workload, "stream_names", None) or tuple(
        chr(ord("A") + i) for i in range(len(schedules))
    )
    for port, (schedule, source_name) in enumerate(zip(schedules, names)):
        plan.add_source(schedule, join, port=port, name=source_name)
    collector = MetricsCollector(plan.engine, interval_ms=sample_interval_ms)
    collector.register_gauge("state_total", join.total_state_size)
    for port, source_name in enumerate(names):
        collector.register_gauge(
            f"state_{source_name.lower()}",
            (lambda p: lambda: join.state_size(p))(port),
        )
    collector.register_gauge("output", lambda: sink.tuple_count)
    collector.register_gauge("punct_output", lambda: sink.punctuation_count)
    collector.start(horizon_ms=workload.end_time * horizon_factor + 1000.0)
    profiler = _ACTIVE_PROFILER
    if profiler is not None:
        profiler.instrument_run(join, sink, plan.engine, plan.cost_model)
    try:
        plan.run()
    finally:
        if profiler is not None:
            # Shared objects (the cost model, a tracer reused across
            # runs) must not carry timing shadows into later runs.
            profiler.restore()
    series = {
        name: _trim(ts, sink.eos_time) for name, ts in collector.series.items()
    }
    run_label = label or type(join).__name__
    duration = sink.eos_time if sink.eos_time >= 0 else plan.engine.now
    # Composite joins (the sharded stack) expose their instrumented
    # sub-operators for the manifest's counter registry.
    sub_operators = getattr(join, "manifest_operators", None)
    manifest = build_manifest(
        run_label,
        join,
        sink,
        plan.engine,
        workload=workload,
        series=series,
        duration_ms=duration,
        extra_operators=sub_operators() if sub_operators is not None else None,
    )
    return ExperimentRun(
        run_label,
        join,
        sink,
        series,
        duration_ms=duration,
        manifest=manifest,
        tracer=tracer,
        profile=profiler.snapshot() if profiler is not None else None,
    )


def _trim(series: TimeSeries, eos_time: float) -> TimeSeries:
    """Drop samples after the join delivered end-of-stream."""
    if eos_time < 0 or not series:
        return series
    trimmed = TimeSeries(name=series.name)
    for time, value in series.points():
        if time > eos_time:
            break
        trimmed.append(time, value)
    return trimmed


# ---------------------------------------------------------------------------
# Join factories
# ---------------------------------------------------------------------------


def pjoin_factory(
    config: Optional[PJoinConfig] = None,
    registry: Optional[EventListenerRegistry] = None,
) -> JoinFactory:
    """A factory producing a PJoin with the given configuration.

    Under an active :func:`sharding` block the factory builds the
    K-shard PJoin stack instead (each shard gets the same config).
    """

    def build(plan: QueryPlan, workload: GeneratedWorkload) -> Operator:
        if _ACTIVE_SHARDS is not None:
            from repro.shard.operator import sharded_pjoin

            return sharded_pjoin(
                plan.engine,
                plan.cost_model,
                workload.schemas[0],
                workload.schemas[1],
                workload.join_fields[0],
                workload.join_fields[1],
                _ACTIVE_SHARDS,
                config=config,
                registry=registry,
                governor=_ACTIVE_GOVERNOR,
                skew=_ACTIVE_SKEW,
            )
        return PJoin(
            plan.engine,
            plan.cost_model,
            workload.schemas[0],
            workload.schemas[1],
            workload.join_fields[0],
            workload.join_fields[1],
            config=config,
            registry=registry,
            governor=_ACTIVE_GOVERNOR,
            skew=_ACTIVE_SKEW,
        )

    return build


def xjoin_factory(memory_threshold: Optional[int] = None) -> JoinFactory:
    """A factory producing the XJoin comparator (sharded when active)."""

    def build(plan: QueryPlan, workload: GeneratedWorkload) -> Operator:
        if _ACTIVE_SHARDS is not None:
            from repro.shard.operator import sharded_xjoin

            return sharded_xjoin(
                plan.engine,
                plan.cost_model,
                workload.schemas[0],
                workload.schemas[1],
                workload.join_fields[0],
                workload.join_fields[1],
                _ACTIVE_SHARDS,
                memory_threshold=memory_threshold,
                governor=_ACTIVE_GOVERNOR,
            )
        return XJoin(
            plan.engine,
            plan.cost_model,
            workload.schemas[0],
            workload.schemas[1],
            workload.join_fields[0],
            workload.join_fields[1],
            memory_threshold=memory_threshold,
            governor=_ACTIVE_GOVERNOR,
        )

    return build


def shj_factory() -> JoinFactory:
    """A factory producing the symmetric hash join (sharded when active)."""

    def build(plan: QueryPlan, workload: GeneratedWorkload) -> Operator:
        if _ACTIVE_SHARDS is not None:
            from repro.shard.operator import sharded_shj

            return sharded_shj(
                plan.engine,
                plan.cost_model,
                workload.schemas[0],
                workload.schemas[1],
                workload.join_fields[0],
                workload.join_fields[1],
                _ACTIVE_SHARDS,
                governor=_ACTIVE_GOVERNOR,
            )
        return SymmetricHashJoin(
            plan.engine,
            plan.cost_model,
            workload.schemas[0],
            workload.schemas[1],
            workload.join_fields[0],
            workload.join_fields[1],
            governor=_ACTIVE_GOVERNOR,
        )

    return build


def nary_pjoin_factory(
    config: Optional[PJoinConfig] = None,
    planner: Optional[PlannerSpec] = None,
) -> JoinFactory:
    """A factory producing an n-ary PJoin over all workload streams.

    ``planner`` defaults to the spec installed by the :func:`planning`
    context manager (the CLI's ``--planner`` flag); both unset builds
    the unplanned operator.
    """

    def build(plan: QueryPlan, workload: GeneratedWorkload) -> Operator:
        spec = planner if planner is not None else _ACTIVE_PLANNER
        return NaryPJoin(
            plan.engine,
            plan.cost_model,
            workload.schemas,
            workload.join_fields,
            config=config,
            governor=_ACTIVE_GOVERNOR,
            planner=spec,
        )

    return build


def run_nary_experiment(
    workload: Any,
    config: Optional[PJoinConfig] = None,
    planner: Optional[PlannerSpec] = None,
    **kwargs: Any,
) -> ExperimentRun:
    """Run an n-ary PJoin over an n-stream workload.

    A thin veneer over :func:`run_join_experiment` — interception
    (parallel sweeps), profiling and tracing all compose
    exactly as for binary experiments.
    """
    return run_join_experiment(
        nary_pjoin_factory(config=config, planner=planner), workload, **kwargs
    )
