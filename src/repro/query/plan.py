"""A small helper for assembling and running continuous query plans.

A :class:`QueryPlan` owns the shared simulation engine and cost model,
keeps track of the stream sources feeding the plan, and runs everything
to completion.  Operator wiring itself stays explicit — operators are
constructed with the plan's engine/cost model and connected with
``connect`` — so plans read like the paper's Figure 1 (c).

Example
-------
>>> from repro.sim import CostModel
>>> from repro.operators import Sink
>>> from repro.core import PJoin
>>> plan = QueryPlan()
>>> join = PJoin(plan.engine, plan.cost_model, sa, sb, "key", "key")
>>> sink = Sink(plan.engine, plan.cost_model)
>>> _ = join.connect(sink)
>>> plan.add_source(schedule_a, join, port=0, name="A")
>>> plan.add_source(schedule_b, join, port=1, name="B")
>>> plan.run()
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple as PyTuple

from repro.operators.base import Operator
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.streams.source import StreamSource


class QueryPlan:
    """Owns the engine, cost model and sources of one continuous query."""

    def __init__(
        self,
        engine: Optional[SimulationEngine] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.engine = engine if engine is not None else SimulationEngine()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.sources: List[StreamSource] = []

    def add_source(
        self,
        schedule: Iterable[PyTuple[float, Any]],
        operator: Operator,
        port: int = 0,
        name: str = "",
        disorder_slack_ms: Optional[float] = None,
    ) -> StreamSource:
        """Create a source feeding *operator*'s input *port*.

        ``disorder_slack_ms`` routes the source through a re-sequencing
        disorder buffer (see :mod:`repro.resilience.disorder`).
        """
        source = StreamSource(
            self.engine,
            schedule,
            name=name or f"source{len(self.sources)}",
            disorder_slack_ms=disorder_slack_ms,
        )
        source.connect(operator, port)
        self.sources.append(source)
        return source

    def nary_join(
        self,
        schemas: Sequence[Any],
        join_fields: Sequence[str],
        config: Optional[Any] = None,
        planner: Optional[Any] = None,
        name: str = "nary-pjoin",
    ) -> Operator:
        """Build an n-ary PJoin on this plan's engine and cost model.

        ``planner`` is a :class:`~repro.planner.spec.PlannerSpec`
        controlling the probe order (static or adaptive); ``None``
        keeps the unplanned stream-order operator.
        """
        from repro.core.nary import NaryPJoin

        return NaryPJoin(
            self.engine,
            self.cost_model,
            schemas,
            join_fields,
            config=config,
            planner=planner,
            name=name,
        )

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Start every source and drain the simulation."""
        for source in self.sources:
            source.start()
        self.engine.run(until=until, max_events=max_events)

    def __repr__(self) -> str:
        return f"QueryPlan(sources={len(self.sources)}, now={self.engine.now:g})"
