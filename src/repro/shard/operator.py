"""ShardedJoin: one logical join executed as K shard operators.

The in-simulator backend of the sharding subsystem.  A
:class:`ShardedJoin` wires ``router → K inner joins → aligned merger``
inside one :class:`~repro.sim.engine.SimulationEngine` and presents the
same surface the experiment harness expects from a join operator
(``push``/``connect``, state-size gauges, ``counters()``/``stats()``),
so every figure preset, metrics sampler and manifest builder works
unchanged with ``--shards K``.

Virtual-time semantics: each shard is its own single-server operator,
so K shards process concurrently on the virtual clock — the sharded
stack models a K-core deployment.  Each shard's probe cost is driven by
its *own* state occupancy (≈ 1/K of the logical state), which is
exactly the state-size → probe-cost feedback the paper's Figure 7
saturation builds on, now shrinking with K.  Router and merger charge
zero virtual cost and create no engine events, so with ``K = 1`` the
stack replays the unsharded execution event-for-event (byte-identical
output, same ``events_executed``).

Fault policies apply *per shard*: every inner join runs its own
contract validator, dead-letter store and disorder accounting against
the shard's key subspace, and the per-shard counters flow into the run
manifest under ``<name>.shard<i>``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.core.registry import EventListenerRegistry
from repro.errors import OperatorError
from repro.memory.budget import GovernorSpec
from repro.operators.shj import SymmetricHashJoin
from repro.operators.xjoin import XJoin
from repro.shard.merger import AlignedMerger, AlignmentLedger
from repro.shard.router import ShardRouter
from repro.sim.costs import CostModel
from repro.sim.engine import SimulationEngine
from repro.tuples.schema import Schema

# Builds one inner join for a shard: (engine, cost_model, name) -> operator.
InnerBuilder = Callable[[SimulationEngine, CostModel, str], Any]

# Builds the router: (shards, join_indices, join_fields, ledger, name) -> router.
RouterFactory = Callable[
    [Sequence[Any], Sequence[int], Sequence[str], AlignmentLedger, str],
    ShardRouter,
]

# Counters that aggregate by max across shards, not by sum.
_MAX_COUNTERS = frozenset({"max_queue_length"})


def aggregate_counters(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard counter snapshots into one logical registry.

    Numeric counters sum across shards (``max_queue_length`` takes the
    max — a logical queue never held the sum of the shard peaks);
    non-numeric values are dropped.
    """
    out: Dict[str, Any] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if key in _MAX_COUNTERS:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


class ShardedJoin:
    """K shard joins behind a router and an aligned merger.

    Parameters
    ----------
    build_inner:
        Builds one shard's inner join; called K times with the shard's
        name (``<name>.shard<i>``).  Use :func:`sharded_pjoin` /
        :func:`sharded_xjoin` / :func:`sharded_shj` for the stock joins.
    router_factory:
        Builds the router in front of the shards; defaults to the stock
        hash :class:`~repro.shard.router.ShardRouter`.  The skew layer
        passes the hot-key-replicating router here.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        cost_model: CostModel,
        left_schema: Schema,
        right_schema: Schema,
        left_field: str,
        right_field: str,
        n_shards: int,
        build_inner: InnerBuilder,
        name: str = "pjoin",
        router_factory: Optional[RouterFactory] = None,
    ) -> None:
        if n_shards < 1:
            raise OperatorError(f"need at least one shard, got {n_shards}")
        self.engine = engine
        self.cost_model = cost_model
        self.name = name
        self.n_shards = n_shards
        self.n_inputs = 2
        self.schemas = [left_schema, right_schema]
        self.join_fields = [left_field, right_field]
        self.join_indices = [
            left_schema.index_of(left_field),
            right_schema.index_of(right_field),
        ]
        self.out_schema = left_schema.concat(right_schema, name=name + ".out")
        self.shards: List[Any] = [
            build_inner(engine, cost_model, f"{name}.shard{i}")
            for i in range(n_shards)
        ]
        self.ledger = AlignmentLedger()
        make_router = router_factory if router_factory is not None else ShardRouter
        self.router = make_router(
            self.shards,
            self.join_indices,
            self.join_fields,
            self.ledger,
            f"{name}.router",
        )
        self.merger = AlignedMerger(
            engine,
            cost_model,
            n_shards,
            self.ledger,
            self.out_schema,
            self.join_indices[0],
            name=f"{name}.merge",
        )
        for port, shard in enumerate(self.shards):
            shard.connect(self.merger, port=port)

    # ------------------------------------------------------------------
    # Operator surface (what sources, sinks and the harness touch)
    # ------------------------------------------------------------------

    def push(self, item: Any, port: int = 0) -> None:
        self.router.push(item, port)

    def connect(self, downstream: Any, port: int = 0) -> Any:
        return self.merger.connect(downstream, port)

    @property
    def finished(self) -> bool:
        return self.merger.finished

    @property
    def config(self) -> Any:
        """The shards' shared config (shard 0's; all are built alike)."""
        return getattr(self.shards[0], "config", None)

    # ------------------------------------------------------------------
    # Metrics surface (gauges, manifests, reports)
    # ------------------------------------------------------------------

    def state_size(self, side: int) -> int:
        return sum(shard.state_size(side) for shard in self.shards)

    def total_state_size(self) -> int:
        return sum(shard.total_state_size() for shard in self.shards)

    def memory_state_size(self) -> int:
        return sum(shard.memory_state_size() for shard in self.shards)

    def counters(self) -> Dict[str, Any]:
        """The logical join's registry: shard counters aggregated.

        Keyed like the unsharded operator's registry (flow counters sum
        to the unsharded values on hash-partitionable workloads), plus
        the shard count.  Per-shard registries appear separately in the
        manifest via :meth:`manifest_operators`.
        """
        out = aggregate_counters([shard.counters() for shard in self.shards])
        out["shards"] = self.n_shards
        return out

    def stats(self) -> Dict[str, Any]:
        """Aggregated flat snapshot (numeric stats summed across shards)."""
        snapshots = []
        for shard in self.shards:
            stats = getattr(shard, "stats", None)
            snapshots.append(stats() if stats is not None else shard.counters())
        out = aggregate_counters(snapshots)
        out["shards"] = self.n_shards
        return out

    def manifest_operators(self) -> List[Any]:
        """Instrumented sub-operators for the run manifest."""
        return [self.router, *self.shards, self.merger]

    def __repr__(self) -> str:
        return (
            f"ShardedJoin(name={self.name!r}, shards={self.n_shards}, "
            f"state={self.total_state_size()})"
        )


# ---------------------------------------------------------------------------
# Stock inner-join builders
# ---------------------------------------------------------------------------


def shard_governors(
    governor: Optional[GovernorSpec], n_shards: int
) -> List[Optional[GovernorSpec]]:
    """Per-shard governor specs (budgets summing to the global)."""
    if governor is None:
        return [None] * n_shards
    return list(governor.split(n_shards))


def sharded_pjoin(
    engine: SimulationEngine,
    cost_model: CostModel,
    left_schema: Schema,
    right_schema: Schema,
    left_field: str,
    right_field: str,
    n_shards: int,
    config: Optional[PJoinConfig] = None,
    registry: Optional[EventListenerRegistry] = None,
    name: str = "pjoin",
    governor: Optional[GovernorSpec] = None,
    skew: Optional[Any] = None,
) -> ShardedJoin:
    """A sharded PJoin: each shard runs the full six-component operator.

    A :class:`~repro.skew.manager.SkewSpec` in *skew* attaches the skew
    layer to every shard (each gets its own sketch and adaptive tables
    over its key subspace); ``skew.hot_keys`` additionally swaps the
    stock hash router for the hot-key-replicating
    :class:`~repro.skew.router.HotKeyShardRouter`.
    """
    shard_specs = iter(shard_governors(governor, n_shards))

    def build(eng: SimulationEngine, costs: CostModel, shard_name: str) -> PJoin:
        return PJoin(
            eng, costs, left_schema, right_schema, left_field, right_field,
            config=config, registry=registry, name=shard_name,
            governor=next(shard_specs), skew=skew,
        )

    router_factory: Optional[RouterFactory] = None
    if skew is not None and skew.hot_keys:
        from repro.skew.router import HotKeyShardRouter

        def make_hot_router(
            shards: Sequence[Any],
            join_indices: Sequence[int],
            join_fields: Sequence[str],
            ledger: AlignmentLedger,
            router_name: str,
        ) -> ShardRouter:
            return HotKeyShardRouter(
                shards, join_indices, join_fields, ledger, skew,
                name=router_name,
            )

        router_factory = make_hot_router

    return ShardedJoin(
        engine, cost_model, left_schema, right_schema, left_field,
        right_field, n_shards, build, name=name,
        router_factory=router_factory,
    )


def sharded_xjoin(
    engine: SimulationEngine,
    cost_model: CostModel,
    left_schema: Schema,
    right_schema: Schema,
    left_field: str,
    right_field: str,
    n_shards: int,
    memory_threshold: Optional[int] = None,
    name: str = "xjoin",
    governor: Optional[GovernorSpec] = None,
) -> ShardedJoin:
    """A sharded XJoin comparator."""
    shard_specs = iter(shard_governors(governor, n_shards))

    def build(eng: SimulationEngine, costs: CostModel, shard_name: str) -> XJoin:
        return XJoin(
            eng, costs, left_schema, right_schema, left_field, right_field,
            memory_threshold=memory_threshold, name=shard_name,
            governor=next(shard_specs),
        )

    return ShardedJoin(
        engine, cost_model, left_schema, right_schema, left_field,
        right_field, n_shards, build, name=name,
    )


def sharded_shj(
    engine: SimulationEngine,
    cost_model: CostModel,
    left_schema: Schema,
    right_schema: Schema,
    left_field: str,
    right_field: str,
    n_shards: int,
    name: str = "shj",
    governor: Optional[GovernorSpec] = None,
) -> ShardedJoin:
    """A sharded symmetric hash join."""
    shard_specs = iter(shard_governors(governor, n_shards))

    def build(
        eng: SimulationEngine, costs: CostModel, shard_name: str
    ) -> SymmetricHashJoin:
        return SymmetricHashJoin(
            eng, costs, left_schema, right_schema, left_field, right_field,
            name=shard_name, governor=next(shard_specs),
        )

    return ShardedJoin(
        engine, cost_model, left_schema, right_schema, left_field,
        right_field, n_shards, build, name=name,
    )
