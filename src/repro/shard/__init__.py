"""Sharded execution subsystem: K-way partitioned punctuated joins.

One logical PJoin/XJoin/SHJ runs as K shard operators behind a
hash-partitioning :class:`~repro.shard.router.ShardRouter` and an
:class:`~repro.shard.merger.AlignedMerger` that re-unions results and
re-emits each routed punctuation exactly once, after every covering
shard has propagated it.  Two backends share the routing and alignment
code: the deterministic in-simulator backend
(:class:`~repro.shard.operator.ShardedJoin`) and the wall-clock
multiprocess backend (:mod:`repro.shard.backend`), whose one shard
runner (:func:`~repro.shard.backend.run_shard_slice`) and one fork
supervisor (:func:`~repro.shard.backend.run_shard_workers`) also carry
the checkpointed, recovered and rescaled runs of :mod:`repro.checkpoint`.
"""

from repro.shard.backend import (
    ShardedRunOutcome,
    ShardPlan,
    fork_available,
    run_shard_slice,
    run_shard_workers,
    run_sharded_multiprocess,
)
from repro.shard.merger import AlignedMerger, AlignmentLedger
from repro.shard.operator import (
    ShardedJoin,
    aggregate_counters,
    sharded_pjoin,
    sharded_shj,
    sharded_xjoin,
)
from repro.shard.router import ShardRouter
from repro.shard.routing import narrow_punctuation, shard_cover, shard_of

__all__ = [
    "AlignedMerger",
    "AlignmentLedger",
    "ShardedJoin",
    "ShardedRunOutcome",
    "ShardPlan",
    "ShardRouter",
    "aggregate_counters",
    "fork_available",
    "narrow_punctuation",
    "run_shard_slice",
    "run_shard_workers",
    "run_sharded_multiprocess",
    "shard_cover",
    "shard_of",
    "sharded_pjoin",
    "sharded_shj",
    "sharded_xjoin",
]
