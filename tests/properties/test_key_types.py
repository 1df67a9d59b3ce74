"""Joins over non-integer key types.

The stable hash must spread string (and mixed) keys deterministically,
and every join must stay exact — also in the degenerate one-partition
configuration where every key shares a bucket.
"""

import random
from collections import Counter

import pytest

from repro.core.config import PJoinConfig
from repro.core.pjoin import PJoin
from repro.operators.sink import Sink
from repro.operators.xjoin import XJoin
from repro.punctuations.punctuation import Punctuation
from repro.query.plan import QueryPlan
from repro.sim.costs import CostModel
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple
from repro.workloads.reference import reference_join_multiset

SCHEMA_A = Schema.of("key", "a", name="A")
SCHEMA_B = Schema.of("key", "b", name="B")


def make_string_key_workload(seed=3, n_keys=12, per_key=6):
    """Two valid punctuated streams over string keys."""
    rng = random.Random(seed)
    keys = [f"user-{i:03d}" for i in range(n_keys)]
    schedules = [[], []]
    t = 0.0
    for key in keys:
        events = []
        for side in (0, 1):
            for i in range(per_key):
                events.append((rng.uniform(0, 30), side, i))
        events.sort()
        for offset, side, i in events:
            when = t + offset
            schema = (SCHEMA_A, SCHEMA_B)[side]
            schedules[side].append(
                (when, Tuple(schema, (key, i), ts=when))
            )
        close = t + 31.0
        for side, schema in enumerate((SCHEMA_A, SCHEMA_B)):
            schedules[side].append(
                (close, Punctuation.on_field(schema, "key", key, ts=close))
            )
        t += rng.uniform(5.0, 15.0)
    for schedule in schedules:
        schedule.sort(key=lambda pair: pair[0])
    return schedules, keys, per_key


def run(make_join, schedules):
    plan = QueryPlan(cost_model=CostModel().scaled(0.01))
    join = make_join(plan)
    sink = Sink(plan.engine, plan.cost_model, keep_items=True)
    join.connect(sink)
    plan.add_source(schedules[0], join, port=0)
    plan.add_source(schedules[1], join, port=1)
    plan.run()
    return join, sink


@pytest.mark.parametrize("n_partitions", [1, 3, 32])
def test_pjoin_exact_on_string_keys(n_partitions):
    schedules, keys, per_key = make_string_key_workload()

    def make(plan):
        return PJoin(
            plan.engine, plan.cost_model, SCHEMA_A, SCHEMA_B, "key", "key",
            config=PJoinConfig(purge_threshold=1, n_partitions=n_partitions),
        )

    join, sink = run(make, schedules)
    assert Counter(dict(sink.result_multiset())) == reference_join_multiset(
        *schedules, SCHEMA_A, SCHEMA_B
    )
    assert sink.tuple_count == len(keys) * per_key * per_key
    assert join.tuples_purged > 0  # punctuations worked on string keys


def test_xjoin_exact_on_string_keys_with_spill():
    schedules, _keys, _per_key = make_string_key_workload(n_keys=16, per_key=8)

    def make(plan):
        return XJoin(
            plan.engine, plan.cost_model, SCHEMA_A, SCHEMA_B, "key", "key",
            memory_threshold=40, n_partitions=4,
        )

    join, sink = run(make, schedules)
    assert join.spills > 0
    assert Counter(dict(sink.result_multiset())) == reference_join_multiset(
        *schedules, SCHEMA_A, SCHEMA_B
    )


def test_string_key_placement_is_process_stable():
    """The same key must land in the same bucket in any process: the
    placement derives from CRC-32, not the salted builtin hash."""
    import zlib

    from repro.storage.hash_table import stable_hash

    assert stable_hash("user-001") == zlib.crc32(repr("user-001").encode())
