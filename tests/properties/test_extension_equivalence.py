"""Property-based correctness of the Section 6 extensions.

* WindowedPJoin must equal the *window-join oracle* for any workload:
  punctuation purging and window expiry may each remove state, but
  neither may cost a single in-window result.
* NaryPJoin must equal the n-way reference oracle for any random
  interleaving, purge threshold and propagation setting.
"""

import random
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import PJoinConfig
from repro.core.nary import NaryPJoin
from repro.core.windowed import WindowedPJoin
from repro.operators.sink import Sink
from repro.punctuations.punctuation import Punctuation
from repro.query.plan import QueryPlan
from repro.sim.costs import CostModel
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple
from repro.workloads.generator import generate_workload
from repro.workloads.reference import (
    reference_nary_join_multiset,
    reference_window_join_multiset,
)
from repro.workloads.spec import WorkloadSpec

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

workload_specs = st.builds(
    WorkloadSpec,
    n_tuples_per_stream=st.integers(50, 250),
    punct_spacing_a=st.one_of(st.none(), st.integers(2, 30)),
    punct_spacing_b=st.one_of(st.none(), st.integers(2, 30)),
    active_values=st.integers(1, 10),
    seed=st.integers(0, 100_000),
)


@SETTINGS
@given(
    spec=workload_specs,
    window_ms=st.floats(5.0, 500.0),
    purge_threshold=st.integers(1, 30),
)
def test_windowed_pjoin_equals_window_oracle(spec, window_ms, purge_threshold):
    workload = generate_workload(spec)
    plan = QueryPlan(cost_model=CostModel().scaled(0.001))
    join = WindowedPJoin(
        plan.engine, plan.cost_model,
        workload.schemas[0], workload.schemas[1], "key", "key",
        config=PJoinConfig(purge_threshold=purge_threshold),
        window_ms=window_ms,
    )
    sink = Sink(plan.engine, plan.cost_model, keep_items=True)
    join.connect(sink)
    plan.add_source(workload.schedule_a, join, port=0)
    plan.add_source(workload.schedule_b, join, port=1)
    plan.run()
    expected = reference_window_join_multiset(
        workload.schedule_a, workload.schedule_b,
        workload.schemas[0], workload.schemas[1],
        window_ms=window_ms,
    )
    assert Counter(dict(sink.result_multiset())) == expected


NARY_SCHEMAS = [
    Schema.of("key", "a", name="S0"),
    Schema.of("key", "b", name="S1"),
    Schema.of("key", "c", name="S2"),
]


def make_nary_workload(seed, n_keys, tuples_per_stream):
    """Three random valid punctuated streams over a shared key space.

    Keys are punctuated per-stream in increasing order; a stream only
    draws keys it has not punctuated yet, so validity holds by
    construction (mirroring the binary generator).
    """
    rng = random.Random(seed)
    schedules = [[], [], []]
    lo = [0, 0, 0]
    t = 0.0
    for _ in range(tuples_per_stream * 3):
        t += rng.random()
        stream = rng.randrange(3)
        if lo[stream] < n_keys - 1 and rng.random() < 0.15:
            schedules[stream].append(
                (t, Punctuation.on_field(NARY_SCHEMAS[stream], "key",
                                         lo[stream], ts=t))
            )
            lo[stream] += 1
            continue
        key = rng.randrange(lo[stream], n_keys)
        schedules[stream].append(
            (t, Tuple(NARY_SCHEMAS[stream], (key, rng.randrange(100)), ts=t))
        )
    return schedules


@SETTINGS
@given(
    seed=st.integers(0, 100_000),
    n_keys=st.integers(2, 8),
    purge_threshold=st.integers(1, 10),
    drop=st.booleans(),
)
def test_nary_pjoin_equals_oracle(seed, n_keys, purge_threshold, drop):
    schedules = make_nary_workload(seed, n_keys, tuples_per_stream=40)
    plan = QueryPlan(cost_model=CostModel().scaled(0.001))
    join = NaryPJoin(
        plan.engine, plan.cost_model, NARY_SCHEMAS, ["key"] * 3,
        config=PJoinConfig(
            purge_threshold=purge_threshold,
            on_the_fly_drop=drop,
            propagation_mode="push_count",
            propagate_count_threshold=3,
        ),
    )
    sink = Sink(plan.engine, plan.cost_model, keep_items=True)
    join.connect(sink)
    for port, schedule in enumerate(schedules):
        plan.add_source(schedule, join, port=port)
    plan.run()
    assert Counter(t.values for t in sink.results) == reference_nary_join_multiset(
        schedules, NARY_SCHEMAS, ["key"] * 3
    )
