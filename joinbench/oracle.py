"""Correctness and virtual-latency checks against the generated inputs.

Everything here is computed from the schedules the generator produced,
never from another configuration of the join: the binary workloads are
judged against :func:`repro.workloads.reference_join_multiset`, the
n-way workload against a per-key count oracle (a key's result count is
the product of its per-stream tuple counts).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, List, Sequence, Tuple

from repro.tuples.tuple import Tuple as StreamTuple
from repro.workloads import reference_join_multiset


def stream_tuples(schedule: Sequence[Tuple[float, Any]]) -> List[StreamTuple]:
    return [item for _t, item in schedule if isinstance(item, StreamTuple)]


def count_oracle(workload: Any) -> Counter:
    """``{join value: expected result count}`` of an n-way equi-join."""
    per_stream = []
    for schedule, schema, field in zip(
        workload.schedules, workload.schemas, workload.join_fields
    ):
        index = schema.index_of(field)
        per_stream.append(Counter(t.values[index] for t in stream_tuples(schedule)))
    expected: Counter = Counter()
    for key, count in per_stream[0].items():
        expected[key] = count * math.prod(c.get(key, 0) for c in per_stream[1:])
    return +expected


def count_errors(workload: Any, results: Sequence[StreamTuple]) -> int:
    """Per join value, results missing or extra against :func:`count_oracle`."""
    expected = count_oracle(workload)
    index = workload.schemas[0].index_of(workload.join_fields[0])
    got = Counter(tup.values[index] for tup in results)
    return sum(
        abs(expected.get(key, 0) - got.get(key, 0)) for key in expected.keys() | got
    )


def result_errors(workload: Any, results: Sequence[StreamTuple]) -> int:
    """Results missing or extra against the reference (0 when exact).

    Binary joins are compared with the full reference multiset; n-way
    joins with the per-value count oracle.
    """
    if len(workload.schedules) != 2:
        return count_errors(workload, results)
    (schema_a, schema_b), (field_a, field_b) = workload.schemas, workload.join_fields
    remaining = reference_join_multiset(
        workload.schedules[0], workload.schedules[1],
        schema_a, schema_b, field_a, field_b,
    )
    extra = 0
    for tup in results:
        count = remaining.get(tup.values, 0)
        if count:
            remaining[tup.values] = count - 1
        else:
            extra += 1
    return extra + sum(remaining.values())


def result_latencies(workload: Any, results: Sequence[StreamTuple]) -> List[float]:
    """Virtual ms from each result's last input arrival to its delivery.

    A result is possible once its last constituent arrived at the join
    (that tuple probed the others' state), so this counts queue wait,
    probe and delivery.  Results must be the sink's kept items, whose
    ``ts`` is the delivery time.  Constituents are found by their
    stream's ``seq`` field; raises ``KeyError`` for a result whose
    constituents were never input.
    """
    lookups = []
    offset = 0
    for schedule, schema in zip(workload.schedules, workload.schemas):
        seq = schema.index_of("seq")
        arrival = {t.values[seq]: t.ts for t in stream_tuples(schedule)}
        lookups.append((arrival, offset + seq))
        offset += len(schema.fields)
    if len(lookups) == 2:
        (arrival_a, at_a), (arrival_b, at_b) = lookups
        return [
            tup.ts - max(arrival_a[tup.values[at_a]], arrival_b[tup.values[at_b]])
            for tup in results
        ]
    return [
        tup.ts - max(arrival[tup.values[at]] for arrival, at in lookups)
        for tup in results
    ]


def percentile(sorted_values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no values")
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]
