"""Unit tests for the oracle join helpers."""

from collections import Counter

from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple
from repro.workloads.reference import (
    reference_join_multiset,
    reference_nary_join_multiset,
    reference_window_join_multiset,
)

SCHEMA_A = Schema.of("key", "a", name="A")
SCHEMA_B = Schema.of("key", "b", name="B")
SCHEMA_C = Schema.of("c", "key", name="C")


def sched(schema, *items):
    return [(ts, Tuple(schema, (k, v), ts=ts)) for ts, k, v in items]


def test_full_join_counts_all_pairs():
    a = sched(SCHEMA_A, (0, 1, 10), (1, 1, 11), (2, 2, 12))
    b = sched(SCHEMA_B, (0, 1, 20), (5, 3, 21))
    result = reference_join_multiset(a, b, SCHEMA_A, SCHEMA_B)
    assert result == Counter({(1, 10, 1, 20): 1, (1, 11, 1, 20): 1})


def test_full_join_counts_duplicates():
    a = sched(SCHEMA_A, (0, 1, 10), (1, 1, 10))
    b = sched(SCHEMA_B, (0, 1, 20))
    result = reference_join_multiset(a, b, SCHEMA_A, SCHEMA_B)
    assert result[(1, 10, 1, 20)] == 2


def test_nary_join_needs_every_stream_to_match():
    a = sched(SCHEMA_A, (0, 1, 10), (1, 1, 11), (2, 2, 12))
    b = sched(SCHEMA_B, (0, 1, 20), (1, 2, 21), (2, 1, 20))
    c = sched(SCHEMA_C, (0, 30, 1), (1, 31, 3))
    result = reference_nary_join_multiset(
        [a, b, c], [SCHEMA_A, SCHEMA_B, SCHEMA_C], ["key", "key", "key"]
    )
    # Key 1: two A tuples x two (identical) B tuples x one C tuple; key 2
    # has no C tuple and key 3 no A or B tuple.
    assert result == Counter({
        (1, 10, 1, 20, 30, 1): 2,
        (1, 11, 1, 20, 30, 1): 2,
    })


def test_nary_join_of_two_streams_is_the_binary_join():
    a = sched(SCHEMA_A, (0, 1, 10), (1, 1, 11), (2, 2, 12))
    b = sched(SCHEMA_B, (0, 1, 20), (1, 2, 21), (2, 3, 22))
    expected = Counter({(1, 10, 1, 20): 1, (1, 11, 1, 20): 1, (2, 12, 2, 21): 1})
    assert reference_nary_join_multiset(
        [a, b], [SCHEMA_A, SCHEMA_B], ["key", "key"]
    ) == expected
    assert reference_join_multiset(a, b, SCHEMA_A, SCHEMA_B) == expected


def test_window_join_filters_by_time_distance():
    a = sched(SCHEMA_A, (0, 1, 10))
    b = sched(SCHEMA_B, (5, 1, 20), (30, 1, 21))
    result = reference_window_join_multiset(
        a, b, SCHEMA_A, SCHEMA_B, window_ms=10.0
    )
    assert result == Counter({(1, 10, 1, 20): 1})


def test_window_join_boundary_is_inclusive():
    a = sched(SCHEMA_A, (0, 1, 10))
    b = sched(SCHEMA_B, (10, 1, 20))
    result = reference_window_join_multiset(
        a, b, SCHEMA_A, SCHEMA_B, window_ms=10.0
    )
    assert len(result) == 1


def test_punctuations_in_schedule_are_ignored():
    from repro.punctuations.punctuation import Punctuation

    a = sched(SCHEMA_A, (0, 1, 10))
    a.append((1.0, Punctuation.on_field(SCHEMA_A, "key", 1, ts=1.0)))
    b = sched(SCHEMA_B, (2, 1, 20))
    result = reference_join_multiset(a, b, SCHEMA_A, SCHEMA_B)
    assert sum(result.values()) == 1
