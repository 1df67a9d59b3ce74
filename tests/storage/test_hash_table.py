"""Unit tests for the partitioned hash table."""

import pytest

from repro.errors import StorageError
from repro.skew.partitioner import AdaptiveTable
from repro.storage.hash_table import PartitionedHashTable, stable_hash
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMA = Schema.of("key", "v")


def tup(key, ts=0.0):
    return Tuple(SCHEMA, (key, 0), ts=ts)


class TestStableHash:
    def test_int_hashes_to_itself(self):
        assert stable_hash(42) == 42

    def test_bool_is_not_confused_with_large_int_hash(self):
        assert stable_hash(True) == 1
        assert stable_hash(False) == 0

    def test_string_hash_is_deterministic(self):
        # CRC-32 of repr("abc") — must not vary with PYTHONHASHSEED.
        assert stable_hash("abc") == stable_hash("abc")
        assert isinstance(stable_hash("abc"), int)


class TestPartitionedHashTable:
    def test_needs_at_least_one_partition(self):
        with pytest.raises(StorageError):
            PartitionedHashTable(0)

    def test_insert_places_by_stable_hash(self):
        table = PartitionedHashTable(4)
        table.insert(tup(5), 5, ats=1.0)
        assert table.partitions[5 % 4].memory_count == 1
        assert table.memory_count == 1
        assert table.total_inserted == 1

    def test_probe_returns_occupancy_and_matches(self):
        table = PartitionedHashTable(4)
        table.insert(tup(1), 1, ats=1.0)
        table.insert(tup(5), 5, ats=2.0)  # same bucket as 1 (mod 4)
        occupancy, matches = table.probe(1)
        assert occupancy == 2
        assert [e.join_value for e in matches] == [1]

    def test_remove_value(self):
        table = PartitionedHashTable(4)
        table.insert(tup(1), 1, ats=1.0)
        table.insert(tup(1), 1, ats=2.0)
        removed = table.remove_value(1)
        assert len(removed) == 2
        assert table.memory_count == 0

    def test_largest_memory_partition(self):
        table = PartitionedHashTable(4)
        for _ in range(3):
            table.insert(tup(0), 0, ats=1.0)
        table.insert(tup(1), 1, ats=1.0)
        assert table.largest_memory_partition() is table.partitions[0]

    def test_spill_partition_updates_counts(self):
        table = PartitionedHashTable(4)
        table.insert(tup(0), 0, ats=1.0)
        table.insert(tup(4), 4, ats=1.0)
        moved = table.spill_partition(table.partitions[0], now=9.0)
        assert moved == 2
        assert table.memory_count == 0
        assert table.disk_count == 2
        assert table.total_count == 2

    def test_partitions_with_disk(self):
        table = PartitionedHashTable(4)
        table.insert(tup(0), 0, ats=1.0)
        assert table.partitions_with_disk() == []
        table.spill_partition(table.partitions[0], now=1.0)
        assert table.partitions_with_disk() == [table.partitions[0]]

    def test_iterators_cover_memory_and_disk(self):
        table = PartitionedHashTable(4)
        table.insert(tup(0), 0, ats=1.0)
        table.spill_partition(table.partitions[0], now=1.0)
        table.insert(tup(1), 1, ats=2.0)
        assert len(list(table.iter_memory())) == 1
        assert len(list(table.iter_disk())) == 1
        assert len(list(table.iter_all())) == 2
        assert len(table) == 2


def stock_table():
    return PartitionedHashTable(4)


def split_adaptive_table():
    table = AdaptiveTable(4)
    table.set_depth(1, 2)  # base bucket 1 becomes four leaves
    return table


TABLES = pytest.mark.parametrize(
    "make_table", [stock_table, split_adaptive_table], ids=["stock", "adaptive"]
)

# Values spread over every base bucket, several per bucket, repeated
# and interleaved so each memory dict holds multi-entry value lists.
KEYS = [1, 6, 5, 13, 2, 9, 1, 4, 17, 6, 21, 5, 3, 1, 9, 8, 13, 7]


def fill(table, keys, start=0.0):
    for i, key in enumerate(keys):
        table.insert(tup(key), key, ats=start + i)


def reference_scan(table, covered):
    """Per-entry scan in the documented order: bucket by bucket,
    memory entries in dict order, then cold entries."""
    out = []
    for partition in table.partitions:
        out += [e for e in partition.iter_memory() if covered(e.join_value)]
        out += [e for e in partition.iter_cold() if covered(e.join_value)]
    return out


def survivors(table):
    return [
        (p.index, list(p.iter_memory()), list(p.iter_cold()))
        for p in table.partitions
    ]


@TABLES
class TestRemoveCovered:
    def test_order_matches_per_entry_reference_scan(self, make_table):
        table = make_table()
        fill(table, KEYS)
        # Page one bucket out, then refill it so memory and cold mix.
        table.demote_partition(table.partition_for(1))
        fill(table, [1, 5, 9, 13], start=100.0)

        def covered(value):
            return value % 4 == 1 or value in (6, 8)

        expected = reference_scan(table, covered)
        kept = [
            (index, [e for e in memory if not covered(e.join_value)],
             [e for e in cold if not covered(e.join_value)])
            for index, memory, cold in survivors(table)
        ]
        before = table.total_count
        removed = table.remove_covered(covered)
        assert len(expected) > len(table.partitions)  # spans buckets
        assert [id(e) for e in removed] == [id(e) for e in expected]
        assert survivors(table) == kept
        assert table.total_count == before - len(removed)
        assert table.memory_count == sum(
            p.memory_count for p in table.partitions
        )

    def test_value_in_memory_and_cold_is_fully_removed(self, make_table):
        table = make_table()
        fill(table, [1, 17, 1])  # 1 and 17 share a bucket in both layouts
        bucket = table.partition_for(1)
        table.demote_partition(bucket)
        fill(table, [1, 17], start=10.0)
        assert bucket.probe_memory(1) and bucket.cold_count == 3

        removed = table.remove_covered(lambda value: value == 1)
        assert [e.ats for e in removed] == [10.0, 0.0, 2.0]
        assert bucket.probe_memory(1) == []
        assert [e.join_value for e in bucket.iter_cold()] == [17]
        assert [e.join_value for e in bucket.iter_memory()] == [17]
        assert table.memory_count == 1

    def test_covered_asked_once_per_distinct_value(self, make_table):
        table = make_table()
        fill(table, KEYS)
        table.demote_partition(table.partition_for(1))
        table.demote_partition(table.partition_for(2))
        fill(table, KEYS, start=100.0)
        calls = []

        def covered(value):
            calls.append(value)
            return value % 3 == 0

        table.remove_covered(covered)
        assert sorted(calls) == sorted(set(KEYS))
