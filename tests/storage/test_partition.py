"""Unit tests for state entries and hybrid partitions."""

import math

from repro.storage.partition import HybridPartition, StateEntry
from repro.tuples.schema import Schema
from repro.tuples.tuple import Tuple

SCHEMA = Schema.of("key", "v")


def entry(key, ts=0.0):
    return StateEntry(Tuple(SCHEMA, (key, 0), ts=ts), key, ats=ts)


class TestStateEntry:
    def test_starts_in_memory_with_null_pid(self):
        e = entry(1)
        assert e.in_memory
        assert e.dts == math.inf
        assert e.pid is None

    def test_leaves_memory_when_dts_set(self):
        e = entry(1)
        e.dts = 5.0
        assert not e.in_memory


class TestHybridPartition:
    def test_insert_and_probe(self):
        part = HybridPartition(0)
        e1, e2 = entry(1), entry(1)
        part.insert(e1)
        part.insert(e2)
        part.insert(entry(2))
        assert part.memory_count == 3
        assert part.probe_memory(1) == [e1, e2]
        assert part.probe_memory(99) == []

    def test_last_insert_ts_tracks_newest(self):
        part = HybridPartition(0)
        part.insert(entry(1, ts=3.0))
        part.insert(entry(2, ts=1.0))
        assert part.last_insert_ts == 3.0

    def test_remove_memory_value(self):
        part = HybridPartition(0)
        part.insert(entry(1))
        part.insert(entry(1))
        part.insert(entry(2))
        removed = part.remove_memory_value(1)
        assert len(removed) == 2
        assert part.memory_count == 1
        assert part.probe_memory(1) == []

    def test_remove_cold_values(self):
        part = HybridPartition(0)
        for key, ts in [(1, 1.0), (2, 2.0), (1, 3.0), (3, 4.0)]:
            part.insert(entry(key, ts=ts))
        part.demote()
        removed = part.remove_cold_values(lambda value: value == 1)
        assert [e.ats for e in removed] == [1.0, 3.0]
        assert [e.ats for e in part.iter_cold()] == [2.0, 4.0]
        assert all(e.in_memory for e in removed)  # paging never stamps dts

    def test_spill_moves_everything_and_stamps_dts(self):
        part = HybridPartition(0)
        part.insert(entry(1))
        part.insert(entry(2))
        moved = part.spill(now=7.0)
        assert moved == 2
        assert part.memory_count == 0
        assert part.disk_count == 2
        assert all(e.dts == 7.0 for e in part.iter_disk())
        assert part.last_spill_ts == 7.0

    def test_empty_spill_does_not_update_spill_ts(self):
        part = HybridPartition(0)
        assert part.spill(now=7.0) == 0
        assert part.last_spill_ts == -math.inf

    def test_remove_disk_where(self):
        part = HybridPartition(0)
        part.insert(entry(1))
        part.insert(entry(2))
        part.spill(now=1.0)
        removed = part.remove_disk_where(lambda e: e.join_value == 1)
        assert len(removed) == 1
        assert part.disk_count == 1

    def test_probe_history_records(self):
        part = HybridPartition(0)
        part.record_probe(1.0)
        part.record_probe(2.0)
        assert part.probe_history == [1.0, 2.0]

    def test_total_count(self):
        part = HybridPartition(0)
        part.insert(entry(1))
        part.spill(now=1.0)
        part.insert(entry(2))
        assert part.total_count == 2
