"""The partitioned hash table holding one stream's join state.

Both joins (XJoin and PJoin) maintain one :class:`PartitionedHashTable`
per input stream.  Hashing uses :func:`stable_hash`, which — unlike the
builtin ``hash`` on strings — is stable across Python processes, so a
seeded experiment produces the identical event trace every run.
"""

from __future__ import annotations

import functools
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple as PyTuple

from repro.errors import StorageError
from repro.storage.partition import HybridPartition, StateEntry
from repro.tuples.tuple import Tuple

# repr+CRC results for non-int join values.  Join domains are small
# (thousands of distinct keys) while tuple counts are large, so almost
# every probe/insert is a cache hit; the cap bounds pathological
# all-distinct workloads.  Process-local, so cross-process stability
# (the property the tests pin down) is untouched.
_HASH_CACHE: Dict[Any, int] = {}
_HASH_CACHE_MAX = 1 << 16


def stable_hash(value: Any) -> int:
    """A process-stable hash for join values.

    Integers hash to themselves; everything else hashes through CRC-32
    of its ``repr`` (memoized).  Python's builtin string hash is salted
    per process (``PYTHONHASHSEED``), which would make bucket assignment
    — and hence every virtual-time measurement — vary between runs.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    try:
        cached = _HASH_CACHE.get(value)
    except TypeError:  # unhashable join value: compute uncached
        return zlib.crc32(repr(value).encode("utf-8"))
    if cached is None:
        cached = zlib.crc32(repr(value).encode("utf-8"))
        if len(_HASH_CACHE) < _HASH_CACHE_MAX:
            _HASH_CACHE[value] = cached
    return cached


class PartitionedHashTable:
    """Hash table over *n_partitions* hybrid buckets.

    Parameters
    ----------
    n_partitions:
        Number of hash buckets.  The paper-scale experiments use a
        moderate count (default 16) so that an unpurged state visibly
        lengthens bucket chains.
    """

    def __init__(self, n_partitions: int = 16) -> None:
        if n_partitions < 1:
            raise StorageError(f"need at least one partition, got {n_partitions}")
        self.n_partitions = n_partitions
        self.partitions = [HybridPartition(i) for i in range(n_partitions)]
        self.memory_count = 0
        self.total_inserted = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def partition_index_for(self, hash_value: int) -> int:
        """Flat index of the bucket a hash value maps to.

        The single placement decision of the table: subclasses (the
        skew layer's :class:`~repro.skew.partitioner.AdaptiveTable`)
        override exactly this, and every placement-sensitive caller —
        insert, probe, purge-buffer grouping, the disk join's pairing —
        routes through it.
        """
        return hash_value % self.n_partitions

    def partition_for(
        self, join_value: Any, hash_value: Optional[int] = None
    ) -> HybridPartition:
        """The bucket a join value hashes to.

        Callers that already know ``stable_hash(join_value)`` — e.g.
        because the same tuple both probes and inserts — pass it as
        *hash_value* to skip rehashing.
        """
        if hash_value is None:
            hash_value = stable_hash(join_value)
        return self.partitions[self.partition_index_for(hash_value)]

    def insert(
        self,
        tup: Tuple,
        join_value: Any,
        ats: float,
        hash_value: Optional[int] = None,
    ) -> StateEntry:
        """Insert a tuple; returns its new :class:`StateEntry`."""
        if hash_value is None:
            hash_value = stable_hash(join_value)
        entry = StateEntry(tup, join_value, ats, hash_value)
        self.partitions[self.partition_index_for(hash_value)].insert(entry)
        self.memory_count += 1
        self.total_inserted += 1
        return entry

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def probe(
        self, join_value: Any, hash_value: Optional[int] = None
    ) -> PyTuple[int, List[StateEntry]]:
        """Probe the memory portion of the matching bucket.

        Returns ``(bucket_occupancy, matching_entries)``.  The occupancy
        (all memory-resident tuples in the bucket, matching or not) is
        what the cost model charges for — it models scanning the bucket
        chain, which is exactly the cost that grows when dead tuples are
        never purged.
        """
        partition = self.partition_for(join_value, hash_value)
        return partition.memory_count, partition.probe_memory(join_value)

    # ------------------------------------------------------------------
    # Removal (purging)
    # ------------------------------------------------------------------

    def remove_value(self, join_value: Any) -> List[StateEntry]:
        """Drop and return all memory entries with this join value."""
        removed = self.partition_for(join_value).remove_memory_value(join_value)
        self.memory_count -= len(removed)
        return removed

    def remove_covered(self, covered: Callable[[Any], bool]) -> List[StateEntry]:
        """Drop and return every entry whose join value is *covered*.

        Purge retires whole join values, so each bucket's covered value
        lists are popped from its memory dict without touching their
        entries.  Governor-demoted cold entries are swept too: they are
        logically memory-resident, so a purge that covers them reclaims
        them without ever faulting them back in.  *covered* is asked at
        most once per distinct value; the result lists entries bucket by
        bucket, memory entries in dict order, then cold entries.
        """
        removed: List[StateEntry] = []
        # Only a bucket with a cold tier can meet a value twice.
        memo = functools.lru_cache(maxsize=None)(covered)
        for partition in self.partitions:
            test = memo if partition.cold else covered
            for value in [v for v in partition.memory if test(v)]:
                from_memory = partition.remove_memory_value(value)
                self.memory_count -= len(from_memory)
                removed.extend(from_memory)
            if partition.cold:
                removed.extend(partition.remove_cold_values(memo))
        return removed

    # ------------------------------------------------------------------
    # Spilling
    # ------------------------------------------------------------------

    def largest_memory_partition(self) -> HybridPartition:
        """The bucket with the largest memory portion (XJoin's victim)."""
        return max(self.partitions, key=lambda p: p.memory_count)

    def spill_partition(self, partition: HybridPartition, now: float) -> int:
        """Flush one bucket's memory portion to disk; returns tuples moved.

        Sweeps governor-demoted cold entries along with the warm ones
        (they are logically memory-resident), so the return value may
        exceed the bucket's warm ``memory_count``.
        """
        warm = partition.memory_count
        moved = partition.spill(now)
        self.memory_count -= warm
        return moved

    # ------------------------------------------------------------------
    # Governor paging (cold tier; ``dts`` untouched)
    # ------------------------------------------------------------------

    def demote_partition(self, partition: HybridPartition) -> int:
        """Page one bucket's memory portion out to its cold list."""
        moved = partition.demote()
        self.memory_count -= moved
        return moved

    def promote_partition(self, partition: HybridPartition) -> int:
        """Fault one bucket's cold list back into its memory portion."""
        moved = partition.promote()
        self.memory_count += moved
        return moved

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def disk_count(self) -> int:
        return sum(p.disk_count for p in self.partitions)

    @property
    def cold_count(self) -> int:
        return sum(p.cold_count for p in self.partitions)

    @property
    def total_count(self) -> int:
        return self.memory_count + self.cold_count + self.disk_count

    def iter_memory(self) -> Iterator[StateEntry]:
        for partition in self.partitions:
            yield from partition.iter_memory()

    def iter_cold(self) -> Iterator[StateEntry]:
        for partition in self.partitions:
            yield from partition.iter_cold()

    def iter_disk(self) -> Iterator[StateEntry]:
        for partition in self.partitions:
            yield from partition.iter_disk()

    def iter_all(self) -> Iterator[StateEntry]:
        yield from self.iter_memory()
        yield from self.iter_cold()
        yield from self.iter_disk()

    def partitions_with_disk(self) -> List[HybridPartition]:
        """Buckets that currently have a non-empty disk portion."""
        return [p for p in self.partitions if p.disk_count > 0]

    def partitions_with_cold(self) -> List[HybridPartition]:
        """Buckets with governor-demoted (cold) entries."""
        return [p for p in self.partitions if p.cold_count > 0]

    def __len__(self) -> int:
        return self.total_count

    def __repr__(self) -> str:
        return (
            f"PartitionedHashTable(n={self.n_partitions}, "
            f"mem={self.memory_count}, disk={self.disk_count})"
        )
