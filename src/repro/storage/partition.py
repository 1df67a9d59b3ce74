"""State entries and hybrid hash-bucket partitions.

A :class:`StateEntry` wraps one state-resident tuple together with the
metadata the join algorithms need:

* ``ats`` — arrival timestamp (when the tuple entered the state);
* ``dts`` — departure timestamp (when its partition was flushed to
  disk; ``inf`` while memory-resident).  Together ``[ats, dts)`` is the
  tuple's memory-residency interval, the basis of XJoin's timestamp
  duplicate-prevention;
* ``pid`` — the punctuation-index id assigned by PJoin's index builder
  (``None`` until indexed), mirroring the paper's augmented tuple
  structure (Figure 2 (b)).

A :class:`HybridPartition` is one hash bucket with a memory portion and
a disk portion.  The memory portion is organised as a ``join value →
entries`` dict: real match lookup is O(matches), while the *virtual*
probe cost charged by the cost model is proportional to the bucket's
total occupancy, modelling a bucket-chain scan.

A third, *cold* portion backs the memory governor
(:mod:`repro.memory`): a governor eviction demotes the whole memory
portion into the cold list without stamping ``dts`` — the entries stay
memory-resident as far as the join algorithms' duplicate-prevention
intervals are concerned, they are merely paged out and faulted back
(in original order) before the next probe touches the bucket.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.tuples.tuple import Tuple

INFINITY = math.inf


class StateEntry:
    """One tuple resident in a join state, with join metadata."""

    __slots__ = ("tup", "join_value", "join_hash", "ats", "dts", "pid")

    def __init__(
        self,
        tup: Tuple,
        join_value: Any,
        ats: float,
        join_hash: Optional[int] = None,
    ) -> None:
        self.tup = tup
        self.join_value = join_value
        # stable_hash(join_value), cached once at insert so later bucket
        # lookups (purge cascades, disk-join grouping) never rehash.
        self.join_hash = join_hash
        self.ats = ats
        self.dts: float = INFINITY
        self.pid: Optional[int] = None

    @property
    def in_memory(self) -> bool:
        return self.dts == INFINITY

    def __repr__(self) -> str:
        where = "mem" if self.in_memory else f"disk@{self.dts:g}"
        return f"StateEntry({self.tup!r}, {where}, pid={self.pid})"


class HybridPartition:
    """One hash bucket: a memory portion plus a disk portion.

    The disk portion is a flat list of entries (the algorithms always
    read a disk portion in full), plus the history of virtual times at
    which it was probed against the opposite memory portion — needed by
    XJoin's stage-3 duplicate prevention.
    """

    __slots__ = (
        "index",
        "memory",
        "memory_count",
        "cold",
        "disk",
        "probe_history",
        "last_insert_ts",
        "last_spill_ts",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.memory: Dict[Any, List[StateEntry]] = {}
        self.memory_count = 0
        # Governor-demoted entries: logically memory-resident
        # (``dts`` untouched) but paged out until the next fault-in.
        self.cold: List[StateEntry] = []
        self.disk: List[StateEntry] = []
        # Times at which stage 2 probed this disk portion against the
        # opposite memory portion, in increasing order.
        self.probe_history: List[float] = []
        # Arrival time of the newest memory entry; lets the reactive
        # disk-join stage skip partitions with nothing new to pair.
        self.last_insert_ts = -INFINITY
        # Time of the latest flush; lets a full disk join detect fresh
        # disk-disk work since the previous full run.
        self.last_spill_ts = -INFINITY

    # ------------------------------------------------------------------
    # Memory portion
    # ------------------------------------------------------------------

    def insert(self, entry: StateEntry) -> None:
        """Add *entry* to the memory portion."""
        self.memory.setdefault(entry.join_value, []).append(entry)
        self.memory_count += 1
        if entry.ats > self.last_insert_ts:
            self.last_insert_ts = entry.ats

    def probe_memory(self, join_value: Any) -> List[StateEntry]:
        """Memory-resident entries matching *join_value* (may be empty)."""
        return self.memory.get(join_value, [])

    def iter_memory(self) -> Iterator[StateEntry]:
        for entries in self.memory.values():
            yield from entries

    def remove_memory_value(self, join_value: Any) -> List[StateEntry]:
        """Drop and return all memory entries with the given join value."""
        entries = self.memory.pop(join_value, [])
        self.memory_count -= len(entries)
        return entries

    # ------------------------------------------------------------------
    # Cold portion (governor paging; ``dts`` never touched here)
    # ------------------------------------------------------------------

    def demote(self) -> int:
        """Page the whole memory portion out to the cold list.

        Entries keep ``dts = inf`` (they remain memory-resident for the
        algorithms' duplicate-prevention intervals) and their insertion
        order, so a later :meth:`promote` restores the memory dict
        exactly.  Returns the number of tuples demoted (the governor
        charges disk-write cost for them).
        """
        moved = 0
        for entries in self.memory.values():
            self.cold.extend(entries)
            moved += len(entries)
        self.memory.clear()
        self.memory_count = 0
        return moved

    def promote(self) -> int:
        """Fault every cold entry back into the memory portion.

        Re-inserts in demotion order, which is insertion order, so the
        per-value entry lists come back byte-identical to the
        pre-demotion structure.  Returns the number of tuples promoted
        (the governor charges disk-read cost for them).
        """
        moved = len(self.cold)
        for entry in self.cold:
            self.memory.setdefault(entry.join_value, []).append(entry)
        self.memory_count += moved
        self.cold.clear()
        return moved

    @property
    def cold_count(self) -> int:
        return len(self.cold)

    def iter_cold(self) -> Iterator[StateEntry]:
        return iter(self.cold)

    def remove_cold_values(self, covered: Callable[[Any], bool]) -> List[StateEntry]:
        """Drop and return cold entries whose join value is *covered*."""
        removed: List[StateEntry] = []
        kept: List[StateEntry] = []
        for entry in self.cold:
            (removed if covered(entry.join_value) else kept).append(entry)
        if removed:
            self.cold = kept
        return removed

    # ------------------------------------------------------------------
    # Disk portion
    # ------------------------------------------------------------------

    def spill(self, now: float) -> int:
        """Move the whole memory portion to the disk portion.

        Every moved entry gets ``dts = now``.  Cold entries are swept
        along: they are logically memory-resident, so an algorithmic
        flush of this bucket closes their residency interval too.
        Returns the number of tuples moved (the caller charges
        disk-write cost for them).
        """
        moved = 0
        for entries in self.memory.values():
            for entry in entries:
                entry.dts = now
                self.disk.append(entry)
                moved += 1
        self.memory.clear()
        self.memory_count = 0
        for entry in self.cold:
            entry.dts = now
            self.disk.append(entry)
            moved += 1
        self.cold.clear()
        if moved:
            self.last_spill_ts = now
        return moved

    @property
    def disk_count(self) -> int:
        return len(self.disk)

    def iter_disk(self) -> Iterator[StateEntry]:
        return iter(self.disk)

    def remove_disk_where(
        self, predicate: Callable[[StateEntry], bool]
    ) -> List[StateEntry]:
        """Drop and return disk entries satisfying *predicate*."""
        removed = [e for e in self.disk if predicate(e)]
        if removed:
            self.disk = [e for e in self.disk if not predicate(e)]
        return removed

    def record_probe(self, now: float) -> None:
        """Record a stage-2 probe of this disk portion at virtual *now*."""
        self.probe_history.append(now)

    @property
    def total_count(self) -> int:
        return self.memory_count + len(self.cold) + len(self.disk)

    def __repr__(self) -> str:
        return (
            f"HybridPartition(#{self.index}, mem={self.memory_count}, "
            f"cold={len(self.cold)}, disk={len(self.disk)})"
        )
