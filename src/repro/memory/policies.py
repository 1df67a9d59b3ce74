"""Pluggable eviction policies for the memory governor.

A policy picks the next partition to demote when the governed join is
over budget.  Candidates are ``(registration, partition)`` pairs — one
entry per hash bucket with a non-empty warm memory portion that is not
pinned by the in-flight probe — and selection must be deterministic
(ties broken by registration order, then bucket index) so seeded runs
stay reproducible.

Three policies ship:

* ``lru`` — demote the bucket whose last touch (probe fault-in or
  insert) is oldest on the governor's logical clock;
* ``largest-partition-first`` — demote the bucket with the most warm
  tuples, XJoin's classic relocation heuristic (biggest write now,
  longest reprieve before the next eviction);
* ``punctuation-aware`` — prefer buckets holding tuples that a pending
  punctuation of the opposite stream already covers: a purge will soon
  discard them, so they are the state least likely to ever fault back.
  Falls back to largest-partition-first when nothing is covered (or
  the operator exploits no punctuations at all).
* ``skew-aware`` — demote the bucket whose warm tuples the frequency
  sketch (:mod:`repro.skew.sketch`) says are coldest: cold keys probe
  rarely, so their entries are the least likely to fault back in.
  Requires a skew layer on the same operator (the join hands the
  governor its live sketch); behaves like largest-partition-first when
  no sketch is attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.governor import MemoryGovernor, SideRegistration
    from repro.storage.partition import HybridPartition

Candidate = Tuple["SideRegistration", "HybridPartition"]

LRU = "lru"
LARGEST_FIRST = "largest-partition-first"
PUNCTUATION_AWARE = "punctuation-aware"
SKEW_AWARE = "skew-aware"


class EvictionPolicy:
    """Base class: deterministic victim selection over candidates."""

    name = "abstract"

    def select(
        self, candidates: List[Candidate], governor: "MemoryGovernor"
    ) -> Candidate:
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Least recently touched bucket first."""

    name = LRU

    def select(
        self, candidates: List[Candidate], governor: "MemoryGovernor"
    ) -> Candidate:
        recency = governor.recency
        return min(
            candidates,
            key=lambda c: (recency.get((c[0].key, c[1].index), -1),
                           c[0].order, c[1].index),
        )


class LargestPartitionFirstPolicy(EvictionPolicy):
    """Largest warm memory portion first (XJoin's relocation victim)."""

    name = LARGEST_FIRST

    def select(
        self, candidates: List[Candidate], governor: "MemoryGovernor"
    ) -> Candidate:
        # max() keeps the first of equals, so order the tie-break into
        # the key: prefer lower registration order, then lower index.
        return max(
            candidates,
            key=lambda c: (c[1].memory_count, -c[0].order, -c[1].index),
        )


class PunctuationAwarePolicy(EvictionPolicy):
    """Prefer buckets a pending punctuation will soon purge.

    Scores each candidate by how many of its warm tuples the purging
    punctuation set (the opposite stream's, via the registration's
    ``covered_by`` probe) already covers.  Those tuples are doomed: the
    next purge run reclaims them from the cold list without any fault
    back, so spilling them costs one write and usually zero reads.
    """

    name = PUNCTUATION_AWARE

    def select(
        self, candidates: List[Candidate], governor: "MemoryGovernor"
    ) -> Candidate:
        best = None
        best_key = None
        for registration, partition in candidates:
            covers = registration.covered_by
            if covers is None:
                covered = 0
            else:
                covered = sum(
                    len(entries) for value, entries in partition.memory.items()
                    if covers(value)
                )
            key = (covered, partition.memory_count,
                   -registration.order, -partition.index)
            if best_key is None or key > best_key:
                best_key = key
                best = (registration, partition)
        assert best is not None  # candidates is never empty here
        return best


class SkewAwarePolicy(EvictionPolicy):
    """Demote the bucket whose warm tuples the sketch says are coldest.

    The join attaches its skew layer's live
    :class:`~repro.skew.sketch.FrequencySketch` to the governor
    (``governor.sketch``); each candidate bucket is scored by the summed
    frequency estimate of its warm tuples' join values — an estimate of
    how soon its state will be probed again.  The coldest bucket is
    demoted.  Without a sketch (governor used stand-alone) this reduces
    to largest-partition-first, keeping the policy safe to configure
    unconditionally.
    """

    name = SKEW_AWARE

    def __init__(self) -> None:
        self._fallback = LargestPartitionFirstPolicy()

    def select(
        self, candidates: List[Candidate], governor: "MemoryGovernor"
    ) -> Candidate:
        sketch = getattr(governor, "sketch", None)
        if sketch is None:
            return self._fallback.select(candidates, governor)
        best = None
        best_key = None
        for registration, partition in candidates:
            heat = sum(
                sketch.estimate(value) * len(entries)
                for value, entries in partition.memory.items()
            )
            # Coldest first; break heat ties toward the biggest write
            # (more budget reclaimed per spill), then deterministically.
            key = (-heat, partition.memory_count,
                   -registration.order, -partition.index)
            if best_key is None or key > best_key:
                best_key = key
                best = (registration, partition)
        assert best is not None  # candidates is never empty here
        return best


POLICIES: Dict[str, Type[EvictionPolicy]] = {
    LRU: LRUPolicy,
    LARGEST_FIRST: LargestPartitionFirstPolicy,
    PUNCTUATION_AWARE: PunctuationAwarePolicy,
    SKEW_AWARE: SkewAwarePolicy,
}


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate a policy by registry name."""
    from repro.errors import ConfigError

    cls = POLICIES.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown eviction policy {name!r}; choose from {sorted(POLICIES)}"
        )
    return cls()
