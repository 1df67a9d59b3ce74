"""Performance subsystem: parallel sweeps and hot-path indexes.

Two independent tools live here:

* :mod:`repro.perf.parallel` — a :class:`ParallelSweepRunner` that fans
  the points of a figure/ablation sweep out across worker processes and
  deterministically merges the results (``--jobs N`` on the CLI);
* :mod:`repro.perf.interval` — the bisect-based range index used by
  :class:`~repro.punctuations.store.PunctuationStore` to answer
  ``setMatch`` on range punctuations without a linear scan.

Simulation *results* never depend on wall-clock speed — virtual time is
fully deterministic — so both are pure accelerators: same output, less
waiting.  Wall-clock speed itself is measured by the ``joinbench``
benchmark at the repository root.

Attribute access is lazy (PEP 562): :mod:`repro.perf.interval` is
imported from hot-path modules (the punctuation store), which must not
pull in the experiment harness that :mod:`repro.perf.parallel` depends
on.
"""

from __future__ import annotations

from typing import Any

__all__ = ["ParallelSweepRunner", "RangeIntervalIndex"]


def __getattr__(name: str) -> Any:
    if name == "ParallelSweepRunner":
        from repro.perf.parallel import ParallelSweepRunner

        return ParallelSweepRunner
    if name == "RangeIntervalIndex":
        from repro.perf.interval import RangeIntervalIndex

        return RangeIntervalIndex
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
