"""Construction-time fast-path specialization of PJoin's hot path.

PJoin is the only operator with two per-tuple paths.  Its layered
``handle`` consults the contract validator, the memory governor, the
skew layer and the tracer on every tuple; at the **end of construction**
PJoin inspects its own configuration and, when every per-tuple feature
is off, installs a specialized ``handle`` closure on the *instance* that
skips the disabled layers entirely.  The class-level layered ``handle``
remains untouched and is what runs whenever any feature is on.

PJoin installs its fast path only when **all** of these hold:

* the fault policy is ``strict`` (the default).  The contract check is
  *kept* — inlined as one direct ``covers`` call with the full validator
  invoked only on an actual violation, so strict semantics (raise,
  counters) are byte-identical;
* no memory governor and no skew layer are attached;
* no tracer is attached to the engine at build time.  Punctuation-driven
  components keep their own dynamic tracer guards either way — the
  condition is conservative.

NaryPJoin, XJoin and SymmetricHashJoin have one hot path each.  PJoin's
builder stays because the repo benchmark (``joinbench``) pins it: its
layer tracer reads :func:`has_fastpath`, and its tests assert that the
``fig5_eager`` workload builds the fast path.

Closures are tagged with ``__repro_fastpath__`` so the profiling
``--check`` gate can tell a deliberate specialization from a leaked
profiler shadow, and :func:`disabled` lets the equivalence test suite
force the layered path for byte-identity comparisons.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator

# Process-wide switch, read once per operator construction.  Only the
# equivalence tests and A/B measurements should ever turn this off.
_ENABLED = True


def fastpath_enabled() -> bool:
    """Whether PJoin may install its fast-path closure when built."""
    return _ENABLED


@contextlib.contextmanager
def disabled() -> Iterator[None]:
    """Build every PJoin in this block on the layered (slow) path.

    The equivalence suite runs each preset once normally and once under
    this context; the two runs must produce byte-identical manifests.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def mark(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Tag *fn* as a deliberate fast-path instance closure."""
    fn.__repro_fastpath__ = True  # type: ignore[attr-defined]
    return fn


def is_fastpath(fn: Any) -> bool:
    """Is *fn* a tagged fast-path closure (vs. e.g. a profiler shadow)?"""
    return bool(getattr(fn, "__repro_fastpath__", False))


def has_fastpath(op: Any) -> bool:
    """Does *op* carry a fast-path ``handle`` on the instance?"""
    return is_fastpath(vars(op).get("handle"))


def strip_for_pickle(state: dict) -> dict:
    """Drop a fast-path closure from a ``__dict__`` snapshot.

    Closures cannot be pickled (the parallel sweep ships whole runs
    across processes); PJoin strips the installed ``handle`` in
    ``__getstate__`` and rebuild it in ``__setstate__``.
    """
    if is_fastpath(state.get("handle")):
        state = dict(state)
        del state["handle"]
    return state
