"""In-memory span recording around wrapped callables.

The traced run replaces chosen functions with wrappers that record a
span (name, start, end, parent) and a call count each time they run.
Nothing inside the program is switched on: the engine's tracer and the
profiler stay unset, so the wrapped code is the code the untraced runs
execute.

A span's *self time* is its duration minus the durations of its direct
child spans.  The root span covers the whole run, so its self time is
the part no layer claims, and the self times of all names add up to the
root's duration exactly (up to float rounding).
"""

from __future__ import annotations

import struct
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

# Called after a wrapped call returns, outside its span, with the
# call's arguments and result.
OnExit = Callable[[tuple, Any], None]


class SpanRecorder:
    """Spans of one run kept in flat columns, plus per-name totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.calls: Dict[str, int] = defaultdict(int)
        self._self_by_id: Dict[int, float] = defaultdict(float)
        # Open spans: [span index, summed duration of direct children].
        self._stack: List[List[Any]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self, name: str, fn: Callable[..., Any], on_exit: Optional[OnExit] = None
    ) -> Callable[..., Any]:
        """Return *fn* wrapped in a span called *name*."""
        nid = self._id(name)
        stack = self._stack
        clock = self.clock
        name_ids, starts, ends, parents = (
            self.name_ids, self.starts, self.ends, self.parents
        )
        self_by_id = self._self_by_id
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                starts[index] = start
                ends[index] = end
                self_by_id[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name."""
        return {self.names[i]: t for i, t in self._self_by_id.items()}

    def total_seconds(self) -> float:
        """Summed duration of the top-level spans."""
        return sum(
            self.ends[i] - self.starts[i]
            for i in range(len(self.parents))
            if self.parents[i] == -1
        )

    def write(self, path: str) -> None:
        """Write every span: a JSON-free binary layout, read by :func:`read`.

        Header: span count, name count, then each name (length-prefixed
        UTF-8); then the name-id, parent, start and end columns.
        """
        with open(path, "wb") as out:
            out.write(struct.pack("<II", len(self.starts), len(self.names)))
            for name in self.names:
                encoded = name.encode()
                out.write(struct.pack("<I", len(encoded)) + encoded)
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(out)


def read(path: str) -> List[tuple]:
    """Spans written by :meth:`SpanRecorder.write` as (name, start, end, parent)."""
    with open(path, "rb") as src:
        n_spans, n_names = struct.unpack("<II", src.read(8))
        names = []
        for _ in range(n_names):
            (length,) = struct.unpack("<I", src.read(4))
            names.append(src.read(length).decode())
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array(code)
            column.fromfile(src, n_spans)
            columns.append(column)
    ids, parents, starts, ends = columns
    return [
        (names[ids[i]], starts[i], ends[i], parents[i]) for i in range(n_spans)
    ]


class Patches:
    """Attribute replacements that are all undone together."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr`` to ``make(current value)``.

        *owner* may be a class, an instance or a module.  For a class the
        current value is the plain function, so the replacement binds
        like a method.
        """
        own = vars(owner).get(attr, self._MISSING)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, own))

    def undo(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
