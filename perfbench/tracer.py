"""Span tracer that measures pulldisc's layers from outside.

Every boundary is a public function or method that one layer calls another
through (``crypto.verify``, ``wire.decode``, ``keytree.retrieve_naive``...).
While a ``Tracer`` is installed, each of those attributes is replaced by a
wrapper that records one span per call (name, start, end, parent span) and,
for a few boundaries, a work count taken from the arguments or the return
value. Callers that bound the function under another name before the patch
(``from .crypto import verify``) are not seen; the coverage guard in
``run.py`` turns that into a failure instead of a silent zero.

Spans are kept in flat arrays while the pass runs and written out once it
ends; self time (span time minus the time its child spans cover) is
computed from them afterwards.
"""

from __future__ import annotations

import json
import types
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.queue_peak = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(args, result, exc) adds to
        the counter ``name`` + its returned (suffix, amount)."""
        nid = self._name_id(name)
        stack, name_ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end,
        )
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            result = exc = None
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                ends[index] = perf_counter()
                stack.pop()
                if count is not None:
                    suffix, amount = count(args, result, exc)
                    counts[name + suffix] = counts.get(name + suffix, 0) + amount

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def patch_heap(self, module, events: str) -> None:
        """Count event-queue pops (as counter ``events``) and the peak depth
        seen by ``module``.

        ``module`` reaches ``heapq`` through its module attribute, so a shim
        there sees every push and pop of the event loop and nothing else.
        """
        import heapq

        counts = self.counts
        counts[events] = 0

        def heappush(heap, item):
            heapq.heappush(heap, item)
            if len(heap) > self.queue_peak:
                self.queue_peak = len(heap)

        def heappop(heap):
            counts[events] += 1
            return heapq.heappop(heap)

        self._undo.append((module, "heapq", module.heapq))
        module.heapq = types.SimpleNamespace(heappush=heappush, heappop=heappop)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def layer_times(self, root: str) -> tuple[dict, dict]:
        """Per boundary name: calls, total seconds and self seconds, split
        into spans under a top-level ``root`` span and all others.

        No wrapped boundary calls itself, so a name's total time never
        counts the same interval twice.
        """
        n = len(self.start)
        root_id = self._ids.get(root, -1)
        child = [0.0] * n
        under = [False] * n
        inside, outside = {}, {}
        for i in range(n):  # a parent's index is always below its child's
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                under[i] = under[p]
            else:
                under[i] = self.name_id[i] == root_id
        for i in range(n):
            dur = self.end[i] - self.start[i]
            table = inside if under[i] else outside
            entry = table.setdefault(self.names[self.name_id[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - child[i]
        return inside, outside

    def spans_nested(self) -> bool:
        """Every span ends after it starts and lies inside its parent."""
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            p = parent[i]
            if end[i] < start[i] or (p >= 0 and not start[p] <= start[i] <= end[i] <= end[p]):
                return False
        return True

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name_id:i", "parent:i", "start:d", "end:d"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
