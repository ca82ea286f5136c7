"""Call tracing from outside the program.

``Tracer.wrap`` replaces a module or class attribute that crdsasim looks up
at call time with a wrapper that times the call, counts it and records a
span (name, start, end, parent span).  The program is not edited; the
wrappers are removed again when the ``installed`` block ends.  Spans and
counts stay in memory until ``write`` puts them in files.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
from array import array
from collections import Counter
from time import perf_counter_ns


class CallStats:
    __slots__ = ("calls", "total_ns", "child_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0      # wall time inside the call, children included
        self.child_ns = 0      # part of total_ns spent in wrapped children


class Tracer:
    def __init__(self):
        self.stats: dict[str, CallStats] = {}
        self.counters: Counter[str] = Counter()
        self._stack = []       # frames [name, child_ns, span_id] of open calls
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next_id = 0
        # one row per recorded span: id, parent id (-1 for roots), name id,
        # start and end in perf_counter nanoseconds
        self.spans = tuple(array("q") for _ in range(5))
        self._wrapped = []

    def count(self, key: str, n: int = 1):
        self.counters[key] += n

    def wrap(self, owner, attr: str, name: str, observe=None, span=True):
        """Register a wrapper tracing calls to ``owner.attr`` as ``name``.

        ``observe(args, result, parent_name)`` runs after each call; its
        time counts as the caller's child time, so it inflates no layer's
        self time.  ``span=False`` keeps counts and times but records no
        span, for calls made several times per terminal per block.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        st = self.stats.setdefault(name, CallStats())
        name_id = self._name_ids.setdefault(name, len(self._names))
        if name_id == len(self._names):
            self._names.append(name)
        stack = self._stack
        ids, parents, names, starts, ends = self.spans

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [name, 0, span_id]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
            st.calls += 1
            st.total_ns += t1 - t0
            st.child_ns += frame[1]
            if observe is not None:
                observe(args, result, parent[0] if parent else None)
            if parent is not None:
                parent[1] += perf_counter_ns() - t0
            if span:
                ids.append(span_id)
                parents.append(parent[2] if parent else -1)
                names.append(name_id)
                starts.append(t0)
                ends.append(t1)
            return result

        self._wrapped.append((owner, attr, orig, wrapper))

    @contextlib.contextmanager
    def installed(self):
        """Put every wrapper in place for the block, then restore."""
        try:
            for owner, attr, _, wrapper in self._wrapped:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig, _ in reversed(self._wrapped):
                setattr(owner, attr, orig)

    def write(self, stem):
        """Write ``<stem>.spans.csv`` and ``<stem>.counts.json``."""
        ids, parents, names, starts, ends = self.spans
        with open(f"{stem}.spans.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "parent", "name", "start_ns", "end_ns"])
            for row in zip(ids, parents, names, starts, ends):
                w.writerow([row[0], row[1], self._names[row[2]], row[3], row[4]])
        doc = {
            "calls": {k: {"calls": s.calls, "total_ns": s.total_ns,
                          "child_ns": s.child_ns}
                      for k, s in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
        }
        with open(f"{stem}.counts.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
