"""Span wrappers that time calls into the package from outside.

A traced run replaces chosen functions and methods by wrappers that time
every call. Self time is a call's duration minus the time of the wrapped
calls made inside it. Every call is aggregated; calls of names outside
`aggregate_only` are also kept as spans (operation id, name, start, end,
parent span) in memory, up to `max_spans`, and written out when the run
ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self, aggregate_only, max_spans: int = 100_000):
        self.aggregate_only = frozenset(aggregate_only)
        self.max_spans = max_spans
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []        # [op id, name, start, end, parent span index]
        self.dropped = 0
        self.op_id = 0
        self._t0 = _now()
        self._stack = [[0.0, -1]]   # per open call: [child time, span index]
        self._undo = []
        self.active = True     # when False, wrapped calls are not timed

    def wrap(self, owner, attr: str, name: str, count=None):
        """Replace owner.attr by a timed wrapper. `count(args)`, if given,
        adds to the counter of the same name."""
        orig = owner.__dict__[attr]
        call = self.call

        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            if count is not None:
                self.counts[name] += count(args)
            return call(name, orig, args, kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def unwrap_all(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def run_op(self, fn, item):
        """One operation as the root span of its own id."""
        self.op_id += 1
        return self.call("op", fn, (item,), {})

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1]
        index = parent[1]
        if name not in self.aggregate_only:
            if len(self.spans) < self.max_spans:
                index = len(self.spans)
                self.spans.append([self.op_id, name, 0.0, 0.0, parent[1]])
            else:
                self.dropped += 1
        frame = [0.0, index]
        stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            took = end - start
            parent[0] += took
            self.calls[name] += 1
            self.total_s[name] += took
            self.self_s[name] += took - frame[0]
            if index != parent[1]:
                span = self.spans[index]
                span[2] = start - self._t0
                span[3] = end - self._t0

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["op", "name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "dropped": self.dropped,
            "aggregate": {name: {"calls": self.calls[name],
                                 "total_s": self.total_s[name],
                                 "self_s": self.self_s[name]}
                          for name in sorted(self.calls)},
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
