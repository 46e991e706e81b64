"""Spans recorded around calls into dqwalk's layers, from outside the package.

`Tracer.wrap` returns a wrapper that records one span per call: name, start,
end and the span that was open when it was called.  child.py puts the
wrappers in the namespaces where callers look the functions up (for example
`dqwalk.ensemble.step`, which `_run_member` calls).  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# parent id of a span opened when no other span was open
ROOT = -1


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = [ROOT]

    def wrap(self, fn, name):
        """`fn` wrapped so every call records a span called `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(None)
            self._stack.append(sid)
            self.starts.append(self.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[sid] = self.clock()
                self._stack.pop()

        return traced

    def spans(self):
        """(id, name, start, end, parent) for every finished span."""
        return [
            (i, n, s, e, p)
            for i, (n, s, e, p) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            )
            if e is not None
        ]

    def write(self, path, trace_id):
        """One JSON object per line; times are seconds on the tracer's clock."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans():
                fh.write(json.dumps({
                    "trace": trace_id, "id": sid, "name": name,
                    "start": start, "end": end,
                    "parent": None if parent == ROOT else parent,
                }) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the part its child spans cover.

    `spans` holds (id, name, start, end, parent) tuples.  Overlapping
    children are merged first, so time two children share counts once.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def summarize(spans):
    """name -> {"calls", "total_s", "self_s"} summed over every span of that name."""
    selfs = self_times(spans)
    out = {}
    for sid, name, start, end, _ in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
    return out
