"""In-memory span recorder for the benchmark's traced run.

Spans are opened by the benchmark's own files around calls into the
program's public functions; nothing under ``src/`` knows about them.
A span records its name, start, end, the span that was open on the same
thread when it started (its parent), and a request id inherited from
that parent unless given.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Span", "Tracer"]


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "rid", "tid")

    def __init__(self, name, parent, rid, tid):
        self.name, self.parent, self.rid, self.tid = name, parent, rid, tid
        self.t0 = self.t1 = time.perf_counter()

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, rid=None):
        stack = self._open.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        s = Span(name, parent, rid, threading.get_ident())
        self.spans.append(s)  # list.append is atomic under the GIL
        stack.append(s)
        try:
            yield s
        finally:
            s.t1 = time.perf_counter()
            stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per name: span time not covered by the spans it caused."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[id(s.parent)] += s.dur
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.dur - covered[id(s)]
        return dict(out)

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (open in chrome://tracing or Perfetto)."""
        t_ref = min((s.t0 for s in self.spans), default=0.0)
        tids = {tid: i for i, tid in enumerate(dict.fromkeys(s.tid for s in self.spans))}
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.t0 - t_ref) * 1e6,
                "dur": s.dur * 1e6,
                "pid": 1,
                "tid": tids[s.tid],
                "args": {} if s.rid is None else {"id": s.rid},
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
