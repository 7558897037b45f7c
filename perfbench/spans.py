"""Benchmark-side spans around the library's public calls.

The benchmark measures every layer from outside: each call it makes into
the library goes through :meth:`Layers.call`.  With a :class:`Tracer`
attached the call is recorded as a span (name, start, end, parent span,
op id); with an injected delay (self-tests only) it sleeps first.  With
neither it is a plain call.  Spans stay in memory and are written out as
a Chrome trace when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# The name of the span that delimits one op (not a layer).
OP = "op"


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder with a parent stack and a current op id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def begin(self, name: str, start_ns: int | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        start = time.perf_counter_ns() if start_ns is None else start_ns
        self.spans.append(Span(sid, name, start, start, parent, self.op))
        self._stack.append(sid)
        return sid

    def end(self, sid: int, end_ns: int | None = None) -> None:
        if not self._stack or self._stack[-1] != sid:
            raise RuntimeError(f"span {self.spans[sid].name!r} closed out of order")
        self._stack.pop()
        self.spans[sid].end_ns = time.perf_counter_ns() if end_ns is None else end_ns

    def add(self, name: str, start_ns: int, end_ns: int, parent: int) -> None:
        """Record a finished span under ``parent`` (a library span lifted in)."""
        sid = len(self.spans)
        self.spans.append(Span(sid, name, start_ns, end_ns, parent, self.spans[parent].op))


class Layers:
    """The benchmark's single gateway into the library's layers."""

    def __init__(self, tracer: Tracer | None = None, delays: dict | None = None) -> None:
        self.tracer = tracer
        self.delays = dict(delays or {})

    def call(self, name: str, fn, *args, **kwargs):
        tracer = self.tracer
        sid = tracer.begin(name) if tracer is not None else None
        try:
            if name in self.delays:
                time.sleep(self.delays[name])
            return fn(*args, **kwargs)
        finally:
            if sid is not None:
                tracer.end(sid)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the time its (sequential) children cover."""
    child = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur_ns
    return {s.id: max(0, s.dur_ns - child[s.id]) for s in spans}


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, busy (duration) and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for s in spans:
        t = out[s.name]
        t["calls"] += 1
        t["busy_s"] += s.dur_ns / 1e9
        t["self_s"] += selfs[s.id] / 1e9
    return dict(out)


def coverage(spans: list[Span]) -> float:
    """Share of op time that layer spans' self times account for.

    An op's root span is either an ``op`` span (the benchmark's loop
    wrapper, not a layer) or a layer span that delimits the op itself.
    """
    selfs = self_times(spans)
    op_ns = sum(s.dur_ns for s in spans if s.parent is None)
    layer_ns = sum(selfs[s.id] for s in spans if s.name != OP)
    return layer_ns / op_ns if op_ns else 0.0


def write_chrome_trace(path: Path, spans: list[Span], library_spans=(), meta=None) -> None:
    """Chrome ``trace_event`` JSON: benchmark spans as pid 1, library spans as pid 2."""
    events = [
        {
            "name": s.name,
            "ph": "X",
            "pid": 1,
            "tid": 0,
            "ts": s.start_ns / 1e3,
            "dur": s.dur_ns / 1e3,
            "args": {"id": s.id, "parent": s.parent, "op": s.op},
        }
        for s in spans
    ]
    events += [
        {
            "name": s.name,
            "cat": s.cat,
            "ph": "X",
            "pid": 2,
            "tid": s.tid,
            "ts": s.start_ns / 1e3,
            "dur": s.dur_ns / 1e3,
        }
        for s in library_spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "otherData": meta or {}}))
