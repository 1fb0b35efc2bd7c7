"""In-memory spans around the benchmark's calls into deltamat.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of its parent span and the id of the op it belongs to.  Spans are only
recorded while a ``Tracer`` is enabled; a disabled tracer costs one branch
per call, and the end-to-end metrics come from rounds run with it disabled.

The workloads make every call into deltamat through ``Tracer.call``, which
also times the call, enabled or not, and then runs the ``after_call`` hook
outside every span.  The runner uses the hook to time the reference task
between the calls of an op.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self.calls: list[float] = []  # seconds of each call made through call()
        self.after_call = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "op": self.op_id}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def call(self, name: str):
        """One call into deltamat: a span, timed into ``calls``, then ``after_call``."""
        t = time.perf_counter()
        with self.span(name):
            yield
        self.calls.append(time.perf_counter() - t)
        if self.after_call is not None:
            enabled, self.enabled = self.enabled, False
            self.after_call()
            self.enabled = enabled

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover.

        Children of one span run one after another, so the part of its
        interval they cover is the sum of their durations.
        """
        spans = self.spans[first:last]
        child_time = [0.0] * len(spans)
        for s in spans:
            parent = s["parent"]
            if parent is not None and parent >= first:
                child_time[parent - first] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(spans, child_time):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
