"""In-memory spans around the benchmark's own calls into streamlb.

A span is (id, parent id, op index, name, start, end) with times from
`time.perf_counter()`. Spans stay in a list and are written once, at exit.
With tracing off, `span()` hands back one shared no-op context manager, so
the untraced run pays a method call per layer call and nothing else.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.op = None  # index of the op being run; None during set-up
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.sid, self.parent, tr.op, self.name, self.start, end))
        return False


def busy_by_name(spans) -> dict[str, dict]:
    """Per span name, its summed duration in each op (key: op index, None for set-up)."""
    out: dict[str, dict] = {}
    for _, _, op, name, start, end in spans:
        per_op = out.setdefault(name, {})
        per_op[op] = per_op.get(op, 0.0) + end - start
    return out


def unaccounted_per_op(spans, op_span: str = "op") -> list[float]:
    """For each op span, its duration minus the time its child spans cover."""
    ops = {sid: end - start for sid, _, _, name, start, end in spans if name == op_span}
    covered = dict.fromkeys(ops, 0.0)
    for _, parent, _, _, start, end in spans:
        if parent in covered:
            covered[parent] += end - start
    return [ops[sid] - covered[sid] for sid in ops]
