"""Spans recorded around each public library call the benchmark makes.

A span is (name, start, end, parent, op id).  Spans stay in memory and are
written once, after the run; the untraced phase uses ``NO_TRACE``, whose
``span`` returns one shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, seconds not covered by child spans)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - child_time[index]
        return {name: (calls, seconds) for name, (calls, seconds) in out.items()}

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                    )
                    + "\n"
                )


class _NoTrace:
    op_id = 0
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NO_TRACE = _NoTrace()
