"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer, timed from the benchmark's own code: its
name, start and end (``perf_counter_ns``), the index of the span that caused
it (-1 at top level) and the id of the benchmark op it belongs to (-1
outside ops).  Spans are kept as five int64 fields each in one flat
``array`` so that recording allocates no per-span objects; they are written
out once, when the run ends.
"""

from __future__ import annotations

import statistics
import time
from array import array
from pathlib import Path

FIELDS = 5


class Tracer:
    def __init__(self, names: tuple[str, ...]) -> None:
        self.names = names
        self.codes = {name: i for i, name in enumerate(names)}
        self.spans = array("q")
        self.parent = -1
        self.op_id = -1

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a child of the open span."""
        code = self.codes[name]
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.extend((code, start, clock(), tracer.parent, tracer.op_id))

        return traced

    def open(self, name: str, op_id: int = -1) -> None:
        """Start a parent span; calls through wrapped functions nest under it."""
        self.parent = len(self.spans) // FIELDS
        self.op_id = op_id
        self.spans.extend((self.codes[name], time.perf_counter_ns(), 0, -1, op_id))

    def close(self) -> None:
        self.spans[self.parent * FIELDS + 2] = time.perf_counter_ns()
        self.parent = -1
        self.op_id = -1

    def records(self):
        s = self.spans
        for i in range(0, len(s), FIELDS):
            yield s[i], s[i + 1], s[i + 2], s[i + 3], s[i + 4]

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("name,start_ns,end_ns,parent,op\n")
            names = self.names
            out.writelines(
                f"{names[code]},{start},{end},{parent},{op}\n"
                for code, start, end, parent, op in self.records()
            )

    def layer_summary(self, layers: tuple[str, ...]) -> dict[str, float]:
        """Calls, busy seconds and median microseconds of each layer."""
        durations: dict[int, list[int]] = {i: [] for i in range(len(self.names))}
        for code, start, end, _, _ in self.records():
            durations[code].append(end - start)
        out: dict[str, float] = {}
        for name in layers:
            d = durations[self.codes[name]]
            out[f"{name}.calls"] = len(d)
            out[f"{name}.busy_s"] = sum(d) / 1e9
            out[f"{name}.us_p50"] = statistics.median(d) / 1e3 if d else 0.0
        return out

    def self_ns(self, name: str) -> int:
        """Summed self time of the spans called `name`: each span's duration
        minus that of its children, which run one after another."""
        code = self.codes[name]
        total = 0
        for c, start, end, parent, _ in self.records():
            if c == code:
                total += end - start
            elif parent >= 0 and self.spans[parent * FIELDS] == code:
                total -= end - start
        return total
