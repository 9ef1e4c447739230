"""Span tracer for the traced benchmark run.

Wrappers installed around the public functions at each layer boundary
record a span per call: name, start, end, parent span and request id.
Counts and self time (a span's duration minus the part its child spans
cover) are aggregated as spans close; full span records are kept only for
a deterministic sample of requests, for every balancer tick and for the
outermost spans, and are written out when the run ends.

Every span name is ``<layer>.<what>``; a layer's self time is the sum over
its names.  The root span is ``other.root``, so its own self time is the
time no layer span covers, and the layers' self times plus ``other`` add
up to the root's duration exactly.

The wrappers are passive: they call through with the same arguments and
return the same value, so a traced run produces the same simulated output
as an untraced one (the benchmark checks this by digest).
"""

from __future__ import annotations

import json
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Optional

#: Keep the full span tree of requests whose path hashes to 0 modulo this.
SAMPLE_MOD = 512


def _sampled(path: str) -> bool:
    return zlib.crc32(path.encode()) % SAMPLE_MOD == 0


class Tracer:
    """Span stack plus the aggregates the per-layer metrics are built from."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns
                 ) -> None:
        self.clock = clock
        #: Open frames: [start_ns, child_ns, span_id, request_id, keep,
        #: record]; ``keep`` passes to child spans, ``record`` does not.
        self.stack: list[list] = []
        self.calls: dict[str, int] = {}
        self.incl_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        #: Calls and inclusive time of spans that closed inside a balancer
        #: tick (``tick_open`` > 0).
        self.tick_calls: dict[str, int] = {}
        self.tick_ns: dict[str, int] = {}
        self.tick_open = 0
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.series: dict[str, list[float]] = {}
        #: (span_id, parent_id, name, start_ns, end_ns, request_id)
        self.records: list[tuple] = []
        self._next_id = 1

    # -- recording -----------------------------------------------------
    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def _close(self, name: str, frame: list, end: int,
               parent: Optional[list]) -> int:
        """Account a finished frame; returns its duration."""
        stack = self.stack
        start = frame[0]
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.incl_ns[name] = self.incl_ns.get(name, 0) + duration
        self.self_ns[name] = (self.self_ns.get(name, 0) + duration
                              - frame[1])
        if stack:
            stack[-1][1] += duration
        if self.tick_open:
            self.tick_calls[name] = self.tick_calls.get(name, 0) + 1
            self.tick_ns[name] = self.tick_ns.get(name, 0) + duration
        if frame[4] or frame[5] or len(stack) < 2:
            self.records.append((frame[2], parent[2] if parent else 0, name,
                                 start, end, frame[3]))
        return duration

    def _open(self, request: Optional[tuple[int, str]], keep_all: bool,
              record: bool = False) -> tuple[list, Optional[list]]:
        stack = self.stack
        parent = stack[-1] if stack else None
        if request is not None:
            rid, keep = request[0], _sampled(request[1])
        elif parent is not None:
            rid, keep = parent[3], parent[4]
        else:
            rid, keep = 0, False
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [0, 0, span_id, rid, keep or keep_all, record]
        stack.append(frame)
        frame[0] = self.clock()
        return frame, parent

    def wrap(self, fn: Callable, name: str | Callable[[tuple], str], *,
             request: Optional[Callable[[tuple], Optional[tuple]]] = None,
             enter: Optional[Callable[[tuple], Any]] = None,
             leave: Optional[Callable[[tuple, Any, Any, int], None]] = None,
             keep_all: bool = False) -> Callable:
        """A passive wrapper around *fn* recording one span per call.

        *name* may be a function of the call's arguments; *request* maps
        the arguments to ``(request_id, path)`` or None; *enter* runs
        before the call and its return value is handed to *leave*, which
        also gets the call's result and the span's duration.
        """
        tracer = self
        clock = self.clock
        stack = self.stack
        dynamic = callable(name)

        def traced(*args, **kwargs):
            token = enter(args) if enter is not None else None
            frame, parent = tracer._open(
                request(args) if request is not None else None, keep_all)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = tracer._close(name(args) if dynamic else name,
                                         frame, end, parent)
                if leave is not None:
                    leave(args, result, token, duration)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame, parent = self._open(None, False, record=True)
        try:
            yield frame
        finally:
            end = self.clock()
            self.stack.pop()
            # The block's duration, readable by the caller once it exits.
            frame.append(self._close(name, frame, end, parent))

    # -- aggregation across forked processes --------------------------
    _SUMMED = ("calls", "incl_ns", "self_ns", "tick_calls", "tick_ns",
               "counters")

    def snapshot(self) -> dict[str, Any]:
        state: dict[str, Any] = {key: dict(getattr(self, key))
                                 for key in self._SUMMED}
        state["series"] = {key: len(values)
                           for key, values in self.series.items()}
        state["records"] = len(self.records)
        return state

    def delta(self, base: dict[str, Any]) -> dict[str, Any]:
        """What this process aggregated since *base* (a :meth:`snapshot`),
        as plain picklable data for :meth:`merge` in another process."""
        out: dict[str, Any] = {}
        for key in self._SUMMED:
            old = base[key]
            out[key] = {name: value - old.get(name, 0)
                        for name, value in getattr(self, key).items()
                        if value != old.get(name, 0)}
        out["maxima"] = dict(self.maxima)
        out["series"] = {key: values[base["series"].get(key, 0):]
                         for key, values in self.series.items()}
        out["records"] = self.records[base["records"]:]
        return out

    def merge(self, delta: dict[str, Any]) -> None:
        """Fold a forked child's :meth:`delta` into this process.

        The child's ``perf.covered_ns`` counter (how long its traced work
        took) is charged to the currently open span as child time, so that
        span's self time keeps only what the child's spans do not explain.
        """
        for key in self._SUMMED:
            mine = getattr(self, key)
            for name, value in delta[key].items():
                mine[name] = mine.get(name, 0) + value
        for name, value in delta["maxima"].items():
            self.peak(name, value)
        for name, values in delta["series"].items():
            self.series.setdefault(name, []).extend(values)
        self.records.extend(delta["records"])
        if self.stack:
            self.stack[-1][1] += delta["counters"].get("perf.covered_ns", 0)

    # -- output ------------------------------------------------------
    def layer_self_ns(self) -> dict[str, int]:
        layers: dict[str, int] = {}
        for name, value in self.self_ns.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + value
        return layers

    def write_records(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span_id, parent, name, start, end, rid in self.records:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end, "request": rid},
                    separators=(",", ":")) + "\n")
