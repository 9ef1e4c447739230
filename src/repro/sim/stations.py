"""Service stations: FIFO queues in front of one or more servers.

An MDS CPU, an OSD disk, and the journal device are all stations.  The
station tracks busy time and queue length so heartbeats can report CPU
utilisation and queue depth (the ``MDSs[i]["cpu"]`` and ``MDSs[i]["q"]``
metrics of paper Table 2).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable

import numpy as np

from .engine import (_COMPACT_EVERY_MASK, _COMPACT_MIN_HEAP, Completion,
                     SimEngine)
from .rng import ServiceTime


class Job:
    """One unit of work: queued, then in service until its finish event."""

    __slots__ = ("payload", "service", "completion", "enqueued_at",
                 "started_at", "seq")

    def __init__(self, payload: Any, service: float,
                 completion: Completion | None, enqueued_at: float) -> None:
        self.payload = payload
        self.service = service
        self.completion = completion
        self.enqueued_at = enqueued_at
        # ``started_at`` and ``seq`` (the finish event's sequence number,
        # its handle: ``drain`` cancels through it) are set by ``_start``.


class FifoStation:
    """An M/G/c-style FIFO service station.

    ``submit`` returns a :class:`Completion` that fires when the job's
    service finishes.  An optional ``executor`` callback runs at service
    completion (before the completion fires) -- this is where an MDS applies
    the operation to the namespace.
    """

    def __init__(self, engine: SimEngine, name: str,
                 rng: np.random.Generator,
                 servers: int = 1,
                 executor: Callable[[Any], Any] | None = None) -> None:
        if servers < 1:
            raise ValueError("need at least one server")
        self.engine = engine
        self.name = name
        self.rng = rng
        self.servers = servers
        self.executor = executor
        self._queue: deque[Job] = deque()
        self._busy_servers = 0
        self._paused = False
        #: Jobs in service, in the order they started.
        self._in_service: list[Job] = []
        # Accounting.
        self.busy_time = 0.0
        self.jobs_done = 0
        self.total_wait = 0.0
        self.total_service = 0.0
        self._last_window_mark = 0.0
        self._window_busy = 0.0

    # -- metrics ------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def in_service(self) -> int:
        return self._busy_servers

    def utilization_since_mark(self) -> float:
        """Busy fraction since the last call to this method.

        Heartbeats call this every tick, yielding the windowed, noisy-ish
        CPU metric the paper's balancers consume.
        """
        now = self.engine.now
        window = now - self._last_window_mark
        busy = self._window_busy
        # Add partial busy time of still-running jobs.
        for job in self._in_service:
            busy += now - max(job.started_at, self._last_window_mark)
        self._last_window_mark = now
        self._window_busy = 0.0
        if window <= 0:
            return 1.0 if self._busy_servers else 0.0
        return min(1.0, busy / (window * self.servers))

    def mean_wait(self) -> float:
        return self.total_wait / self.jobs_done if self.jobs_done else 0.0

    # -- control ------------------------------------------------------------
    def pause(self) -> None:
        """Stop dispatching new jobs (used while a subtree is frozen)."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._dispatch()

    def drain(self) -> list[Job]:
        """Abandon all queued and in-service jobs (a server crash).

        Busy time already accrued is accounted; the jobs' completions are
        left unfired -- the caller decides whether to requeue, redirect or
        cancel each one.  Returns the abandoned jobs, in-service first.
        """
        now = self.engine.now
        cancelled = self.engine._cancelled
        abandoned = self._in_service
        self._in_service = []
        for job in abandoned:
            cancelled.add(job.seq)
            started = job.started_at
            self.busy_time += now - started
            self._window_busy += now - max(started, self._last_window_mark)
        self._busy_servers = 0
        abandoned.extend(self._queue)
        self._queue.clear()
        return abandoned

    # -- submission ------------------------------------------------------
    def submit(self, payload: Any,
               service: float | ServiceTime | None = None,
               want_completion: bool = True) -> Completion | None:
        """Queue *payload*; the returned completion fires with the executor's
        return value once service completes.

        Callers that discard the completion (fire-and-forget work such as
        request intake and background flushes) pass ``want_completion=False``
        to skip allocating it -- one Completion per metadata op otherwise.
        """
        if type(service) is float:  # the MDS request path
            service_time = service
        elif isinstance(service, ServiceTime):
            service_time = service.sample(self.rng)
        elif service is None:
            raise ValueError("service time required")
        else:
            service_time = float(service)
        completion = Completion(self.engine) if want_completion else None
        job = Job(payload, service_time, completion, self.engine.now)
        if self._paused or self._busy_servers >= self.servers:
            self._queue.append(job)
        elif self._queue:
            # A server freed mid-event (inside an executor): the queue
            # head starts first, exactly as a dispatch would.
            self._queue.append(job)
            self._dispatch()
        else:
            self._start(job)  # idle: straight into service
        return completion

    # -- internals ---------------------------------------------------------
    def _dispatch(self) -> None:
        while (not self._paused and self._queue
               and self._busy_servers < self.servers):
            job = self._queue.popleft()
            self._start(job)

    def _start(self, job: Job) -> None:
        engine = self.engine
        now = engine.now
        self._busy_servers += 1
        job.started_at = now
        self._in_service.append(job)
        self.total_wait += now - job.enqueued_at
        # engine.schedule() inlined (service times are never negative);
        # the bookkeeping matches schedule() exactly.
        seq = job.seq = next(engine._seq)
        heappush(engine._heap, (now + job.service, seq, self._finish, (job,)))
        if not seq & _COMPACT_EVERY_MASK \
                and len(engine._heap) >= _COMPACT_MIN_HEAP:
            engine._maybe_compact()

    def _finish(self, job: Job) -> None:
        self._in_service.remove(job)
        now = self.engine.now
        started = job.started_at
        span = now - started
        self.busy_time += span
        mark = self._last_window_mark
        # max(started, mark), inlined.
        self._window_busy += now - (mark if mark > started else started)
        self.total_service += span
        self.jobs_done += 1
        self._busy_servers -= 1
        result: Any = None
        if self.executor is not None:
            result = self.executor(job.payload)
        completion = job.completion
        if completion is not None and not completion._done:
            completion.succeed(result)
        if self._queue and not self._paused \
                and self._busy_servers < self.servers:
            self._dispatch()
