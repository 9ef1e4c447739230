"""Op-level trace recording and replay.

Attach a :class:`TraceRecorder` to a cluster to capture every client
operation (issue time, kind, path, latency, serving rank).  Recorded
traces can be saved/loaded as JSON-lines and converted into a
:class:`~repro.workloads.patterns.TraceWorkload`, enabling the
record-once / replay-against-many-balancers methodology the paper uses
to compare strategies "on the same storage system".
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..clients.ops import OpKind

if TYPE_CHECKING:  # pragma: no cover
    from ..clients.client import Client
    from ..clients.ops import MetaReply
    from ..cluster import SimulatedCluster
    from ..workloads.patterns import TraceWorkload


@dataclass(frozen=True)
class TraceEvent:
    """One completed client operation."""

    time: float
    client_id: int
    kind: str
    path: str
    latency: float
    served_by: int
    forwards: int
    ok: bool
    dst: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        return cls(**json.loads(line))


class TraceRecorder:
    """Collects :class:`TraceEvent` records (see :func:`record_run`)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    # -- recording ------------------------------------------------------
    def tap(self, client: "Client", reply: "MetaReply") -> None:
        """A cluster ``reply_tap``: record *reply* as *client* receives it."""
        self.record_reply(
            now=client.engine.now,
            client_id=client.client_id,
            kind=reply.kind,
            path=reply.path,
            latency=reply.latency,
            served_by=reply.served_by,
            forwards=reply.forwards,
            ok=reply.ok,
            dst=reply.dst,
        )

    def record_reply(self, now: float, client_id: int, kind: OpKind,
                     path: str, latency: float, served_by: int,
                     forwards: int, ok: bool,
                     dst: str | None = None) -> None:
        self.events.append(TraceEvent(
            time=round(now, 6), client_id=client_id, kind=kind.value,
            path=path, latency=round(latency, 6), served_by=served_by,
            forwards=forwards, ok=ok, dst=dst,
        ))

    # -- persistence ------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        path = Path(path)
        with path.open("w") as handle:
            for event in self.events:
                handle.write(event.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "TraceRecorder":
        recorder = cls()
        with Path(path).open() as handle:
            for line in handle:
                line = line.strip()
                if line:
                    recorder.events.append(TraceEvent.from_json(line))
        return recorder

    # -- analysis / replay --------------------------------------------------
    def per_client(self) -> dict[int, list[TraceEvent]]:
        out: dict[int, list[TraceEvent]] = {}
        for event in self.events:
            out.setdefault(event.client_id, []).append(event)
        return out

    def to_workload(self) -> "TraceWorkload":
        """Convert into a replayable workload (ops in recorded order)."""
        from ..workloads.patterns import TraceWorkload

        per_client = self.per_client()
        if not per_client:
            raise ValueError("empty trace")
        remapped = {
            new_id: [
                ((OpKind(e.kind), e.path, e.dst) if e.dst
                 else (OpKind(e.kind), e.path))
                for e in events
            ]
            for new_id, (_old, events) in enumerate(
                sorted(per_client.items())
            )
        }
        return TraceWorkload(remapped)

    def summary(self) -> dict[str, float]:
        if not self.events:
            return {"events": 0}
        latencies = [event.latency for event in self.events]
        return {
            "events": len(self.events),
            "clients": len(self.per_client()),
            "mean_latency": sum(latencies) / len(latencies),
            "forwarded": sum(1 for e in self.events if e.forwards),
            "errors": sum(1 for e in self.events if not e.ok),
        }


def record_run(cluster: "SimulatedCluster", workload,
               **kwargs) -> tuple["TraceRecorder", object]:
    """Run *workload* on *cluster* while recording every op.

    Records through the cluster's own ``reply_tap``, so only this
    cluster's clients are recorded.  Returns (recorder, SimReport).
    """
    recorder = TraceRecorder()
    cluster.reply_tap = recorder.tap
    try:
        report = cluster.run_workload(workload, **kwargs)
    finally:
        cluster.reply_tap = None
    return recorder, report
