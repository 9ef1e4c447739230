"""Simulated CephFS clients.

Clients are closed-loop with a small pipeline of outstanding requests
(Ceph clients issue asynchronous dirops).  Each client keeps its own
mapping of directories to MDS ranks, learned lazily from replies -- so
after a migration the first requests land on the wrong rank and get
forwarded, exactly the staleness the paper describes for client-side
subtree maps (§2, "the client builds up its own mapping of subtrees to MDS
nodes").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Optional

from ..metrics.collectors import ClusterMetrics
from ..namespace.dirfrag import name_hash
from ..namespace.tree import split_path
from ..sim.engine import SimEngine
from ..sim.network import Network
from .ops import MetaReply, MetaRequest, OpKind, split_request

if TYPE_CHECKING:  # pragma: no cover
    from ..mds.server import MdsServer

#: A workload hands each client an iterator of these.
WorkloadOp = tuple[OpKind, str]
#: Called as ``tap(client, reply)`` for every reply a client receives,
#: before the client learns from it (see ``metrics.tracing.record_run``).
ReplyTap = Callable[["Client", MetaReply], None]


class Client:
    """One client mount: an op stream, a subtree map, pipeline workers."""

    def __init__(self, engine: SimEngine, client_id: int,
                 network: Network, mdss: list["MdsServer"],
                 metrics: ClusterMetrics,
                 ops: Iterator[WorkloadOp],
                 pipeline: int = 2,
                 think_time: float = 0.0,
                 start_delay: float = 0.0,
                 cap_switch_time: float = 0.0,
                 reply_tap: Optional[ReplyTap] = None) -> None:
        self.engine = engine
        self.client_id = client_id
        self.network = network
        self.mdss = mdss
        self.metrics = metrics
        self.ops = iter(ops)
        self.pipeline = max(1, pipeline)
        self.think_time = think_time
        self.start_delay = start_delay
        #: directory path -> believed MDS rank (subtree map).
        self.mds_map: dict[str, int] = {}
        self.cap_switch_time = cap_switch_time
        self.reply_tap = reply_tap
        self._last_rank: int | None = None
        self.cap_switches = 0
        #: directory path -> fragtree, ((bits, value, rank), ...).  Real
        #: CephFS replies carry the fragtree so clients route directly to
        #: the rank holding the right dirfrag; this goes stale after a
        #: migration until the next reply refreshes it.
        self.frag_maps: dict[str, tuple[tuple[int, int, int], ...]] = {}
        self.ops_completed = 0
        self.errors = 0
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._workers_left = 0
        self._exhausted = False
        self.done = engine.completion()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self.engine.schedule(self.start_delay, self._launch)

    def _launch(self) -> None:
        self.started_at = self.engine.now
        self._workers_left = self.pipeline
        for worker in range(self.pipeline):
            self.engine.process(
                self._worker(), name=f"client{self.client_id}.w{worker}"
            )

    def _worker(self):
        while True:
            try:
                op = next(self.ops)
            except StopIteration:
                break
            kind, path = op[0], op[1]
            dst = op[2] if len(op) > 2 else None
            req, completion = self._issue(kind, path, dst=dst)
            reply = yield completion
            # Same simulated instant as the reply delivery (the worker
            # resumes via a zero-delay event), so the measured latency is
            # unchanged by recording it here instead of in a callback.
            self.metrics.latencies.record(self.client_id,
                                          self.engine.now - req.issued_at)
            self.ops_completed += 1
            if reply.error is not None:
                self.errors += 1
            if self.reply_tap is not None:
                self.reply_tap(self, reply)
            self._learn(req, reply)
            if self.think_time > 0:
                yield self.think_time
        self._workers_left -= 1
        if self._workers_left == 0:
            self._finish()

    def _finish(self) -> None:
        self.finished_at = self.engine.now
        self.metrics.client_finish_times[self.client_id] = self.engine.now
        self.metrics.client_op_counts[self.client_id] = self.ops_completed
        if not self.done.done:
            self.done.succeed(self.client_id)

    # -- request issue ------------------------------------------------------
    def _issue(self, kind: OpKind, path: str, dst: str | None = None):
        """Send one request; returns ``(request, completion)``.

        The path is split once here; the request carries the split to the
        MDS and back to :meth:`_learn`.  The completion fires with the
        :class:`MetaReply`; the worker that yields on it records the
        latency itself, so no wrapper completion or callback is allocated
        per op.
        """
        dir_path, leaf = split_request(kind, path)
        req = MetaRequest(kind=kind, path=path, client_id=self.client_id,
                          issued_at=self.engine.now, dir_path=dir_path,
                          leaf=leaf)
        if dst is not None:
            req.payload["dst"] = dst
        completion = self.engine.completion()
        rank = self._guess(kind, dir_path, leaf)
        # _cap_switch_delay's common case (feature off / same rank) inlined;
        # the method re-does the _last_rank swap, so undo it before calling.
        previous = self._last_rank
        self._last_rank = rank
        if (self.cap_switch_time <= 0 or previous is None
                or previous == rank):
            delay = 0.0
        else:
            self._last_rank = previous
            delay = self._cap_switch_delay(path, kind, rank)
        if delay > 0:
            self.engine.schedule(
                delay, self.network.deliver,
                self.mdss[rank].receive_request, req, completion,
            )
        else:
            self.network.deliver(self.mdss[rank].receive_request, req,
                                 completion)
        return req, completion

    def _cap_switch_delay(self, path: str, kind: OpKind, rank: int) -> float:
        """Cap revalidation when consecutive requests alternate ranks.

        Exclusive capabilities on *unshared* directories must be handed
        over when the client's traffic jumps to another rank; shared
        (dirfrag-spread) directories already run with degraded caps, so
        crossing costs nothing there.
        """
        previous, self._last_rank = self._last_rank, rank
        if (self.cap_switch_time <= 0 or previous is None
                or previous == rank):
            return 0.0
        frag_map = self.frag_maps.get(split_request(kind, path)[0])
        if frag_map and len({r for _b, _v, r in frag_map}) > 1:
            return 0.0  # shared directory: caps already degraded
        self.cap_switches += 1
        return self.cap_switch_time

    # -- the client-side subtree map ----------------------------------------
    def _guess(self, kind: OpKind, dir_path: str, leaf: str) -> int:
        """Route via the cached fragtree if known, else the most specific
        subtree mapping along the path, else rank 0.

        *dir_path* and *leaf* are ``split_request(kind, path)``.
        """
        if kind is not OpKind.READDIR:
            frag_map = self.frag_maps.get(dir_path)
            if frag_map:
                if not frag_map[0][0]:
                    # One unsplit frag (0 bits) holds every name.
                    return frag_map[0][2]
                hashed = name_hash(leaf)
                for bits, value, rank in frag_map:
                    if (hashed & ((1 << bits) - 1)) == value:
                        return rank
        # Walk the normalized prefixes, most specific first.  Only a
        # READDIR of an unnormalized path (``//a//b/``) needs normalizing.
        prefix = dir_path
        if prefix != "/" and (prefix[:1] != "/" or prefix[-1:] == "/"
                              or "//" in prefix):
            prefix = "/" + "/".join(split_path(prefix))
        mds_map = self.mds_map
        while True:
            rank = mds_map.get(prefix)
            if rank is not None:
                return rank
            if prefix == "/":
                return 0
            prefix = prefix[:prefix.rindex("/")] or "/"

    def _learn(self, req: MetaRequest, reply: MetaReply) -> None:
        self.mds_map[req.dir_path] = reply.served_by
        if reply.dir_path is not None and reply.frag_map is not None:
            self.frag_maps[reply.dir_path] = reply.frag_map


def build_clients(engine: SimEngine, network: Network,
                  mdss: list["MdsServer"], metrics: ClusterMetrics,
                  op_streams: dict[int, Iterator[WorkloadOp]],
                  pipeline: int = 2, think_time: float = 0.0,
                  stagger: float = 0.0,
                  cap_switch_time: float = 0.0,
                  reply_tap: Optional[ReplyTap] = None) -> list[Client]:
    """Create one client per op stream, optionally staggering their starts."""
    clients = []
    for index, (client_id, ops) in enumerate(sorted(op_streams.items())):
        clients.append(
            Client(engine, client_id, network, mdss, metrics, ops,
                   pipeline=pipeline, think_time=think_time,
                   start_delay=stagger * index,
                   cap_switch_time=cap_switch_time,
                   reply_tap=reply_tap)
        )
    return clients
