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
from .ops import (READDIR, MetaReply, MetaRequest, OpKind, next_req_id,
                  split_request)

if TYPE_CHECKING:  # pragma: no cover
    from ..mds.server import MdsServer

#: A workload hands each client an iterator of these.
WorkloadOp = tuple[OpKind, str]
#: Called as ``tap(client, reply)`` for every reply a client receives,
#: before the client learns from it (see ``metrics.tracing.record_run``).
ReplyTap = Callable[["Client", MetaReply], None]


class ReplySlot:
    """Where the reply to one request lands.

    An MDS replies through ``done.succeed(reply)`` after checking
    ``done.done`` (the protocol a :class:`~repro.sim.engine.Completion`
    also has); a slot hands the reply straight to its client, so an op
    costs no completion, callback or process resume.  A slot takes one
    reply: a second ``succeed`` raises.
    """

    __slots__ = ("client", "request", "done")

    def __init__(self, client: "Client", request: MetaRequest) -> None:
        self.client = client
        self.request = request
        self.done = False

    def succeed(self, reply: MetaReply) -> None:
        """Account the reply at its delivery instant, learn from it, then
        send the client's next op (after its think time, if any)."""
        if self.done:
            raise RuntimeError(
                f"request {self.request.req_id} already got its reply")
        self.done = True
        client = self.client
        req = self.request
        client.metrics.latencies.record(client.client_id,
                                        client.engine.now - req.issued_at)
        client.ops_completed += 1
        if reply.error is not None:
            client.errors += 1
        if client.reply_tap is not None:
            client.reply_tap(client, reply)
        # Learn the serving rank and the directory's fragtree.
        client.mds_map[req.dir_path] = reply.served_by
        if reply.dir_path is not None and reply.frag_map is not None:
            client.frag_maps[reply.dir_path] = reply.frag_map
        if client.think_time > 0:
            client.engine.schedule(float(client.think_time), client._next_op)
        else:
            client._next_op()


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
        self.done = engine.completion()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self.engine.schedule(self.start_delay, self._launch)

    def _launch(self) -> None:
        self.started_at = self.engine.now
        self._workers_left = self.pipeline
        # One zero-delay start event per pipeline worker; each worker then
        # issues its next op from the reply to its previous one.
        for _worker in range(self.pipeline):
            self.engine.schedule(0.0, self._next_op)

    def _finish(self) -> None:
        self.finished_at = self.engine.now
        self.metrics.client_finish_times[self.client_id] = self.engine.now
        self.metrics.client_op_counts[self.client_id] = self.ops_completed
        if not self.done.done:
            self.done.succeed(self.client_id)

    # -- request issue ------------------------------------------------------
    def _next_op(self) -> None:
        """One pipeline worker's next step: send its next op, or retire.

        The path is split once here; the request carries the split to the
        MDS and back to its :class:`ReplySlot`, which takes the
        :class:`MetaReply` and calls this again.
        """
        try:
            op = next(self.ops)
        except StopIteration:
            self._workers_left -= 1
            if self._workers_left == 0:
                self._finish()
            return
        kind, path = op[0], op[1]
        dir_path, leaf = split_request(kind, path)
        # Positional: (kind, path, client_id, req_id, hops, issued_at,
        # payload, dir_path, leaf, resolution).
        req = MetaRequest(kind, path, self.client_id, next_req_id(), [],
                          self.engine.now,
                          {"dst": op[2]} if len(op) > 2
                          and op[2] is not None else {},
                          dir_path, leaf, None)
        slot = ReplySlot(self, req)
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
                self.mdss[rank].receive_request, req, slot,
            )
        else:
            self.network.deliver(self.mdss[rank].receive_request, req, slot)

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
        if kind is not READDIR:
            frag_map = self.frag_maps.get(dir_path)
            if frag_map:
                bits = frag_map[0][0]
                if not bits:
                    # One unsplit frag (0 bits) holds every name.
                    return frag_map[0][2]
                hashed = name_hash(leaf)
                # The frags partition the hash space, so exactly one holds
                # the name.  After a uniform split the map lists them by
                # value: try that slot before scanning.
                value = hashed & ((1 << bits) - 1)
                if value < len(frag_map):
                    entry = frag_map[value]
                    if entry[0] == bits and entry[1] == value:
                        return entry[2]
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
