"""The metadata server (MDS) rank.

Implements the mechanism side of dynamic subtree partitioning (paper Fig 2):
request service with a FIFO CPU, path-traversal hits vs. forwards, inode
caching with RADOS fetches on miss, journalling, directory fragmentation,
client sessions, heartbeats, and the migration two-phase commit.  All
*policy* lives in the attached balancer (:mod:`repro.core`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..clients.ops import (COUNTER_KIND, IS_WRITE, MetaReply, MetaRequest,
                           OpKind, split_request)
from ..config import ClusterConfig
from ..metrics.collectors import ClusterMetrics, MdsMetrics
from ..namespace.counters import LoadCounters
from ..namespace.directory import Directory
from ..namespace.dirfrag import _AUTH_EPOCH, DirFrag
from ..namespace.tree import Namespace
from ..rados.cluster import RadosCluster
from ..rados.journal import MdsJournal
from ..sim.engine import Completion, SimEngine
from ..sim.network import Network
from ..sim.rng import ServiceTime
from ..sim.stations import FifoStation
from .cache import InodeCache
from .heartbeat import HeartBeat, HeartbeatTable
from .migration import Migrator
from .sessions import SessionTable

if TYPE_CHECKING:  # pragma: no cover
    from ..core.balancer import MantleBalancer
    from ..faults.injector import FaultState

#: A frozen dirfrag makes requests retry after this long.
FREEZE_RETRY_DELAY = 0.002
#: Give up forwarding after this many hops (authority changed under us).
MAX_HOPS = 16


class MdsServer:
    """One MDS rank."""

    def __init__(self, engine: SimEngine, rank: int,
                 namespace: Namespace, network: Network,
                 rados: RadosCluster, config: ClusterConfig,
                 rng, metrics: ClusterMetrics) -> None:
        self.engine = engine
        self.rank = rank
        self.namespace = namespace
        self.network = network
        self.rados = rados
        self.config = config
        self.rng = rng
        self.cluster_metrics = metrics
        self.metrics: MdsMetrics = metrics.mds(rank)
        self.station = FifoStation(engine, f"mds{rank}", rng,
                                   executor=self._execute)
        self.journal = MdsJournal(engine, rados, rank,
                                  segment_bytes=config.journal_segment_bytes,
                                  entry_bytes=config.journal_entry_bytes)
        self.cache = InodeCache(config.cache_capacity)
        self.sessions = SessionTable(rank)
        self.migrator = Migrator(self)
        self.hb_table = HeartbeatTable()
        self.peers: list["MdsServer"] = []  # set by the cluster assembly
        self.balancer: Optional["MantleBalancer"] = None
        #: Policy-lifecycle hook (e.g. a CanaryController) driven from this
        #: rank's heartbeat ticks; may swap ``self.balancer``.
        self.lifecycle = None
        #: Decayed load this rank served as the authority ("auth") and
        #: touched at all, including forwards ("all") -- Table 2 metrics.
        self.auth_load = LoadCounters(half_life=config.decay_half_life)
        self.all_load = LoadCounters(half_life=config.decay_half_life)
        self._service = {
            kind: ServiceTime(config.service.mean_for(kind.value),
                              config.service.cv)
            for kind in OpKind
        }
        self._forward_service = ServiceTime(config.service.forward,
                                            config.service.cv)
        self._hb_epoch = 0
        self._stores_pending: dict[int, int] = {}
        # Fault state.
        #: False while this rank is down (crashed, not yet restarted).
        self.alive = True
        #: Service-time multiplier; >1.0 models a degraded ("limping") CPU.
        self.cpu_factor = 1.0
        #: Shared per-cluster fault state (set when faults are armed).
        self.fault_state: Optional["FaultState"] = None
        self.crashed_at: Optional[float] = None
        self.recovered_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def receive_request(self, req: MetaRequest, done: Completion,
                        count_hop: bool = True) -> None:
        """Entry point for a request arriving over the network."""
        if not self.alive:
            # The client (or a forwarding peer) sent to a dead rank: bounce
            # and retry once authority has been re-resolved.
            self._retry_dead(req, done)
            return
        if count_hop:
            req.hops.append(self.rank)
        self.metrics.reqs_in_window += 1
        service = self._sample_service(req) * self.cpu_factor
        self.station.submit((req, done), service, want_completion=False)

    def _retry_dead(self, req: MetaRequest, done: Completion) -> None:
        """Park a request that hit a dead rank; redeliver after a delay.

        Redelivery re-resolves authority from the namespace, so once a
        standby has taken over the subtree the request lands there; while
        the rank stays dead the request keeps waiting (clients simply see
        high latency during the outage, as they would against real CephFS).
        """
        self.metrics.dead_letters += 1

        def redeliver() -> None:
            if done.done:
                return
            try:
                auth = self.namespace.authority_for_path(req.path)
            except (FileNotFoundError, NotADirectoryError):
                auth = self.rank
            target = self.peers[auth] if self.peers else self
            if not target.alive:
                self.engine.schedule(self.config.dead_rank_retry_delay,
                                     redeliver)
                return
            # Bounces do not count as forward hops (MAX_HOPS is for
            # authority ping-pong, not for waiting out an outage).
            target.receive_request(req, done, count_hop=False)

        self.engine.schedule(self.config.dead_rank_retry_delay, redeliver)

    def _sample_service(self, req: MetaRequest) -> float:
        """CPU time this request will take at this rank.

        Forwarded requests only cost the recognition/forward slice; local
        requests cost the op's service time, inflated by the coherency
        surcharge when the target directory is spread over several ranks.
        """
        _tree, _auth, parent, _leaf, frag = self._resolve(req)
        if parent is None or frag.authority() != self.rank:
            return self._forward_service.sample(self.rng)
        base = self._service[req.kind].sample(self.rng)
        if req.kind is OpKind.READDIR:
            # Service scales gently with directory size.
            entries = parent.entry_count()
            base *= 1.0 + min(8.0, entries / 20_000.0)
        spread = parent.effective_spread()
        if spread > 1.0 and IS_WRITE[req.kind]:
            base *= 1.0 + self.config.sync_penalty * (spread - 1.0) ** 0.5
        return base

    def _resolve(self, req: MetaRequest) -> tuple:
        """The request's resolution, ``(tree epoch, auth epoch, parent
        directory, leaf name, dirfrag)``.

        The leaf is None for a READDIR or the root, and the frag then is
        the directory's first; parent, leaf and frag are all None when the
        path does not resolve.  The resolution is memoized on the request
        and reused -- at arrival, at execution, on forwarded hops -- while
        both epochs hold: the namespace's tree epoch moves whenever a
        directory is made, removed or renamed, and the global auth epoch
        whenever any authority or frag layout changes (``fragment()``
        re-auths the children it makes).  ``frozen`` is not part of it and
        is always read live.
        """
        namespace = self.namespace
        memo = req.resolution
        if (memo is not None and memo[0] == namespace.tree_epoch
                and memo[1] == _AUTH_EPOCH[0]):
            return memo
        dir_path = req.dir_path
        if dir_path is None:
            # Built without the client-side split (tests, tools).
            dir_path, req.leaf = split_request(req.kind, req.path)
            req.dir_path = dir_path
        try:
            parent = namespace.resolve_dir(dir_path)
        except (FileNotFoundError, NotADirectoryError):
            memo = (namespace.tree_epoch, _AUTH_EPOCH[0], None, None, None)
        else:
            leaf = req.leaf
            if leaf:
                frag = parent.frag_for_name(leaf)
            else:
                leaf, frag = None, next(iter(parent.frags.values()))
            memo = (namespace.tree_epoch, _AUTH_EPOCH[0], parent, leaf, frag)
        req.resolution = memo
        return memo

    def _execute(self, task) -> None:
        req, done = task
        if not isinstance(req, MetaRequest):
            # Internal work (fragmentation, session flushes): the CPU time
            # was the point; there is nothing to apply.
            return
        resolution = self._resolve(req)
        frag = resolution[4]
        if frag is None:
            self._reply(req, done, error="ENOENT")
            return
        if frag.frozen:
            # Unit mid-migration: stall and retry (requests queue behind the
            # two-phase commit, which is the freeze cost clients observe).
            self.engine.schedule(
                FREEZE_RETRY_DELAY, self.receive_request, req, done, False
            )
            return
        auth = frag.authority()
        self.all_load.hit(COUNTER_KIND[req.kind], self.engine.now)
        if auth != self.rank and len(req.hops) < MAX_HOPS:
            self.metrics.forwards += 1
            self.network.deliver(self.peers[auth].receive_request, req, done)
            return
        self.metrics.traversal_hits += 1
        self._serve(req, done, resolution)

    # -- local service ---------------------------------------------------
    def _serve(self, req: MetaRequest, done: Completion,
               resolution: tuple) -> None:
        """Serve *req* locally; *resolution* is ``_resolve(req)``."""
        _tree, _auth, parent, leaf, frag = resolution
        now = self.engine.now
        rank = self.rank
        self.sessions.record_request(req.client_id, parent.path(), now)
        # Mark this rank active along the path: active ranks take part in
        # each ancestor's coherency and keep their replicas fresh.
        node = parent
        while node is not None:
            node.server_activity[rank] = now
            node = node.parent
        needs_fetch, remote_prefixes = self._touch_cache(parent)
        delay = 0.0
        if needs_fetch and parent.authority() != self.rank:
            # The directory inode's authority is elsewhere: refresh the
            # replica from the authoritative MDS, not from RADOS.
            remote_prefixes += 1
            needs_fetch = False
        if remote_prefixes:
            # Stale/uncached ancestor inodes whose authority is elsewhere:
            # the serving MDS must traverse the prefix remotely (§2.1 --
            # "requests involving prefix path traversals").
            self.metrics.prefix_traversals += remote_prefixes
            delay += remote_prefixes * self.config.prefix_traversal_time
        if needs_fetch:
            # Authoritative directory object not in memory: fetch it from
            # RADOS, then apply.
            self.metrics.fetches += 1
            self.namespace.record_hit(parent, leaf, "FETCH", now, frag=frag)
            obj = f"dir.{parent.inode.ino}"
            fetched = self.rados.read(obj, self.config.dir_object_bytes)
            fetched.add_callback(
                lambda _c: self._apply(req, done, resolution)
            )
            return
        if delay > 0:
            self.engine.schedule(delay, self._apply, req, done, resolution)
            return
        self._apply(req, done, resolution)

    def _touch_cache(self, directory: Directory) -> tuple[bool, int]:
        """Touch the path prefix in the cache.

        Returns (parent missed -> RADOS fetch needed, number of *remote*
        ancestor inodes that missed -> cross-rank prefix traversals).
        """
        # InodeCache.touch inlined over the ancestor chain: three-plus
        # touches per op.  The hit path only reorders the LRU.
        cache = self.cache
        entries = cache._entries
        rank = self.rank
        ino = directory.inode.ino
        if ino in entries:
            entries.move_to_end(ino)
            cache.hits += 1
            missed = False
        else:
            cache.misses += 1
            cache.insert(ino)
            missed = True
        remote_misses = 0
        node = directory.parent
        while node is not None:
            ino = node.inode.ino
            if ino in entries:
                entries.move_to_end(ino)
                cache.hits += 1
            else:
                cache.misses += 1
                cache.insert(ino)
                if node.authority() != rank:
                    remote_misses += 1
            node = node.parent
        return missed, remote_misses

    def _maybe_invalidate_replicas(self, parent: Directory) -> None:
        """A write dirties the parent (and grandparent) fragstats; lazily
        propagated, this occasionally invalidates the inode replicas other
        ranks hold, forcing them into remote prefix traversals."""
        if len(self.peers) <= 1:
            return
        if self.rng.random() >= self.config.parent_inval_prob:
            return
        now = self.engine.now
        window = self.config.coherency_window
        node: Optional[Directory] = parent
        for _level in range(self.config.parent_inval_levels):
            if node is None:
                break
            # Ranks recently active under this directory take part in its
            # coherency protocol and keep their replica fresh (they pay
            # through the scatter-gather path instead); only passive
            # cachers go stale.
            for peer in self.peers:
                if peer.rank == self.rank:
                    continue
                if now - node.server_activity.get(peer.rank,
                                                  -float("inf")) < window:
                    continue
                peer.cache.drop(node.inode.ino)
            node = node.parent

    def _apply(self, req: MetaRequest, done: Completion,
               resolution: tuple) -> None:
        tree_epoch, auth_epoch, parent, leaf, frag = resolution
        if auth_epoch != _AUTH_EPOCH[0]:
            # A RADOS fetch or prefix traversal came in between and the
            # frag layout may have moved: re-route the leaf on the same
            # parent.
            frag = (parent.frag_for_name(leaf) if leaf is not None
                    else next(iter(parent.frags.values())))
        # Namespace mutations take the carried route while the tree shape
        # is unchanged, and otherwise resolve the path afresh.
        route = ((parent, leaf, frag) if leaf is not None
                 and tree_epoch == self.namespace.tree_epoch else None)
        now = self.engine.now
        kind = req.kind
        result = None
        try:
            if kind is OpKind.CREATE:
                existing = (parent.lookup(leaf, frag) if leaf is not None
                            else None)
                if existing is not None and not existing.is_dir:
                    # O_CREAT on an existing file: truncate/update in place
                    # (compiles recreate .o files all the time).
                    existing.touch(now, write=True)
                    existing.size = 0
                    self.cache.touch(existing.ino)
                else:
                    inode = self.namespace.create(req.path, now=now,
                                                  route=route)
                    self.cache.insert(inode.ino)
                self.journal.log("create")
                self._maybe_store(parent, leaf, frag, now)
            elif kind is OpKind.MKDIR:
                directory = self.namespace.mkdir(req.path, now=now,
                                                 route=route)
                self.cache.insert(directory.inode.ino)
                self.journal.log("mkdir")
            elif kind is OpKind.UNLINK:
                self.namespace.unlink(req.path, now=now, route=route)
                self.journal.log("unlink")
            elif kind is OpKind.RENAME:
                dst = req.payload.get("dst")
                if not dst:
                    self._reply(req, done, error="EINVAL")
                    return
                dst_auth = self.namespace.authority_for_path(dst)
                self.namespace.rename(req.path, dst, now=now)
                self.journal.log("rename")
                if dst_auth != self.rank:
                    # Cross-MDS rename: §4.1 -- "client sessions ... are
                    # flushed when slave MDS nodes rename or migrate
                    # directories".
                    dst_dir = dst.rsplit("/", 1)[0] or "/"
                    flushed = self.sessions.flush_under(parent.path())
                    flushed += self.peers[dst_auth].sessions.flush_under(
                        dst_dir)
                    self.metrics.session_flushes += flushed
                    stall = flushed * self.config.session_flush_time
                    if stall > 0:
                        self.station.submit(("rename-flush", req.path),
                                            stall, want_completion=False)
            elif kind is OpKind.READDIR:
                entries = parent.readdir()
                result = len(entries)
            else:  # STAT / LOOKUP / OPEN
                inode = (parent.lookup(leaf, frag) if leaf is not None
                         else parent.inode)
                if inode is None:
                    raise FileNotFoundError(req.path)
                inode.touch(now)
                self.cache.touch(inode.ino)
                result = inode.ino
        except FileExistsError:
            self._reply(req, done, error="EEXIST")
            return
        except (FileNotFoundError, NotADirectoryError):
            self._reply(req, done, error="ENOENT")
            return
        except ValueError:
            self._reply(req, done, error="EINVAL")
            return
        counter_kind = COUNTER_KIND[kind]
        self.namespace.record_hit(parent, leaf, counter_kind, now, frag=frag)
        self.auth_load.hit(counter_kind, now)
        self.metrics.ops_served += 1
        self.cluster_metrics.timeline.record(self.rank, now)
        self._maybe_fragment(parent)
        if IS_WRITE[kind]:
            self._maybe_scatter_gather(parent)
            self._maybe_invalidate_replicas(parent)
        self._reply(req, done, result=result, parent=parent)

    def _maybe_scatter_gather(self, directory: Directory) -> None:
        """Slave writes on a spread directory occasionally trigger a full
        scatter-gather: updates on the directory halt while stats travel to
        the authoritative MDS and back (paper §4.1, footnote 3)."""
        spread = directory.effective_spread()
        if spread <= 1.0 or self.rank == directory.authority():
            return
        probability = (self.config.scatter_gather_prob
                       * ((spread - 1.0) / 3.0) ** 2)
        if self.rng.random() >= probability:
            return
        self.metrics.scatter_gathers += 1
        participants = len({frag.authority()
                            for frag in directory.frags.values()})
        # Halts grow superlinearly with the ranks involved: every extra
        # participant adds round trips and widens the halted scope.
        halt = self.config.scatter_gather_time * participants ** 1.5
        frozen = [frag for frag in directory.frags.values() if not frag.frozen]
        for frag in frozen:
            frag.frozen = True

        def unfreeze() -> None:
            for frag in frozen:
                frag.frozen = False

        self.engine.schedule(halt, unfreeze)

    def _maybe_store(self, parent: Directory, leaf: Optional[str],
                     frag: DirFrag, now: float) -> None:
        """Every Nth write to a directory commits it back to RADOS."""
        key = parent.inode.ino
        count = self._stores_pending.get(key, 0) + 1
        if count >= self.config.store_every:
            self._stores_pending[key] = 0
            self.metrics.stores += 1
            self.namespace.record_hit(parent, leaf, "STORE", now, frag=frag)
            obj = f"dir.{parent.inode.ino}"
            self.rados.write(obj, self.config.dir_object_bytes)
        else:
            self._stores_pending[key] = count

    def _maybe_fragment(self, directory: Directory) -> None:
        if directory.needs_fragmentation():
            directory.fragment(now=self.engine.now)
            self.metrics.fragmentations += 1
            # Fragmentation is real work on this CPU.
            self.station.submit(("fragment", directory.path()), 0.001,
                                want_completion=False)

    def _reply(self, req: MetaRequest, done: Completion,
               result=None, error: Optional[str] = None,
               parent: Optional[Directory] = None) -> None:
        frag_map = None
        dir_path = None
        if parent is not None:
            dir_path = parent.path()
            frag_map = parent.frag_map()
        hops = len(req.hops)
        reply = MetaReply(
            req_id=req.req_id,
            kind=req.kind,
            path=req.path,
            served_by=self.rank,
            forwards=hops - 1 if hops > 1 else 0,
            latency=self.engine.now - req.issued_at,
            result=result,
            error=error,
            dst=req.payload.get("dst"),
            dir_path=dir_path,
            frag_map=frag_map,
        )
        if not done.done:
            self.network.deliver(done.succeed, reply)

    # ------------------------------------------------------------------
    # Crash & recovery
    # ------------------------------------------------------------------
    @property
    def beacon_grace(self) -> float:
        """Effective heartbeat-eviction timeout: never evict faster than
        beats can arrive, whatever the config says."""
        return max(self.config.mds_beacon_grace,
                   1.5 * self.config.heartbeat_interval)

    def crash(self) -> None:
        """Fail this rank: lose volatile state, abandon all work in flight.

        In-flight exports abort (their 2PC resolution decides rollback vs
        roll-forward); peers abort exports targeting us; queued metadata
        requests bounce back for retry; the unflushed journal tail,
        sessions and cache are lost.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashed_at = self.engine.now
        self.recovered_at = None
        self.metrics.crashes += 1
        self.migrator.abort_all("exporter crashed")
        for peer in self.peers:
            if peer.rank != self.rank:
                peer.migrator.abort_targeting(self.rank)
        for job in self.station.drain():
            payload = job.payload
            if (isinstance(payload, tuple) and len(payload) == 2
                    and isinstance(payload[0], MetaRequest)):
                req, done = payload
                self._retry_dead(req, done)
            elif job.completion is not None and not job.completion.done:
                # Internal work (fragmentation, session flushes): anyone
                # still waiting on it was interrupted above; cancelling is
                # ignored by their stale wait tokens.
                job.completion.cancel()
        self.journal.drop_buffer()
        self.cache.clear()
        self.sessions.reset()
        self.hb_table = HeartbeatTable()

    def restart(self):
        """Bring the rank back: respawn, replay the journal, serve again.

        Returns the recovery :class:`~repro.sim.engine.Process`; its
        completion fires once the rank is serving.
        """
        if self.alive:
            raise RuntimeError(f"mds{self.rank} is not down")
        return self.engine.process(self._restart(),
                                   name=f"restart:mds{self.rank}")

    def _restart(self):
        yield self.config.restart_base_time
        # Journal replay: sequential scan of the trailing segments.
        yield from self.journal.replay_segments(
            self.config.replay_segment_window)
        self.alive = True
        self.recovered_at = self.engine.now
        self.metrics.restarts += 1
        self.cache.clear()
        self.station.resume()

    # ------------------------------------------------------------------
    # Heartbeats & balancing
    # ------------------------------------------------------------------
    def start_heartbeats(self) -> None:
        """Begin the 10-second heartbeat/balance loop (paper Fig 2)."""
        offset = self.config.heartbeat_interval * (
            1.0 + 0.003 * self.rank  # slight desynchronisation across ranks
        )
        self.engine.every(self.config.heartbeat_interval,
                          self.heartbeat_tick, start_after=offset)

    def heartbeat_tick(self) -> None:
        if not self.alive:
            return  # dead ranks do not beat (their silence IS the signal)
        now = self.engine.now
        if self.lifecycle is not None:
            # Before the metric snapshot: a balancer swap this tick must
            # already shape this tick's metaload views.
            self.lifecycle.on_heartbeat(self, now)
        self.hb_table.evict_stale(now, self.beacon_grace)
        beat = self._snapshot_metrics()
        self.hb_table.store(beat, now)
        for peer in self.peers:
            if peer.rank == self.rank:
                continue
            # Pack time + network + unpack time: the staleness of §2.2.2.
            delay = 2 * self.config.heartbeat_pack_time
            if self.fault_state is not None:
                extra = self.fault_state.heartbeat_link(self.rank, peer.rank,
                                                        now)
                if extra is None:
                    continue  # link down: the beat is dropped
                delay += extra
            self.network.deliver_after(delay, peer.receive_heartbeat, beat)
        if self.balancer is not None:
            # Rebalance after this round's heartbeats have (probably)
            # arrived: send HB -> recv HB -> rebalance (paper Fig 2).
            self.engine.schedule(self.config.rebalance_delay,
                                 self._run_balancer)

    def _run_balancer(self) -> None:
        if self.balancer is not None and self.alive:
            self.balancer.tick(self)

    def receive_heartbeat(self, beat: HeartBeat) -> None:
        if not self.alive:
            return
        self.hb_table.store(beat, self.engine.now)

    def _snapshot_metrics(self) -> HeartBeat:
        now = self.engine.now
        self._hb_epoch += 1
        metaload_fn = (self.balancer.metaload_fn if self.balancer is not None
                       else _default_metaload)
        cpu = self.station.utilization_since_mark() * 100.0
        noise = self.config.cpu_measure_noise
        if noise > 0:
            # Instantaneous measurement noise (§2.2.2, point 1).
            cpu = max(0.0, cpu * (1.0 + self.rng.normal(0.0, noise)))
        return HeartBeat(
            rank=self.rank,
            sent_at=now,
            auth_metaload=metaload_fn(self.auth_load.snapshot(now)),
            all_metaload=metaload_fn(self.all_load.snapshot(now)),
            cpu=min(100.0, cpu),
            mem=100.0 * self.cache.fill_fraction,
            queue_length=float(self.station.queue_length),
            request_rate=self.metrics.take_request_rate(
                self.config.heartbeat_interval
            ),
            epoch=self._hb_epoch,
        )


def _default_metaload(snapshot: dict) -> float:
    """Table 1 metaload: IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE."""
    return (snapshot["IRD"] + 2.0 * snapshot["IWR"] + snapshot["READDIR"]
            + 2.0 * snapshot["FETCH"] + 4.0 * snapshot["STORE"])
