"""Request-carried resolution: an MDS resolves a request's (parent, leaf,
dirfrag) once and reuses it while the namespace's tree epoch and the
global auth epoch hold.  These tests check every reuse against a
resolution made from scratch, and that a resolution captured before a
change to the tree or to authority is never reused."""

from dataclasses import dataclass

import pytest

from repro.clients.ops import MetaRequest, OpKind, split_request
from repro.cluster import SimulatedCluster, run_experiment
from repro.core.policies import greedy_spill_policy
from repro.faults import CrashMds, FaultSchedule
from repro.mds.server import MdsServer
from repro.namespace.dirfrag import _AUTH_EPOCH, name_hash
from repro.namespace.tree import split_path
from repro.workloads import CreateWorkload, TraceWorkload
from tests.conftest import make_config


def reference_route(namespace, req):
    """(parent, leaf, frag) for *req*, walked from the root with no cache:
    the directory tree by name, the frag by scanning for the hash."""
    dir_path, leaf = split_request(req.kind, req.path)
    node = namespace.root
    for part in split_path(dir_path):
        node = node.subdirs.get(part)
        if node is None:
            return None, None, None
    if not leaf:
        return node, None, next(iter(node.frags.values()))
    hashed = name_hash(leaf)
    frag = next(frag for frag in node.frags.values()
                if frag.frag_id.contains(hashed))
    return node, leaf, frag


def assert_same_route(resolution, fresh):
    parent, leaf, frag = resolution[2:]
    assert parent is fresh[0]
    assert leaf == fresh[1]
    assert frag is fresh[2]


@dataclass
class RouteStats:
    reused: int = 0
    applied: int = 0
    frozen: int = 0


@pytest.fixture
def checked_routes(monkeypatch):
    """Check every reused resolution against ``reference_route``."""
    stats = RouteStats()
    resolve = MdsServer._resolve
    apply = MdsServer._apply

    def checked_resolve(self, req):
        memo = req.resolution
        resolution = resolve(self, req)
        if resolution is memo:
            stats.reused += 1
            assert_same_route(resolution,
                              reference_route(self.namespace, req))
        if resolution[4] is not None and resolution[4].frozen:
            stats.frozen += 1
        return resolution

    def checked_apply(self, req, done, resolution):
        if (resolution[0] == self.namespace.tree_epoch
                and resolution[1] == _AUTH_EPOCH[0]):
            stats.applied += 1
            assert_same_route(resolution,
                              reference_route(self.namespace, req))
        return apply(self, req, done, resolution)

    monkeypatch.setattr(MdsServer, "_resolve", checked_resolve)
    monkeypatch.setattr(MdsServer, "_apply", checked_apply)
    return stats


class TestReusedRouteMatchesFresh:
    def test_fragmenting_dir_under_greedy_spill(self, checked_routes):
        config = make_config(num_mds=4, dir_split_size=200,
                             heartbeat_interval=0.2, rebalance_delay=0.02,
                             scatter_gather_prob=1.0)
        report = run_experiment(
            config, CreateWorkload(num_clients=4, files_per_client=600,
                                   shared_dir=True),
            policy=greedy_spill_policy())
        metrics = report.metrics
        assert sum(m.fragmentations for m in metrics.per_mds.values()) > 0
        assert metrics.total_migrations > 0
        assert checked_routes.reused > 1000
        assert checked_routes.applied > 1000
        # Scatter-gather halts and migrations freeze frags under requests.
        assert checked_routes.frozen > 0

    def test_renames_across_directories(self, checked_routes):
        # Files move /a -> /b while the worker stats them; the worker's
        # directory moves to /b and back under its creates.
        mover = [(OpKind.MKDIR, "/a/sub")]
        for i in range(40):
            mover.append((OpKind.CREATE, f"/a/f{i}"))
            mover.append((OpKind.RENAME, f"/a/f{i}", f"/b/f{i}"))
            if i == 10:
                mover.append((OpKind.RENAME, "/a/sub", "/b/sub"))
            if i == 20:
                mover.append((OpKind.RENAME, "/b/sub", "/a/sub"))
        worker = []
        for i in range(60):
            worker.append((OpKind.CREATE, f"/a/sub/g{i}"))
            worker.append((OpKind.STAT, f"/b/f{i % 40}"))
            worker.append((OpKind.READDIR, "/a/sub"))
        report = run_experiment(
            make_config(num_mds=2, dir_split_size=16),
            TraceWorkload({0: mover, 1: worker}))
        assert (sum(report.metrics.client_op_counts.values())
                == len(mover) + len(worker))
        assert sum(m.fragmentations
                   for m in report.metrics.per_mds.values()) > 0
        assert checked_routes.reused > 0
        assert checked_routes.applied > 0

    def test_crash_and_restart(self, checked_routes):
        schedule = FaultSchedule([CrashMds(at=0.5, rank=0,
                                           restart_after=0.5)])
        report = run_experiment(
            make_config(num_mds=2, dir_split_size=200),
            CreateWorkload(num_clients=2, files_per_client=1500,
                           shared_dir=True),
            fault_schedule=schedule)
        assert report.metrics.mds(0).crashes == 1
        assert report.metrics.mds(0).restarts == 1
        assert report.total_ops == 2 * 1500
        # Requests bounced off the dead rank and were redelivered.
        assert report.metrics.mds(0).dead_letters > 0
        assert checked_routes.reused > 0


class TestStaleRouteNotReused:
    def build(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        namespace = cluster.namespace
        namespace.mkdirs("/d")
        for i in range(16):
            namespace.create(f"/d/f{i}")
        return cluster, namespace, cluster.mdss[0]

    def request(self, kind, path):
        return MetaRequest(kind=kind, path=path, client_id=0)

    def test_reused_while_nothing_changes(self):
        cluster, namespace, mds = self.build()
        req = self.request(OpKind.STAT, "/d/f3")
        first = mds._resolve(req)
        assert mds._resolve(req) is first
        namespace.create("/d/another")  # entries do not move routes
        assert mds._resolve(req) is first

    def test_fragment(self):
        cluster, namespace, mds = self.build()
        d = namespace.resolve_dir("/d")
        req = self.request(OpKind.STAT, "/d/f3")
        first = mds._resolve(req)
        d.fragment(extra_bits=1)
        second = mds._resolve(req)
        assert second is not first
        assert first[4] not in d.frags.values()
        assert second[4] is d.frag_for_name("f3")

    def test_set_auth(self):
        cluster, namespace, mds = self.build()
        d = namespace.resolve_dir("/d")
        req = self.request(OpKind.CREATE, "/d/new")
        first = mds._resolve(req)
        first[4].set_auth(1)
        assert mds._resolve(req) is not first
        second = mds._resolve(req)
        d.set_auth(1)
        assert mds._resolve(req) is not second

    def test_mkdir(self):
        cluster, namespace, mds = self.build()
        req = self.request(OpKind.CREATE, "/later/f")
        assert mds._resolve(req)[2] is None
        later = namespace.mkdir("/later")
        assert mds._resolve(req)[2] is later

    def test_directory_rename(self):
        cluster, namespace, mds = self.build()
        moved = self.request(OpKind.STAT, "/d/f3")
        target = self.request(OpKind.STAT, "/e/f3")
        d = mds._resolve(moved)[2]
        assert mds._resolve(target)[2] is None
        namespace.rename("/d", "/e")
        assert mds._resolve(moved)[2] is None
        assert mds._resolve(target)[2] is d

    def test_directory_unlink(self):
        cluster, namespace, mds = self.build()
        namespace.mkdir("/gone")
        req = self.request(OpKind.READDIR, "/gone")
        assert mds._resolve(req)[2] is not None
        namespace.unlink("/gone")
        assert mds._resolve(req)[2] is None


class TestApplyRechecksEpochs:
    """``_apply`` may run after a RADOS fetch or a traversal delay; what
    changed meanwhile must not be applied through the stale route."""

    def apply(self, cluster, req, resolution):
        done = cluster.engine.completion()
        cluster.mdss[0]._apply(req, done, resolution)
        return cluster.engine.run_until_complete(done)

    def test_fragment_between_resolve_and_apply(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        namespace = cluster.namespace
        d = namespace.mkdirs("/d")
        req = MetaRequest(kind=OpKind.CREATE, path="/d/late", client_id=0)
        resolution = cluster.mdss[0]._resolve(req)
        d.fragment(extra_bits=2)
        reply = self.apply(cluster, req, resolution)
        assert reply.ok
        assert d.frag_for_name("late").get("late") is not None
        assert namespace.exists("/d/late")

    def test_rename_between_resolve_and_apply(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        namespace = cluster.namespace
        namespace.mkdirs("/a")
        req = MetaRequest(kind=OpKind.CREATE, path="/a/late", client_id=0)
        resolution = cluster.mdss[0]._resolve(req)
        namespace.rename("/a", "/b")
        reply = self.apply(cluster, req, resolution)
        # The path is resolved afresh: /a no longer exists.
        assert reply.error == "ENOENT"
        assert not namespace.exists("/b/late")
