"""Op kinds, request/reply types and the client-side path split."""

import pytest

from repro.clients.client import Client
from repro.clients.ops import MetaReply, MetaRequest, OpKind, split_request
from repro.cluster import SimulatedCluster
from repro.namespace.dirfrag import name_hash
from repro.namespace.tree import split_path
from tests.conftest import make_config

#: Paths whose split must not change; normal and unnormalized forms.
PATHS = ["/", "", "/x", "x", "/a/b/c", "//a//b/", "a/b", "/a/", "///"]


def old_dirname_of(path):
    """The per-path directory helper requests used to be routed by."""
    parts = split_path(path)
    return "/" + "/".join(parts[:-1]) if len(parts) > 1 else "/"


def old_parent_and_leaf(path):
    """The MDS-side split requests used to be resolved by."""
    parts = split_path(path)
    if not parts:
        return None
    return "/".join(parts[:-1]), parts[-1]


def old_guess(client, path, kind):
    """``Client._guess`` as it was before requests carried their split."""
    if kind is OpKind.READDIR:
        directory = path.rstrip("/") or "/"
    else:
        directory = old_dirname_of(path)
    if kind is not OpKind.READDIR:
        frag_map = client.frag_maps.get(directory)
        if frag_map:
            parts = split_path(path)
            hashed = name_hash(parts[-1] if parts else "")
            for bits, value, rank in frag_map:
                if (hashed & ((1 << bits) - 1)) == value:
                    return rank
    parts = split_path(directory)
    for depth in range(len(parts), -1, -1):
        prefix = "/" + "/".join(parts[:depth]) if depth else "/"
        rank = client.mds_map.get(prefix)
        if rank is not None:
            return rank
    return 0


class TestOpKind:
    def test_write_classification(self):
        assert OpKind.CREATE.is_write
        assert OpKind.MKDIR.is_write
        assert OpKind.UNLINK.is_write
        assert not OpKind.STAT.is_write
        assert not OpKind.READDIR.is_write

    def test_counter_kinds(self):
        assert OpKind.CREATE.counter_kind == "IWR"
        assert OpKind.STAT.counter_kind == "IRD"
        assert OpKind.LOOKUP.counter_kind == "IRD"
        assert OpKind.OPEN.counter_kind == "IRD"
        assert OpKind.READDIR.counter_kind == "READDIR"
        assert OpKind.UNLINK.counter_kind == "IWR"


class TestMetaRequest:
    def test_unique_request_ids(self):
        a = MetaRequest(kind=OpKind.STAT, path="/a", client_id=0)
        b = MetaRequest(kind=OpKind.STAT, path="/a", client_id=0)
        assert a.req_id != b.req_id

    def test_forwards_counts_extra_hops(self):
        req = MetaRequest(kind=OpKind.STAT, path="/a", client_id=0)
        assert req.forwards == 0
        req.hops.append(0)
        assert req.forwards == 0
        req.hops.append(2)
        assert req.forwards == 1


class TestMetaReply:
    def test_ok_property(self):
        ok = MetaReply(req_id=1, kind=OpKind.STAT, path="/a", served_by=0,
                       forwards=0, latency=0.001)
        bad = MetaReply(req_id=2, kind=OpKind.STAT, path="/a", served_by=0,
                        forwards=0, latency=0.001, error="ENOENT")
        assert ok.ok
        assert not bad.ok


class TestSplitRequest:
    @pytest.mark.parametrize("path", PATHS)
    def test_matches_the_old_client_split(self, path):
        parts = split_path(path)
        assert split_request(OpKind.CREATE, path) == (
            old_dirname_of(path), parts[-1] if parts else "")

    @pytest.mark.parametrize("path", PATHS)
    def test_matches_the_old_mds_split(self, path):
        dir_path, leaf = split_request(OpKind.STAT, path)
        old = old_parent_and_leaf(path)
        if old is None:
            assert (dir_path, leaf) == ("/", "")
        else:
            assert split_path(dir_path) == split_path(old[0])
            assert leaf == old[1]

    def test_named_cases(self):
        assert split_request(OpKind.CREATE, "/") == ("/", "")
        assert split_request(OpKind.CREATE, "/x") == ("/", "x")
        assert split_request(OpKind.CREATE, "/a/b/c") == ("/a/b", "c")
        assert split_request(OpKind.CREATE, "//a//b/") == ("/a", "b")
        assert split_request(OpKind.CREATE, "a/b") == ("/a", "b")
        assert split_request(OpKind.READDIR, "/a/b/") == ("/a/b", "")
        assert split_request(OpKind.READDIR, "/") == ("/", "")

    def test_guess_matches_the_old_routing(self):
        cluster = SimulatedCluster(make_config(num_mds=4))
        client = Client(cluster.engine, 0, cluster.network, cluster.mdss,
                        cluster.metrics, iter([]))
        client.mds_map.update({"/": 0, "/a": 1, "/a/b": 2,
                               "//a//b": 3, "/c": 3})
        client.frag_maps["/c"] = ((1, 0, 1), (1, 1, 2))
        paths = PATHS + ["/a/b/c/d", "/c/f0", "/c/f1", "/c/f2", "c/f3",
                         "/a//b/x", "/zz/y"]
        for kind in (OpKind.CREATE, OpKind.STAT, OpKind.READDIR):
            for path in paths:
                assert client._guess(kind, *split_request(kind, path)) \
                    == old_guess(client, path, kind), (kind, path)

    def test_request_without_split_is_resolved_and_served(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        req = MetaRequest(kind=OpKind.CREATE, path="//d//x/", client_id=0,
                          issued_at=cluster.engine.now)
        assert req.dir_path is None
        done = cluster.engine.completion()
        cluster.network.deliver(cluster.mdss[0].receive_request, req, done)
        reply = cluster.engine.run_until_complete(done)
        assert reply.ok
        assert (req.dir_path, req.leaf) == ("/d", "x")
        assert cluster.namespace.exists("/d/x")
