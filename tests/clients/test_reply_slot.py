"""Reply-once: every request a client sends gets exactly one reply.

A client's request carries a :class:`ReplySlot`; the MDS answers through
``done.succeed(reply)``.  Requests travel through crash drains, dead-letter
redelivery, frozen-frag retries and forwards, and in every case the slot
must fire exactly once: a lost reply would stall the client, a second one
would raise.
"""

from collections import Counter

import pytest

from repro.clients.client import Client, ReplySlot
from repro.clients.ops import OpKind
from repro.cluster import SimulatedCluster
from repro.core.policies import greedy_spill_policy
from repro.faults import CrashMds, FaultSchedule
from repro.mds.server import MdsServer
from repro.workloads import CreateWorkload
from tests.conftest import make_config


class Ledger:
    """Counts replies per request id and the ways requests travelled."""

    def __init__(self) -> None:
        self.replies: Counter[int] = Counter()
        self.slots: list = []
        self.rearrivals = 0  # count_hop=False: freeze retries, redelivery

    def tap(self, _client, reply) -> None:
        self.replies[reply.req_id] += 1


@pytest.fixture
def ledger(monkeypatch):
    ledger = Ledger()
    receive = MdsServer.receive_request

    def counting_receive(self, req, done, count_hop=True):
        if not count_hop:
            ledger.rearrivals += 1
        if isinstance(done, ReplySlot) and not ledger.slots:
            ledger.slots.append((done, req))
        return receive(self, req, done, count_hop)

    monkeypatch.setattr(MdsServer, "receive_request", counting_receive)
    return ledger


def run(ledger, config, workload, policy=None, faults=None):
    cluster = SimulatedCluster(config, policy=policy, fault_schedule=faults)
    cluster.reply_tap = ledger.tap
    report = cluster.run_workload(workload, max_time=120.0)
    completed = sum(client.ops_completed for client in cluster.clients)
    assert report.total_ops == workload.total_ops()
    assert completed == workload.total_ops()
    # One reply per request, and one request per op.
    assert set(ledger.replies.values()) == {1}
    assert len(ledger.replies) == workload.total_ops()
    return cluster, report


class TestExactlyOneReply:
    def test_crash_drain_and_dead_letter_redelivery(self, ledger):
        # Rank 0 owns everything; its queue is drained at the crash and
        # every bounced request waits for the takeover, then redelivers.
        config = make_config(num_mds=2, client_pipeline=4,
                             mds_beacon_grace=0.5)
        faults = FaultSchedule([CrashMds(at=0.3, rank=0, takeover_by=1,
                                         takeover_after=0.5)])
        cluster, report = run(
            ledger, config,
            CreateWorkload(num_clients=3, files_per_client=800,
                           shared_dir=True),
            faults=faults)
        assert cluster.metrics.mds(0).dead_letters > 0
        assert ledger.rearrivals > 0
        assert "takeover" in [event.kind for event in report.fault_events]
        assert report.per_mds_ops()[1] > 0

    def test_frozen_frag_retries_and_forwards(self, ledger):
        # Scatter-gather halts and greedy-spill migrations freeze frags
        # under live requests; clients with stale maps get forwarded.
        config = make_config(num_mds=4, dir_split_size=200,
                             heartbeat_interval=0.2, rebalance_delay=0.02,
                             scatter_gather_prob=1.0)
        cluster, report = run(
            ledger, config,
            CreateWorkload(num_clients=4, files_per_client=600,
                           shared_dir=True),
            policy=greedy_spill_policy())
        assert ledger.rearrivals > 0  # freeze retries
        assert sum(m.forwards for m in report.metrics.per_mds.values()) > 0
        assert report.metrics.total_migrations > 0


class TestSlot:
    def test_second_succeed_raises(self, ledger):
        cluster, _report = run(
            ledger, make_config(num_mds=1),
            CreateWorkload(num_clients=1, files_per_client=3,
                           shared_dir=True))
        slot, _req = ledger.slots[0]
        assert slot.done
        with pytest.raises(RuntimeError, match="already got its reply"):
            slot.succeed(None)
        assert cluster.clients[0].ops_completed == 3

    def test_slot_is_done_only_after_its_reply(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        client = Client(cluster.engine, 0, cluster.network, cluster.mdss,
                        cluster.metrics, iter([(OpKind.MKDIR, "/d")]))
        slots = []
        receive = cluster.mdss[0].receive_request
        cluster.mdss[0].receive_request = (
            lambda req, done, count_hop=True:
            (slots.append(done), receive(req, done, count_hop)))
        client.start()
        while not slots:
            cluster.engine.step()
        assert not slots[0].done
        cluster.engine.run_until_complete(client.done)
        assert slots[0].done
        assert client.ops_completed == 1
