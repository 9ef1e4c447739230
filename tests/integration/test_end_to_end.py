"""End-to-end integration tests: full cluster + workloads + policies.

Small-scale versions of the paper's experiments, exercising the entire
stack (clients -> network -> MDS -> namespace -> RADOS -> balancer) in a
few simulated seconds each.
"""

import pytest

from repro import SimulatedCluster, run_experiment
from repro.core.api import MantlePolicy
from repro.core.policies import (
    adaptable_policy,
    fill_spill_policy,
    greedy_spill_even_policy,
    greedy_spill_policy,
    original_policy,
)
from repro.workloads import (
    CompileWorkload,
    CreateWorkload,
    TraceWorkload,
    ZipfWorkload,
)
from repro.clients.ops import OpKind
from tests.conftest import make_config


class TestBasicRuns:
    def test_create_workload_completes(self, small_config):
        report = run_experiment(
            small_config,
            CreateWorkload(num_clients=2, files_per_client=500),
        )
        assert report.total_ops == 2 * 501
        assert report.makespan > 0
        assert report.throughput > 0
        assert all(ops == 501
                   for ops in report.metrics.client_op_counts.values())

    def test_zipf_workload_completes(self, small_config):
        workload = ZipfWorkload(num_clients=2, num_files=300,
                                ops_per_client=400, num_dirs=8)
        report = run_experiment(small_config, workload)
        assert report.total_ops == 800

    def test_trace_replay(self, small_config):
        trace = {
            0: [(OpKind.MKDIR, "/t0"), (OpKind.CREATE, "/t0/a"),
                (OpKind.STAT, "/t0/a"), (OpKind.READDIR, "/t0"),
                (OpKind.UNLINK, "/t0/a")],
            1: [(OpKind.MKDIR, "/t1"), (OpKind.CREATE, "/t1/b")],
        }
        report = run_experiment(small_config, TraceWorkload(trace))
        assert report.total_ops == 7

    def test_compile_workload_completes(self, small_config):
        workload = CompileWorkload(num_clients=2, scale=0.5, seed=1)
        report = run_experiment(small_config, workload)
        assert report.total_ops == workload.total_ops()

    def test_no_clients_runs_heartbeats_only(self, small_config):
        cluster = SimulatedCluster(small_config)
        report = cluster.run_for(10.0)
        assert report.total_ops == 0
        for mds in cluster.mdss:
            assert mds.hb_table.have_all(small_config.num_mds)


class TestDeterminism:
    def test_same_seed_same_run(self):
        def run_once():
            config = make_config(num_mds=2, seed=123)
            return run_experiment(
                config,
                CreateWorkload(num_clients=2, files_per_client=800),
                policy=greedy_spill_policy(),
            )

        a, b = run_once(), run_once()
        assert a.makespan == b.makespan
        assert a.per_mds_ops() == b.per_mds_ops()
        assert a.total_migrations == b.total_migrations
        assert ([(d.time, d.rank, d.exports) for d in a.decisions]
                == [(d.time, d.rank, d.exports) for d in b.decisions])

    def test_different_seed_differs(self):
        def run_with(seed):
            config = make_config(num_mds=2, seed=seed)
            return run_experiment(
                config,
                CreateWorkload(num_clients=2, files_per_client=800),
            )

        a, b = run_with(1), run_with(2)
        assert a.makespan != b.makespan


class TestPolicyIntegration:
    @pytest.mark.parametrize("factory", [
        greedy_spill_policy,
        greedy_spill_even_policy,
        lambda: fill_spill_policy(cpu_threshold=60, patience=0),
        adaptable_policy,
        original_policy,
    ])
    def test_stock_policy_balances_a_hot_cluster(self, factory):
        """Every stock policy must shed load from an overloaded rank 0 on
        a suitably stressing small workload."""
        config = make_config(num_mds=2, num_clients=4,
                             heartbeat_interval=1.0, dir_split_size=400)
        report = run_experiment(
            config,
            CreateWorkload(num_clients=4, files_per_client=3000,
                           shared_dir=True),
            policy=factory(),
        )
        assert report.total_migrations >= 1, report.policy_name
        served = report.per_mds_ops()
        assert served.get(1, 0) > 0, report.policy_name

    def test_policy_swap_mid_session(self):
        """Mantle's point: inject different logic into the same cluster."""
        config = make_config(num_mds=2, num_clients=2,
                             heartbeat_interval=1.0)
        cluster = SimulatedCluster(config, policy=greedy_spill_policy())
        assert cluster.balancer.policy.name == "greedy-spill"
        cluster.set_policy(adaptable_policy())
        assert cluster.balancer.policy.name == "adaptable"
        for mds in cluster.mdss:
            assert mds.balancer is cluster.balancer
        cluster.clear_policy()
        assert all(mds.balancer is None for mds in cluster.mdss)

    def test_broken_policy_does_not_crash_the_cluster(self):
        """A policy that errors at run time must not take the MDS down --
        the safety property Mantle's decoupling buys (§3/§4.4)."""
        broken = MantlePolicy(
            name="broken",
            metaload="IWR",
            when='go = MDSs[whoami+99]["load"] > 0',  # indexes nil
            where="targets[2] = 1",
        )
        config = make_config(num_mds=2, num_clients=2,
                             heartbeat_interval=0.5)
        cluster = SimulatedCluster(config, policy=broken)
        report = cluster.run_workload(
            CreateWorkload(num_clients=2, files_per_client=4000)
        )
        # The workload completed even though every tick errored.
        assert report.total_ops == 2 * 4001
        assert cluster.balancer.errors > 0

    def test_conservation_of_operations(self):
        """No op is lost or double-served, even across migrations."""
        config = make_config(num_mds=3, num_clients=3,
                             heartbeat_interval=1.0, dir_split_size=300)
        workload = CreateWorkload(num_clients=3, files_per_client=2000,
                                  shared_dir=True)
        report = run_experiment(config, workload,
                                policy=greedy_spill_policy())
        assert report.total_ops == workload.total_ops()
        assert sum(report.per_mds_ops().values()) == workload.total_ops()

    def test_namespace_consistent_after_migrations(self):
        config = make_config(num_mds=2, num_clients=2,
                             heartbeat_interval=1.0, dir_split_size=300)
        cluster = SimulatedCluster(config, policy=greedy_spill_policy())
        cluster.run_workload(
            CreateWorkload(num_clients=2, files_per_client=2000,
                           shared_dir=True)
        )
        shared = cluster.namespace.resolve_dir("/work/shared")
        assert shared.entry_count() == 4000
        # Nothing left frozen behind.
        for directory in cluster.namespace.root.walk():
            for frag in directory.frags.values():
                assert not frag.frozen


class TestManualPartitioning:
    def test_pin_routes_requests(self, small_config):
        cluster = SimulatedCluster(small_config)
        cluster.namespace.mkdirs("/pinned")
        cluster.pin("/pinned", 1)
        report = cluster.run_workload(TraceWorkload({
            0: [(OpKind.CREATE, "/pinned/f1"),
                (OpKind.CREATE, "/pinned/f2")],
            1: [(OpKind.STAT, "/pinned/f1")],
        }))
        assert report.per_mds_ops().get(1, 0) >= 2

    def test_spread_dirfrags(self, small_config):
        cluster = SimulatedCluster(small_config)
        cluster.namespace.mkdirs("/d")
        d = cluster.namespace.resolve_dir("/d")
        for i in range(16):
            cluster.namespace.create(f"/d/f{i}")
        d.fragment(extra_bits=2)
        cluster.spread_dirfrags("/d", [0, 1])
        auths = {frag.authority() for frag in d.frags.values()}
        assert auths == {0, 1}

    def test_pin_invalid_rank(self, small_config):
        cluster = SimulatedCluster(small_config)
        cluster.namespace.mkdirs("/d")
        with pytest.raises(ValueError):
            cluster.pin("/d", 9)


class TestReportApi:
    def test_summary_line_contains_key_fields(self, small_config):
        report = run_experiment(
            small_config,
            CreateWorkload(num_clients=1, files_per_client=100),
        )
        line = report.summary_line()
        assert "makespan" in line and "tput" in line and "mds0" in line

    def test_latency_and_runtime_summaries(self, small_config):
        report = run_experiment(
            small_config,
            CreateWorkload(num_clients=2, files_per_client=100),
        )
        assert report.latency_summary().count == report.total_ops
        assert report.runtime_summary().count == 2

    def test_workload_exceeding_deadline_raises(self):
        config = make_config(num_mds=1)
        cluster = SimulatedCluster(config)
        with pytest.raises(RuntimeError, match="exceeded"):
            cluster.run_workload(
                CreateWorkload(num_clients=1, files_per_client=100_000),
                max_time=0.5,
            )
