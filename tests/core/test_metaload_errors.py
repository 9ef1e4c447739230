"""Metaload formulas evaluated at run time: Lua semantics, policy errors.

A metaload runs in every heartbeat and in every balancer tick.  Division
by zero is not an error in Lua (``x/0`` is ``inf``), and a formula that
does fail -- an unknown name, a nil result -- is the policy's error: the
heartbeat falls back to the Table 1 formula for that beat, and the tick
records it against the circuit breaker like any other Lua error.
"""

import math
from dataclasses import replace

import pytest

from repro.cluster import SimulatedCluster
from repro.core.policies import greedy_spill_policy
from repro.mds.server import _default_metaload
from repro.workloads import CompileWorkload, CreateWorkload
from tests.conftest import make_config

WORKLOADS = {
    "create": lambda: CreateWorkload(num_clients=3, files_per_client=1200,
                                     shared_dir=True),
    "compile": lambda: CompileWorkload(num_clients=3, scale=0.2, seed=3),
}


def cluster_with_metaload(metaload: str, lint: bool = True):
    config = make_config(num_mds=3, num_clients=3, heartbeat_interval=0.25)
    cluster = SimulatedCluster(config)
    cluster.set_policy(replace(greedy_spill_policy(), metaload=metaload),
                       lint=lint)
    return cluster


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_division_by_zero_metaload_completes(workload):
    cluster = cluster_with_metaload("IWR / IRD")
    expected_ops = sum(len(list(ops)) for ops in
                       WORKLOADS[workload]().op_streams().values())
    report = cluster.run_workload(WORKLOADS[workload]())
    assert report.total_ops == expected_ops
    assert report.decisions
    assert all(d.error is None for d in report.decisions)
    assert not report.policy_tripped
    if workload == "create":
        # Creates only: IRD stays 0, so every loaded rank reports inf.
        beat = cluster.mdss[0].hb_table.get(0)
        assert beat.auth_metaload == math.inf


@pytest.mark.parametrize("metaload", ["IWR + BOGUS", "nil"])
def test_failing_metaload_trips_the_breaker(metaload):
    cluster = cluster_with_metaload(metaload, lint=False)
    report = cluster.run_workload(WORKLOADS["create"]())
    assert report.total_ops == 3 * 1200
    assert report.policy_tripped
    balancer = cluster.balancer
    failed = [d for d in report.decisions if d.error is not None]
    assert all(d.error.startswith("metaload: ") for d in failed)
    # One error per failed tick; the breaker opens after the threshold
    # (later failures are half-open probation re-tries).
    assert balancer.errors == len(failed)
    assert len([d for d in failed if not d.probation]) \
        == balancer.error_threshold
    kinds = [event.kind for event in report.lifecycle_events]
    assert "breaker-open" in kinds
    assert "policy=fallback" in report.summary_line()


def test_metaload_failing_while_partitioning_is_a_policy_error():
    # Ranks carry enough IWR to evaluate; cold directories and dirfrags
    # make the formula return nil once the tick walks the namespace.
    cluster = cluster_with_metaload("IWR >= 1 and IWR or nil", lint=False)
    report = cluster.run_workload(WORKLOADS["compile"]())
    shipped = [d for d in report.decisions if d.went and d.error]
    assert shipped
    assert all(d.error.startswith("metaload: ") for d in shipped)
    assert cluster.balancer.errors == sum(
        d.error is not None for d in report.decisions)


def test_failing_metaload_heartbeat_uses_table1_formula():
    cluster = cluster_with_metaload("IWR + BOGUS", lint=False)
    mds = cluster.mdss[0]
    mds.auth_load.hit("IWR", 0.0, 5.0)
    mds.all_load.hit("IRD", 0.0, 3.0)
    beat = mds._snapshot_metrics()
    assert beat.auth_metaload == _default_metaload(
        mds.auth_load.snapshot(0.0)) == 10.0
    assert beat.all_metaload == _default_metaload(
        mds.all_load.snapshot(0.0)) == 3.0
