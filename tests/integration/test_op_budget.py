"""Deterministic per-op work budget of the simulated op path.

Host timings are noisy; the number of Python function calls a simulated
metadata op costs is not.  This counts ``sys.setprofile`` "call" events
(Python frames, including generator resumes; C calls are not counted)
over a small shared-directory create run and holds it to a budget, so a
change that puts plumbing back on the op path fails here and not only in
a benchmark.

The budget is the count measured when the budget was set (Python 3.11)
plus 10%.  Raise it only with a reason in the change log.
"""

import sys

from repro.cluster import SimulatedCluster
from repro.config import ClusterConfig
from repro.core.policies import greedy_spill_policy
from repro.workloads import CreateWorkload

#: Python calls per op measured on this slice when the budget was set.
MEASURED_CALLS_PER_OP = 54.84
BUDGET_CALLS_PER_OP = MEASURED_CALLS_PER_OP * 1.10


def calls_per_op(files_per_client: int = 600) -> float:
    """Python calls per op while the cluster runs a shared-directory create
    (4 MDS, 4 clients, greedy-spill, seed 7) to completion."""
    cluster = SimulatedCluster(
        ClusterConfig(num_mds=4, num_clients=4, seed=7,
                      dir_split_size=10_000),
        policy=greedy_spill_policy())
    cluster.begin_workload(CreateWorkload(num_clients=4,
                                          files_per_client=files_per_client,
                                          shared_dir=True))
    calls = 0

    def profile(_frame, event, _arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        report = cluster.finish_workload()
    finally:
        sys.setprofile(None)
    return calls / report.total_ops


def test_calls_per_op_within_budget():
    measured = calls_per_op()
    assert measured <= BUDGET_CALLS_PER_OP, (
        f"{measured:.2f} Python calls per op, budget "
        f"{BUDGET_CALLS_PER_OP:.2f}: something put work back on the op path")


def test_count_is_deterministic():
    assert calls_per_op(150) == calls_per_op(150)
