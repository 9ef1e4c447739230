"""repro: a full Python reproduction of *Mantle: A Programmable Metadata
Load Balancer for the Ceph File System* (Sevilla et al., SC '15).

The package provides:

* :mod:`repro.core` -- Mantle itself: the policy API, the Table-2
  environment, the balancer driver, dirfrag selectors, the stock policies
  of Table 1 and Listings 1-4, and the pre-injection validator;
* :mod:`repro.luapolicy` -- a sandboxed Lua-subset interpreter so policies
  are injected as source, as in the paper;
* the CephFS substrate it balances: :mod:`repro.namespace`,
  :mod:`repro.mds`, :mod:`repro.rados`, :mod:`repro.clients`,
  :mod:`repro.sim`;
* :mod:`repro.workloads` and :mod:`repro.cluster` to run the paper's
  experiments end to end.

Quick start::

    from repro import ClusterConfig, SimulatedCluster
    from repro.core.policies import greedy_spill_policy
    from repro.workloads import CreateWorkload

    config = ClusterConfig(num_mds=2, num_clients=4, dir_split_size=2000)
    cluster = SimulatedCluster(config, policy=greedy_spill_policy())
    report = cluster.run_workload(
        CreateWorkload(num_clients=4, files_per_client=5000,
                       shared_dir=True))
    print(report.summary_line())
"""

from .cluster import SimReport, SimulatedCluster, run_experiment
from .config import ClusterConfig, ServiceTimes
from .core import MantleBalancer, MantlePolicy, validate_policy

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "MantleBalancer",
    "MantlePolicy",
    "ServiceTimes",
    "SimReport",
    "SimulatedCluster",
    "run_experiment",
    "validate_policy",
    "__version__",
]
