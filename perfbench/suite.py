"""The four benchmark workloads and one measured repetition of each.

Each workload is built from its seed and driven only through the
simulator's public entry points: ``SimulatedCluster`` (``begin_workload``
then ``finish_workload``, which is exactly ``run_workload`` split at the
first simulation event) for the three op workloads, and the sweep runner
(``run_sweep`` with warm start on, result cache off) for ``grid``.

A repetition returns plain data: host timings, the simulated results, the
output digest and the independent conservation checks.  Timings are taken
with tracing off unless the caller installed a tracer first.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster import SimulatedCluster
from repro.config import ClusterConfig
from repro.core.policies import STOCK_POLICIES
from repro.perf.sweep import RunSpec, build_specs, run_sweep
from repro.workloads import CompileWorkload, CreateWorkload, ZipfWorkload

from digest import grid_digest, report_digest

#: A run that needs more simulated time than this has livelocked; the
#: cluster raises and the repetition counts as failed.
MAX_SIM_TIME = 600.0
#: ``mantle-sim run``'s default ``--split-size``; the op workloads use it
#: so their summary lines match the CLI with the same arguments.
CLI_SPLIT_SIZE = 10_000


@dataclass(frozen=True)
class OpWorkload:
    """A single-cluster workload: config, policy and op streams from a seed."""

    name: str
    policy: str
    num_mds: int
    num_clients: int
    make: Callable[[int, int], Any]  # (num_clients, seed) -> Workload
    #: The ``mantle-sim run`` arguments that describe the same run.
    cli_args: tuple[str, ...]

    def config(self, seed: int) -> ClusterConfig:
        return ClusterConfig(num_mds=self.num_mds,
                             num_clients=self.num_clients,
                             seed=seed, dir_split_size=CLI_SPLIT_SIZE)


#: Zipf population size: large enough that building it dominates set-up
#: (so ``setup_s`` and ``peak_rss_mb`` move with namespace build cost).
ZIPF_FILES = 50_000

OP_WORKLOADS: dict[str, OpWorkload] = {
    "create-shared": OpWorkload(
        "create-shared", "greedy-spill", 4, 4,
        lambda clients, _seed: CreateWorkload(num_clients=clients,
                                              files_per_client=20_000,
                                              shared_dir=True),
        ("--policy", "greedy-spill", "--mds", "4", "--clients", "4",
         "--files", "20000", "--shared")),
    "zipf-read": OpWorkload(
        "zipf-read", "cephfs-original", 4, 8,
        lambda clients, seed: ZipfWorkload(num_clients=clients,
                                           num_files=ZIPF_FILES,
                                           ops_per_client=8_000, seed=seed),
        ("--workload", "zipf", "--policy", "cephfs-original", "--mds", "4",
         "--clients", "8", "--files", str(ZIPF_FILES), "--ops", "8000")),
    "compile-spill": OpWorkload(
        "compile-spill", "cephfs-original", 4, 4,
        lambda clients, seed: CompileWorkload(num_clients=clients, scale=5.0,
                                              seed=seed),
        ("--workload", "compile", "--policy", "cephfs-original", "--mds", "4",
         "--clients", "4", "--scale", "5")),
}

#: The grid: policy x seed over shared-directory creates.  The heartbeat
#: is shortened so every cell ticks its balancer several times and the
#: cells really diverge by policy after the shared warm-start prefix.
GRID_POLICIES = ("greedy-spill", "cephfs-original", "fill-and-spill")
GRID_SEEDS_PER_CELL = 2
GRID_SHAPE = dict(workload="create", num_mds=4, num_clients=4,
                  files_per_client=5_000, shared_dir=True,
                  heartbeat_interval=2.0, max_time=MAX_SIM_TIME)
#: One worker: cells run one after another, so the per-layer ledger of the
#: traced run adds up and host timings do not contend for the two CPUs.
GRID_JOBS = 1

WORKLOADS = (*OP_WORKLOADS, "grid")


def grid_specs(seed: int) -> list[RunSpec]:
    seeds = [seed + offset for offset in range(GRID_SEEDS_PER_CELL)]
    return build_specs(seeds, list(GRID_POLICIES), **GRID_SHAPE)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    forks = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, forks) / 1024.0  # Linux reports KiB


def _build_op_cluster(spec: OpWorkload, seed: int):
    workload = spec.make(spec.num_clients, seed)
    cluster = SimulatedCluster(spec.config(seed),
                               policy=STOCK_POLICIES[spec.policy]())
    cluster.begin_workload(workload, max_time=MAX_SIM_TIME)
    return cluster, workload


def _build_grid_cell(seed: int):
    """The grid's first cell set up cold, exactly as the sweep's cold path
    would build it, up to its first simulation event."""
    spec = grid_specs(seed)[0]
    config = ClusterConfig(num_mds=spec.num_mds,
                           num_clients=spec.num_clients, seed=spec.seed,
                           dir_split_size=spec.dir_split_size,
                           heartbeat_interval=spec.heartbeat_interval)
    cluster = SimulatedCluster(config, policy=STOCK_POLICIES[spec.policy]())
    workload = CreateWorkload(num_clients=spec.num_clients,
                              files_per_client=spec.files_per_client,
                              shared_dir=spec.shared_dir)
    cluster.begin_workload(workload, max_time=spec.max_time)
    return cluster


def measure_setup(name: str, seed: int) -> float:
    """Host seconds from cluster construction to the first simulation
    event; meaningful only as the first thing a fresh process does."""
    start = time.perf_counter()
    if name == "grid":
        _build_grid_cell(seed)
    else:
        _build_op_cluster(OP_WORKLOADS[name], seed)
    return time.perf_counter() - start


def run_rep(name: str, seed: int) -> dict[str, Any]:
    """One full repetition; returns timings, results and checks."""
    if name == "grid":
        return run_grid(grid_specs(seed))
    return run_op(OP_WORKLOADS[name], seed)


def run_op(spec: OpWorkload, seed: int) -> dict[str, Any]:
    start = time.perf_counter()
    cluster, workload = _build_op_cluster(spec, seed)
    ready = time.perf_counter()
    report = cluster.finish_workload()
    done = time.perf_counter()
    expected = workload.total_ops()
    per_rank = report.per_mds_ops()
    completed = sum(client.ops_completed for client in cluster.clients)
    errors = sum(client.errors for client in cluster.clients)
    checks = {
        "ops_equal_workload_total": report.total_ops == expected,
        "client_replies_equal_total": completed == expected,
        "per_rank_sum_equals_total": sum(per_rank.values())
        == report.total_ops,
        "no_op_errors": errors == 0,
    }
    latency = report.latency_summary()
    return {
        "setup_s": ready - start,
        "run_s": done - ready,
        "wall_s": done - start,
        "ops": report.total_ops,
        "peak_rss_mb": _peak_rss_mb(),
        "sim_makespan_s": report.makespan,
        "sim_p99_ms": latency.p99 * 1e3,
        "summary": report.summary_line(),
        "digest": report_digest(report, cluster.engine.events_executed,
                                errors),
        "checks": checks,
    }


def run_grid(specs: list[RunSpec]) -> dict[str, Any]:
    start = time.perf_counter()
    records = run_sweep(specs, jobs=GRID_JOBS, warm=True)
    done = time.perf_counter()
    total = sum(record["total_ops"] for record in records)
    checks = {
        "ops_equal_workload_total": all(
            record["total_ops"] == spec.num_clients * spec.files_per_client
            for spec, record in zip(specs, records)),
        "per_rank_sum_equals_total": all(
            sum(record["per_mds_ops"].values()) == record["total_ops"]
            for record in records),
        "cells_outlast_first_heartbeat": all(
            record["makespan"] > spec.heartbeat_interval
            for spec, record in zip(specs, records)),
    }
    return {
        "run_s": done - start,
        "wall_s": done - start,
        "ops": total,
        "peak_rss_mb": _peak_rss_mb(),
        # Medians over cells: a stall can put one cell's p99 at ~45 ms on
        # some seeds, which a mean would pass straight through.
        "sim_makespan_s": statistics.median(r["makespan"] for r in records),
        "sim_p99_ms": statistics.median(r["latency_p99"]
                                        for r in records) * 1e3,
        "summary": " || ".join(record["summary"] for record in records),
        "digest": grid_digest(records),
        "checks": checks,
    }
