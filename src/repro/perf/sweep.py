"""The (seed x policy) sweep: ``mantle-sim sweep`` over the grid runner.

A :class:`RunSpec` is plain data naming a stock policy and workload
shape; :func:`run_sweep` maps each to a :class:`~repro.perf.grid.Cell`,
runs them through :func:`~repro.perf.grid.run_cells` (cold or warm, any
``jobs``, optionally cached) and reduces each report to a plain record.
Every cell has its own cluster and RNG streams seeded from its seed, and
reports come back in spec order, so records are byte-identical on every
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from ..config import ClusterConfig
from ..core.policies import STOCK_POLICIES
from ..workloads import CreateWorkload, ZipfWorkload
from .grid import Cell, run_cells

#: Friendly aliases: shell-safe underscore forms of the stock names.
_POLICY_ALIASES = {
    "greedy_spill": "greedy-spill",
    "greedy_spill_even": "greedy-spill-even",
    "fill_spill": "fill-and-spill",
    "fill_and_spill": "fill-and-spill",
    "cephfs_original": "cephfs-original",
    "cephfs_original_capped": "cephfs-original-capped",
    "adaptable_conservative": "adaptable-conservative",
    "adaptable_too_aggressive": "adaptable-too-aggressive",
    "giga_autonomous": "giga-autonomous",
    "capacity_model": "capacity-model",
    "feedback_controller": "feedback-controller",
}


def normalize_policy(name: str) -> str:
    """Resolve a policy spelling to a stock name (or ``none``)."""
    name = name.strip()
    if name in ("", "none"):
        return "none"
    resolved = _POLICY_ALIASES.get(name, name)
    if resolved not in STOCK_POLICIES:
        known = ", ".join(sorted(STOCK_POLICIES))
        raise ValueError(f"unknown policy {name!r} (stock: {known})")
    return resolved


@dataclass(frozen=True)
class RunSpec:
    """One sweep cell as plain data (see :func:`spec_cell`)."""

    seed: int
    policy: str  # normalized stock name or "none"
    workload: str = "create"
    num_mds: int = 2
    num_clients: int = 4
    files_per_client: int = 2000
    ops_per_client: int = 2000
    shared_dir: bool = True
    dir_split_size: int = 1000
    max_time: float = 36_000.0
    heartbeat_interval: float = 10.0
    # Policy lifecycle (see repro.lifecycle).  All of these change the
    # run's behaviour and are therefore part of the cell's cache
    # fingerprint (perf/fingerprint.py).
    guard: bool = False
    shadow_policy: str = "none"
    canary_policy: str = "none"
    canary_at: float = 30.0
    canary_window: float = 20.0
    #: Gate injected policies behind the static analyzer
    #: (repro.analysis).  Lint is pure bookkeeping -- results are
    #: byte-identical either way -- but the flag is part of the spec (and
    #: hence the cache fingerprint) because a lint-failing policy errors
    #: with lint=True and runs with lint=False.
    lint: bool = True


def build_specs(seeds: list[int], policies: list[str],
                **common: Any) -> list[RunSpec]:
    """The sweep grid, ordered policies-major then seeds."""
    return [RunSpec(seed=seed, policy=normalize_policy(policy), **common)
            for policy in policies for seed in seeds]


def _build_workload(spec: RunSpec):
    if spec.workload == "create":
        return CreateWorkload(num_clients=spec.num_clients,
                              files_per_client=spec.files_per_client,
                              shared_dir=spec.shared_dir)
    if spec.workload == "zipf":
        return ZipfWorkload(num_clients=spec.num_clients,
                            num_files=spec.files_per_client,
                            ops_per_client=spec.ops_per_client,
                            seed=spec.seed)
    raise ValueError(f"unknown workload {spec.workload!r}")


def spec_record(spec: RunSpec, report) -> dict[str, Any]:
    """The plain-data record of one cell (picklable, JSON-able)."""
    latency = report.latency_summary()
    canary_outcome = next(
        (event.kind.split("-", 1)[1]
         for event in reversed(report.lifecycle_events)
         if event.kind in ("canary-promote", "canary-rollback")),
        None,
    )
    return {
        "seed": spec.seed,
        "policy": spec.policy,
        "summary": report.summary_line(),
        "makespan": report.makespan,
        "total_ops": report.total_ops,
        "throughput": report.throughput,
        "forwards": report.total_forwards,
        "migrations": report.total_migrations,
        "latency_mean": latency.mean,
        "latency_p95": latency.p95,
        "latency_p99": latency.p99,
        "per_mds_ops": report.per_mds_ops(),
        "lifecycle": [
            [event.time, event.kind, event.rank, event.detail]
            for event in report.lifecycle_events
        ],
        "guard_vetoes": sum(
            1 for event in report.lifecycle_events
            if event.kind == "guard-veto"
        ),
        "policy_versions": len(report.policy_log),
        "canary": canary_outcome,
        "shadow": report.shadow_summary,
    }


def _stock(name: str):
    return STOCK_POLICIES[name] if name != "none" else None


def spec_cell(spec: RunSpec) -> Cell:
    """The grid cell a spec describes."""
    config = ClusterConfig(num_mds=spec.num_mds,
                           num_clients=spec.num_clients,
                           seed=spec.seed,
                           dir_split_size=spec.dir_split_size,
                           heartbeat_interval=spec.heartbeat_interval,
                           stability_guard=spec.guard)
    return Cell(config=config, workload=partial(_build_workload, spec),
                policy=_stock(spec.policy), max_time=spec.max_time,
                shadow=_stock(spec.shadow_policy),
                canary=_stock(spec.canary_policy),
                canary_at=spec.canary_at, canary_window=spec.canary_window,
                lint=spec.lint, name=f"seed={spec.seed} policy={spec.policy}")


def run_sweep(specs: list[RunSpec], jobs: int = 1, warm: bool = False,
              cache=None) -> list[dict[str, Any]]:
    """Run all cells; records come back in spec order on every path.

    ``warm`` shares construction and simulation prefixes through forks,
    ``jobs`` bounds concurrent children, and a *cache*
    (:class:`~repro.perf.cache.ResultCache`) skips cells already run.
    """
    reports = run_cells([spec_cell(spec) for spec in specs], jobs=jobs,
                        warm=warm, cache=cache)
    return [spec_record(spec, report) for spec, report in zip(specs, reports)]


def format_report(records: list[dict[str, Any]]) -> str:
    """Deterministic text report, one block per cell in sweep order."""
    lines: list[str] = []
    for record in records:
        lines.append(f"seed={record['seed']} policy={record['policy']}")
        lines.append(f"  {record['summary']}")
        lines.append(
            "  latency: "
            f"mean={record['latency_mean'] * 1e3:.3f}ms "
            f"p95={record['latency_p95'] * 1e3:.3f}ms "
            f"p99={record['latency_p99'] * 1e3:.3f}ms"
        )
    by_policy: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        by_policy.setdefault(record["policy"], []).append(record)
    lines.append("")
    for policy in sorted(by_policy):
        cells = by_policy[policy]
        mean_makespan = sum(c["makespan"] for c in cells) / len(cells)
        mean_tput = sum(c["throughput"] for c in cells) / len(cells)
        lines.append(
            f"[{policy}] seeds={len(cells)} "
            f"mean_makespan={mean_makespan:.2f}s "
            f"mean_tput={mean_tput:.0f}/s"
        )
    return "\n".join(lines) + "\n"
