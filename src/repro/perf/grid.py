"""The grid runner: run a list of cells, warm or cold, behind the cache.

A :class:`Cell` is one fully specified experiment -- config, workload,
policy, lifecycle arms -- built from factories so every process builds
its own fresh objects.  :func:`run_cells` is the one way to run a grid of
them; ``mantle-sim sweep`` and the benchmark harness are thin front-ends.

* Cells whose :func:`~repro.perf.fingerprint.cell_fingerprint` is in the
  result cache are loaded instead of simulated.
* ``warm=True`` runs the rest through the fork-based warm-start server
  (:func:`repro.perf.warmstart.run_grid`): shared namespace construction
  and shared policy-independent simulation prefixes.
* ``warm=False`` with ``jobs > 1`` forks one child per cell, sharing
  nothing.  Serially (``jobs=1``), single-cell grids, and platforms
  without ``os.fork`` run :func:`run_cell` in-process: the reference path
  the equivalence tests compare everything against.

Reports come back in cell order and are byte-identical on every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..cluster import SimReport, SimulatedCluster
from ..config import ClusterConfig
from ..core.api import MantlePolicy
from ..workloads.base import Workload
from . import warmstart
from .cache import ResultCache
from .fingerprint import canonical, cell_fingerprint, prefix_payload

PolicyFactory = Optional[Callable[[], MantlePolicy]]


@dataclass(frozen=True)
class Cell:
    """One grid cell.  *name* labels it in errors; it is not fingerprinted."""

    config: ClusterConfig
    workload: Callable[[], Workload]
    policy: PolicyFactory = None
    max_time: float = 36_000.0
    shadow: PolicyFactory = None
    canary: PolicyFactory = None
    canary_at: float = 30.0
    canary_window: float = 20.0
    lint: bool = True
    name: str = ""


def _arm(cluster: SimulatedCluster, cell: Cell) -> None:
    if cell.shadow is not None:
        cluster.arm_shadow(cell.shadow())
    if cell.canary is not None:
        cluster.arm_canary(cell.canary(), at=cell.canary_at,
                           window=cell.canary_window)


def run_cell(cell: Cell) -> SimReport:
    """Run one cell cold, in-process."""
    cluster = SimulatedCluster(
        cell.config, policy=cell.policy() if cell.policy else None,
        lint_policies=cell.lint)
    _arm(cluster, cell)
    return cluster.run_workload(cell.workload(), max_time=cell.max_time)


def _plans(cells: list[Cell], warm: bool) -> list[warmstart.CellPlan]:
    """Warm: construction groups by workload signature + namespace shape,
    prefix groups by everything a cell runs before its policy is
    consulted.  Cold: every cell is its own group, sharing nothing."""
    plans = []
    for index, cell in enumerate(cells):
        construction_key, prefix_key = None, index
        if warm:
            workload = cell.workload()
            signature = workload.construction_signature()
            if signature is not None:
                construction_key = (signature, cell.config.dir_split_size,
                                    cell.config.dir_split_bits,
                                    cell.config.decay_half_life)
            prefix_key = canonical(prefix_payload(cell, workload))
        plans.append(warmstart.CellPlan(
            index=index, construction_key=construction_key,
            prefix_key=prefix_key, payload=cell, name=cell.name))
    return plans


def _construct(_ckey, plans):
    cell = plans[0].payload
    namespace = SimulatedCluster.build_namespace(cell.config)
    cell.workload().prepare(namespace)
    return namespace


def _warm_start(namespace, _pkey, plans):
    cell = plans[0].payload
    cluster = SimulatedCluster(cell.config, namespace=namespace)
    workload = cell.workload()
    cluster.begin_workload(workload, max_time=cell.max_time,
                           skip_prepare=namespace is not None)
    cluster.run_shared_prefix(workload.shared_prefix_end(cell.config))
    return cluster


def _execute(cluster, plan):
    cell = plan.payload
    if cell.policy is not None:
        cluster.set_policy(cell.policy(), lint=cell.lint)
    _arm(cluster, cell)
    return cluster.finish_workload()


def _execute_cold(_state, plan):
    return run_cell(plan.payload)


def _run(cells: list[Cell], jobs: int, warm: bool) -> list[SimReport]:
    if len(cells) <= 1 or not (warm or jobs > 1) \
            or not warmstart.fork_supported():
        return [run_cell(cell) for cell in cells]
    # Looked up at call time: instrumentation may wrap run_grid.
    return warmstart.run_grid(
        _plans(cells, warm), construct=_construct,
        warm_start=_warm_start if warm else lambda *_: None,
        execute=_execute if warm else _execute_cold, jobs=jobs)


def run_cells(cells: list[Cell], *, jobs: int = 1, warm: bool = True,
              cache: ResultCache | None = None) -> list[SimReport]:
    """Run a grid of cells; reports come back in cell order.

    With a *cache*, cells already stored are loaded instead of simulated
    and the rest are stored after they run (``cache.hits`` /
    ``cache.misses`` count the lookups).
    """
    if cache is None:
        return _run(cells, jobs, warm)
    keys = [cell_fingerprint(cell) for cell in cells]
    reports = [cache.get(key) for key in keys]
    missing = [i for i, report in enumerate(reports) if report is None]
    fresh = _run([cells[i] for i in missing], jobs, warm)
    for i, report in zip(missing, fresh):
        cache.put(keys[i], report)
        reports[i] = report
    return reports
