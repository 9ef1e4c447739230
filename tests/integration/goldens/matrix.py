"""Golden digests: a fixed small-scale run matrix pinned at full precision.

Every stock policy runs a shared-directory create, a compile and a zipf
workload on a 0.25 s heartbeat (so balancing ticks really fire), plus a
greedy-spill crash + ``degrade_cpu`` case and a broken-candidate canary
rollback.  Each cell's digest is everything a run makes observable: the
summary line, ``repr`` of the latency percentiles and makespan, per-rank op
counts, every balancing decision, and the fault and lifecycle traces.

``digests.json`` beside this module holds the recorded digests together
with the Python and numpy versions they were recorded under (the numpy RNG
bit stream is a version contract).  ``tests/integration/test_goldens.py``
re-runs every cell and compares.

Re-record after an *intended* behaviour change (and say why in the change
log):

    PYTHONPATH=src python -m tests.integration.goldens.matrix
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy

from repro.cluster import SimReport, SimulatedCluster, run_experiment
from repro.config import ClusterConfig
from repro.core.api import MantlePolicy
from repro.core.policies import STOCK_POLICIES
from repro.faults import CrashMds, DegradeCpu, FaultSchedule
from repro.workloads import CompileWorkload, CreateWorkload, ZipfWorkload

GOLDEN_PATH = Path(__file__).with_name("digests.json")

HEARTBEAT = 0.25


def _config(seed: int, **overrides) -> ClusterConfig:
    return ClusterConfig(num_mds=3, num_clients=3, seed=seed,
                         heartbeat_interval=HEARTBEAT, **overrides)


def _create(policy: str) -> SimReport:
    return run_experiment(
        _config(11, dir_split_size=300),
        CreateWorkload(num_clients=3, files_per_client=1800,
                       shared_dir=True),
        policy=STOCK_POLICIES[policy](),
    )


def _compile(policy: str) -> SimReport:
    return run_experiment(
        _config(3),
        CompileWorkload(num_clients=3, scale=0.25, seed=3),
        policy=STOCK_POLICIES[policy](),
    )


def _zipf(policy: str) -> SimReport:
    return run_experiment(
        _config(5, dir_split_size=400),
        ZipfWorkload(num_clients=3, num_files=1200, ops_per_client=2000,
                     seed=5),
        policy=STOCK_POLICIES[policy](),
    )


def _crash_degrade() -> SimReport:
    faults = FaultSchedule([
        DegradeCpu(at=0.3, rank=0, factor=2.0, duration=0.6),
        CrashMds(at=1.0, rank=1, takeover_by=2, takeover_after=0.4),
    ])
    return run_experiment(
        _config(13, dir_split_size=300, mds_beacon_grace=0.6),
        CreateWorkload(num_clients=3, files_per_client=1500,
                       shared_dir=True),
        policy=STOCK_POLICIES["greedy-spill"](),
        fault_schedule=faults,
    )


def _canary_rollback() -> SimReport:
    cluster = SimulatedCluster(
        _config(7, dir_split_size=300, stability_guard=True),
        policy=STOCK_POLICIES["greedy-spill"](),
    )
    # Indexes a rank that does not exist: every canary tick errors.
    broken = MantlePolicy(name="broken-candidate",
                          when="go = MDSs[99]['load'] > 0")
    cluster.arm_canary(broken, at=0.6, window=0.75)
    return cluster.run_workload(
        CreateWorkload(num_clients=3, files_per_client=1500,
                       shared_dir=True)
    )


@dataclass(frozen=True)
class Cell:
    name: str
    run: Callable[[], SimReport]


def cells() -> list[Cell]:
    """The matrix, in recording order."""
    out = []
    for label, runner in (("create", _create), ("compile", _compile),
                          ("zipf", _zipf)):
        for policy in STOCK_POLICIES:
            out.append(Cell(f"{policy}/{label}",
                            lambda runner=runner, policy=policy:
                            runner(policy)))
    out.append(Cell("greedy-spill/crash+degrade_cpu", _crash_degrade))
    out.append(Cell("greedy-spill/canary-rollback", _canary_rollback))
    return out


def digest(report: SimReport) -> list[str]:
    """Everything observable about a run, with full float precision."""
    lat = report.latency_summary()
    lines = [
        report.summary_line(),
        f"lat mean={lat.mean!r} p50={lat.p50!r} p95={lat.p95!r} "
        f"p99={lat.p99!r} makespan={report.makespan!r}",
        f"per_mds_ops={report.per_mds_ops()!r}",
    ]
    for d in report.decisions:
        lines.append(
            f"decision t={d.time!r} rank={d.rank} went={d.went} "
            f"targets={sorted(d.targets.items())!r} skip={d.skipped} "
            f"err={d.error} exports={d.exports!r}"
        )
    for event in report.fault_events:
        lines.append(f"fault t={event.time!r} {event.kind} "
                     f"rank={event.rank} {event.detail}")
    for event in report.lifecycle_events:
        lines.append(f"lifecycle t={event.time!r} {event.kind} "
                     f"rank={event.rank} {event.detail}")
    return lines


def versions() -> dict[str, str]:
    return {"python": platform.python_version(),
            "numpy": numpy.__version__}


def record() -> dict:
    return {**versions(),
            "cells": {cell.name: digest(cell.run()) for cell in cells()}}


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> int:
    payload = record()
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"recorded {len(payload['cells'])} cells to {GOLDEN_PATH}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
