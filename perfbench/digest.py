"""Digests of simulated output, and the committed golden digests.

A digest is a sha256 over the full-precision text of what the modelled
cluster produced.  Host timings never enter it, so any change that claims
to alter only the simulator's speed must leave every digest unchanged.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Optional

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def report_digest(report, events_executed: int, op_errors: int) -> str:
    """Digest of one ``SimReport``: summary line, latency percentiles,
    balancer decisions, per-rank op counts, events executed and op
    errors."""
    latency = report.latency_summary()
    decisions = [(d.time, d.rank, sorted(d.targets.items()), d.exports)
                 for d in report.decisions]
    return _sha([
        report.summary_line(),
        repr((latency.p50, latency.p95, latency.p99)),
        repr(decisions),
        repr(report.per_mds_ops()),
        repr(events_executed),
        repr(op_errors),
    ])


def grid_digest(records: list[dict[str, Any]]) -> str:
    """Digest of a sweep's records (the sweep runner's whole output: per
    cell summary line, latency floats, per-rank ops, lifecycle events)."""
    return _sha([json.dumps(record, sort_keys=True) for record in records])


def load_goldens() -> dict[str, dict[str, dict[str, str]]]:
    if not GOLDENS.exists():
        return {}
    return json.loads(GOLDENS.read_text())


def golden_for(workload: str, seed: int) -> Optional[dict[str, str]]:
    """The committed ``{"digest", "summary"}`` for (workload, seed), if any."""
    return load_goldens().get(workload, {}).get(str(seed))
