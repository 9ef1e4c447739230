"""Per-layer metrics from a traced run's aggregates.

Times are host time (``_us_per_op``, ``_ms``, ``_s``); ``station.wait_ms``
and ``station.util`` are simulated.  "Per op" divides by the simulated
metadata ops the run completed (over all cells on ``grid``).  Every
layer's self time is reported, so the ledger closes: the layers plus
``other.us_per_op`` equal ``root.us_per_op``.
"""

from __future__ import annotations

import statistics

from spans import Tracer

#: Every layer that owns spans; ``<layer>.<self metric>`` below.
SELF_METRICS = {
    "sim": "sim.self_us_per_op",
    "net": "net.us_per_op",
    "station": "station.self_us_per_op",
    "clients": "clients.self_us_per_op",
    "mds": "mds.self_us_per_op",
    "namespace": "namespace.self_us_per_op",
    "rados": "rados.us_per_op",
    "metrics": "metrics.record_us_per_op",
    "workloads": "workloads.gen_us_per_op",
    "core": "core.self_us_per_op",
    "luapolicy": "luapolicy.self_us_per_op",
    "migration": "migration.self_us_per_op",
    "analysis": "analysis.self_us_per_op",
    "cluster": "cluster.self_us_per_op",
    "perf": "perf.self_us_per_op",
    "other": "other.us_per_op",
}

#: The MDS ranks every workload runs with.
RANKS = range(4)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The benchmark's ``per_layer`` metrics from one traced run."""
    calls = tracer.calls.get
    counter = tracer.counters.get
    ops = counter("ops", 0)

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def us_per_op(ns: float) -> float:
        return per_op(ns) / 1e3

    def mean_ms(name: str) -> float:
        return _ratio(tracer.incl_ns.get(name, 0), calls(name, 0)) / 1e6

    layer_ns = tracer.layer_self_ns()
    ticks = calls("core.tick", 0)
    tick_us = [ns / 1e3 for ns in tracer.series.get("core.tick_ns", [])]
    requests = calls("mds.receive_request", 0)
    forwards = counter("mds.forwards", 0)
    hits = counter("mds.traversal_hits", 0)
    exports = calls("migration.export", 0)
    lua_tick_ns = sum(ns for name, ns in tracer.tick_ns.items()
                      if name.startswith("luapolicy."))
    cells_s = [ns / 1e9 for ns in tracer.series.get("perf.cell_ns", [])]
    makespan = counter("station.makespan_s", 0)
    events = counter("sim.events", 0)
    # Events a cold run of every cell would execute; fewer ran when grid
    # cells shared a warm-start prefix.
    cold_events = counter("sim.cold_events", 0)

    out = {
        "sim.events_per_op": per_op(events),
        "sim.heap_peak": tracer.maxima.get("sim.heap_peak", 0),
        "net.deliveries_per_op": per_op(calls("net.deliver", 0)
                                        + calls("net.deliver_after", 0)),
        "station.submits_per_op": per_op(calls("station.submit", 0)),
        "mds.requests_per_op": per_op(requests),
        "mds.forward_frac": _ratio(forwards, requests),
        "mds.traversal_hit_frac": _ratio(hits, hits + forwards),
        "mds.freeze_retries": counter("mds.freeze_retries", 0),
        "namespace.resolve_per_op": per_op(calls("namespace.resolve_dir", 0)),
        "namespace.frag_lookups_per_op": per_op(
            calls("namespace.frag_for_name", 0)),
        "namespace.record_hit_per_op": per_op(
            calls("namespace.record_hit", 0)),
        "namespace.prepare_s": tracer.incl_ns.get("namespace.prepare", 0)
        / 1e9,
        "rados.writes_per_op": per_op(calls("rados.write", 0)),
        "rados.reads_per_op": per_op(calls("rados.read", 0)),
        "journal.logs_per_op": per_op(calls("rados.journal_log", 0)),
        "core.ticks": ticks,
        "core.tick_us_p50": _percentile(tick_us, 50),
        "core.tick_us_p90": _percentile(tick_us, 90),
        "core.went_frac": _ratio(counter("core.went", 0), ticks),
        "core.metaload_calls_per_tick": _ratio(
            tracer.tick_calls.get("luapolicy.metaload", 0), ticks),
        "luapolicy.compile_ms": mean_ms("luapolicy.compile"),
        "luapolicy.chunk_runs": calls("luapolicy.chunk", 0),
        "luapolicy.run_us_per_tick": _ratio(lua_tick_ns, ticks) / 1e3,
        "migration.exports": exports,
        "migration.committed_frac": _ratio(calls("migration.commit", 0),
                                           exports),
        "migration.host_us": layer_ns.get("migration", 0) / 1e3,
        "analysis.lint_ms": mean_ms("analysis.lint"),
        "cluster.assembly_ms": _ratio(
            tracer.self_ns.get("cluster.assembly", 0),
            calls("cluster.assembly", 0)) / 1e6,
        "perf.cells": calls("perf.cell", 0),
        "perf.forks": counter("perf.forks", 0),
        "perf.prefix_shared_frac": 1.0 - _ratio(events, cold_events)
        if cold_events else 0.0,
        "perf.cell_wall_s_p50": statistics.median(cells_s) if cells_s
        else 0.0,
        "root.us_per_op": us_per_op(tracer.incl_ns.get("other.root", 0)),
    }
    for rank in RANKS:
        out[f"station.wait_ms.mds{rank}"] = _ratio(
            counter(f"station.wait_s.mds{rank}", 0),
            counter(f"station.jobs.mds{rank}", 0)) * 1e3
        out[f"station.util.mds{rank}"] = _ratio(
            counter(f"station.busy_s.mds{rank}", 0), makespan)
    for layer, metric in SELF_METRICS.items():
        out[metric] = us_per_op(layer_ns.get(layer, 0))
    return out


def ledger_gap_ns(tracer: Tracer) -> int:
    """Root duration minus the sum of every layer's self time (0 when the
    ledger closes)."""
    return (tracer.incl_ns.get("other.root", 0)
            - sum(tracer.layer_self_ns().values()))
