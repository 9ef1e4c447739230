"""Install span wrappers at the simulator's layer boundaries.

``installed(tracer)`` replaces the public functions each layer is entered
through with passive wrappers (``spans.Tracer.wrap``) and restores the
originals on exit.  It must be entered before the cluster is built:
``FifoStation`` captures ``MdsServer._execute`` at construction, and the
balancer captures the policy's compiled metaload formula.

Layers and the boundaries that open their spans:

==========  ==============================================================
sim         engine run loops; callbacks no other layer claims
net         ``Network.deliver`` / ``deliver_after``
station     ``FifoStation.submit`` and service completion
clients     client worker steps (``Process._resume`` of ``client*``),
            ``build_clients``
mds         ``receive_request``, the station executor, heartbeats
namespace   ``resolve_dir``, ``frag_for_name``, ``record_hit``,
            ``create``/``mkdir``, ``Workload.prepare``
rados       ``RadosCluster.read``/``write``, ``MdsJournal.log``
metrics     latency and timeline recorders
workloads   op-stream ``next()``
core        ``MantleBalancer.tick``
luapolicy   compile at injection, decision chunk runs, metaload/mdsload
migration   ``Migrator.export``/``_commit``, export process steps
analysis    ``lint_policy`` at injection
cluster     ``SimulatedCluster`` assembly, injection, begin/finish
perf        the warm-start grid: construction, prefix runners, cells
other       the root span: what no layer span covers
==========  ==============================================================
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator

import repro.cluster as cluster_module
import repro.perf.warmstart as warmstart
from repro.clients.ops import MetaReply, MetaRequest
from repro.cluster import SimulatedCluster
from repro.core.api import MantlePolicy
from repro.core.balancer import MantleBalancer
from repro.luapolicy.sandbox import CompiledPolicy
from repro.mds.migration import Migrator
from repro.mds.server import MdsServer
from repro.metrics.collectors import LatencyRecorder, Timeline
from repro.namespace.directory import Directory
from repro.namespace.tree import Namespace
from repro.rados.cluster import RadosCluster
from repro.rados.journal import MdsJournal
from repro.sim.engine import Process, SimEngine
from repro.sim.network import Network
from repro.sim.stations import FifoStation
from repro.workloads import (CompileWorkload, CreateWorkload, Workload,
                             ZipfWorkload)

from spans import Tracer


def _request_arg(args: tuple) -> tuple[int, str] | None:
    req = args[1]
    return (req.req_id, req.path) if type(req) is MetaRequest else None


def _task_request(task: Any) -> tuple[int, str] | None:
    """The request of an MDS station job, ``(MetaRequest, done)``."""
    if type(task) is tuple and type(task[0]) is MetaRequest:
        return task[0].req_id, task[0].path
    return None


def _executor_request(args: tuple) -> tuple[int, str] | None:
    return _task_request(args[1])


def _station_request(args: tuple) -> tuple[int, str] | None:
    return _task_request(args[1].payload)


def _reply_request(args: tuple) -> tuple[int, str] | None:
    reply = args[1]
    return (reply.req_id, reply.path) if type(reply) is MetaReply else None


def _process_span(args: tuple) -> str:
    name = args[0].name
    if name.startswith("client"):
        return "clients.step"
    if name.startswith("export:"):
        return "migration.step"
    return "sim.resume"


class _Patcher:
    def __init__(self) -> None:
        self.saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def _install(tracer: Tracer, patch: _Patcher) -> None:
    wrap = tracer.wrap

    def traced(owner: Any, attr: str, name, **hooks: Any) -> None:
        patch.set(owner, attr, wrap(owner.__dict__[attr], name, **hooks))

    # -- sim: engine loops, network, stations -----------------------------
    def events_before(args: tuple) -> int:
        return args[0].events_executed

    def events_after(args: tuple, _result, before: int, _ns: int) -> None:
        tracer.add("sim.events", args[0].events_executed - before)

    for loop in ("run_until_complete", "run_before", "run_until"):
        traced(SimEngine, loop, "sim.run", enter=events_before,
               leave=events_after)
    traced(Process, "_resume", _process_span, request=_reply_request)

    def heap_size(args: tuple) -> None:
        tracer.peak("sim.heap_peak", len(args[0].engine._heap))

    traced(Network, "deliver", "net.deliver", enter=heap_size)
    traced(Network, "deliver_after", "net.deliver_after")
    traced(FifoStation, "submit", "station.submit")
    traced(FifoStation, "_finish", "station.finish",
           request=_station_request)

    # -- mds ------------------------------------------------------------
    def freeze_retry(args: tuple) -> None:
        # A frozen dirfrag re-submits the request with count_hop=False.
        if len(args) > 3 and args[3] is False:
            tracer.add("mds.freeze_retries")

    traced(MdsServer, "receive_request", "mds.receive_request",
           request=_request_arg, enter=freeze_retry)
    traced(MdsServer, "_execute", "mds.execute", request=_executor_request)
    traced(MdsServer, "heartbeat_tick", "mds.heartbeat")
    traced(MdsServer, "receive_heartbeat", "mds.heartbeat_recv")

    # -- namespace --------------------------------------------------------
    traced(Namespace, "resolve_dir", "namespace.resolve_dir")
    traced(Directory, "frag_for_name", "namespace.frag_for_name")
    traced(Namespace, "record_hit", "namespace.record_hit")
    traced(Namespace, "create", "namespace.create")
    traced(Namespace, "mkdir", "namespace.mkdir")
    for workload_class in (CreateWorkload, ZipfWorkload, CompileWorkload):
        traced(workload_class, "prepare", "namespace.prepare")

    # -- rados, metrics ---------------------------------------------------
    traced(RadosCluster, "write", "rados.write")
    traced(RadosCluster, "read", "rados.read")
    traced(MdsJournal, "log", "rados.journal_log")
    traced(LatencyRecorder, "record", "metrics.latency")
    traced(Timeline, "record", "metrics.timeline")

    # -- workloads: op generation ------------------------------------------
    class TracedOps:
        __slots__ = ("inner",)

        def __init__(self, inner: Iterator) -> None:
            self.inner = inner

        def __iter__(self) -> "TracedOps":
            return self

    TracedOps.__next__ = wrap(lambda ops: next(ops.inner), "workloads.next")
    op_streams = Workload.op_streams

    def traced_op_streams(workload: Workload) -> dict:
        return {cid: TracedOps(ops)
                for cid, ops in op_streams(workload).items()}

    patch.set(Workload, "op_streams", traced_op_streams)

    # -- core, luapolicy --------------------------------------------------
    def tick_enter(_args: tuple) -> None:
        tracer.tick_open += 1

    def tick_leave(_args: tuple, decision, _token, duration: int) -> None:
        tracer.tick_open -= 1
        tracer.series.setdefault("core.tick_ns", []).append(duration)
        if decision is not None and decision.went:
            tracer.add("core.went")

    traced(MantleBalancer, "tick", "core.tick", enter=tick_enter,
           leave=tick_leave, keep_all=True)
    traced(CompiledPolicy, "run", "luapolicy.chunk")
    traced(MantlePolicy, "compile_all", "luapolicy.compile")
    metaload_fn = MantlePolicy.metaload_fn
    mdsload_fn = MantlePolicy.mdsload_fn
    patch.set(MantlePolicy, "metaload_fn", lambda policy: wrap(
        metaload_fn(policy), "luapolicy.metaload"))
    patch.set(MantlePolicy, "mdsload_fn", lambda policy: wrap(
        mdsload_fn(policy), "luapolicy.mdsload"))

    # -- migration, analysis ----------------------------------------------
    traced(Migrator, "export", "migration.export")
    traced(Migrator, "_commit", "migration.commit")
    traced(cluster_module, "lint_policy", "analysis.lint")

    # -- cluster ------------------------------------------------------------
    def finished(args: tuple, report, _token, _ns: int) -> None:
        if report is None:
            return
        cluster = args[0]
        tracer.add("ops", report.total_ops)
        tracer.add("sim.cold_events", cluster.engine.events_executed)
        tracer.add("station.makespan_s", report.makespan)
        for mds in cluster.mdss:
            station = mds.station
            tracer.add(f"station.wait_s.mds{mds.rank}", station.total_wait)
            tracer.add(f"station.jobs.mds{mds.rank}", station.jobs_done)
            tracer.add(f"station.busy_s.mds{mds.rank}", station.busy_time)
            tracer.add("mds.forwards", mds.metrics.forwards)
            tracer.add("mds.traversal_hits", mds.metrics.traversal_hits)

    traced(SimulatedCluster, "__init__", "cluster.assembly")
    traced(SimulatedCluster, "set_policy", "cluster.set_policy")
    traced(SimulatedCluster, "begin_workload", "cluster.begin")
    traced(SimulatedCluster, "finish_workload", "cluster.finish",
           leave=finished)
    traced(cluster_module, "build_clients", "clients.build")

    # -- perf: the warm-start grid --------------------------------------
    run_grid = warmstart.run_grid

    def traced_run_grid(plans, *, construct, warm_start, execute, jobs=1):
        def t_construct(key, group):
            with tracer.span("perf.construct"):
                return construct(key, group)

        def t_warm_start(ctx, key, group):
            # Runs in a forked prefix runner: ship back what it traced.
            base = tracer.snapshot()
            tracer.add("perf.forks")
            with tracer.span("perf.warm_start") as frame:
                state = warm_start(ctx, key, group)
            tracer.add("perf.covered_ns", frame[-1])
            return state, tracer.delta(base), group[0].index, os.getpid()

        def t_execute(packed, plan):
            state, runner_delta, first, runner_pid = packed
            base = tracer.snapshot()
            if os.getpid() != runner_pid:
                tracer.add("perf.forks")
            with tracer.span("perf.cell") as frame:
                record = execute(state, plan)
            tracer.add("perf.covered_ns", frame[-1])
            tracer.series.setdefault("perf.cell_ns", []).append(frame[-1])
            return (record, tracer.delta(base),
                    runner_delta if plan.index == first else None)

        with tracer.span("perf.grid"):
            results = run_grid(plans, construct=t_construct,
                               warm_start=t_warm_start, execute=t_execute,
                               jobs=jobs)
            for _record, delta, runner_delta in results:
                if runner_delta is not None:
                    tracer.merge(runner_delta)
                tracer.merge(delta)
        return [result[0] for result in results]

    patch.set(warmstart, "run_grid", traced_run_grid)


@contextmanager
def installed(tracer: Tracer):
    """Trace every layer boundary for the duration of the block."""
    patch = _Patcher()
    try:
        _install(tracer, patch)
        yield tracer
    finally:
        patch.restore()
