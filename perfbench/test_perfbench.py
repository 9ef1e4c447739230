"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench -q

They cover the span arithmetic (self time, ledger closure, fork merges)
on synthetic span trees, and, at a small size, that tracing is passive
(same digest) and that per-layer counts repeat exactly; and that the
golden create-shared summary matches ``mantle-sim run`` and the metric
lists match ``BENCHMARK.json``.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

import suite
from digest import golden_for
from layers import installed
from ledger import SELF_METRICS, layer_metrics, ledger_gap_ns
from spans import Tracer

from repro.cli import main as cli_main
from repro.workloads import CompileWorkload, CreateWorkload

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """A clock the test advances by hand (ns)."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def _synthetic(tracer: Tracer, clock: FakeClock):
    """root 100 = own 10 + a(60) + b(30); a = own 35 + c(25); c leaf;
    b = own 30.  The wrappers advance the clock inside each body."""

    def c():
        clock.now += 25

    def a():
        clock.now += 20
        wrapped_c()
        clock.now += 15

    def b():
        clock.now += 30

    wrapped_c = tracer.wrap(c, "namespace.c")
    wrapped_a = tracer.wrap(a, "mds.a")
    wrapped_b = tracer.wrap(b, "net.b")
    with tracer.span("other.root"):
        clock.now += 4
        wrapped_a()
        clock.now += 6
        wrapped_b()


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    _synthetic(tracer, clock)
    assert tracer.incl_ns == {"namespace.c": 25, "mds.a": 60, "net.b": 30,
                              "other.root": 100}
    assert tracer.self_ns == {"namespace.c": 25, "mds.a": 35, "net.b": 30,
                              "other.root": 10}
    assert tracer.layer_self_ns() == {"namespace": 25, "mds": 35, "net": 30,
                                      "other": 10}
    assert ledger_gap_ns(tracer) == 0
    assert not tracer.stack


def test_records_link_children_to_parents():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    _synthetic(tracer, clock)
    by_name = {record[2]: record for record in tracer.records}
    root_id = by_name["other.root"][0]
    assert by_name["other.root"][1] == 0
    assert by_name["mds.a"][1] == root_id
    assert by_name["net.b"][1] == root_id
    # c sits two levels down and belongs to no sampled request.
    assert "namespace.c" not in by_name


def test_sampled_requests_keep_their_whole_subtree():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inner = tracer.wrap(lambda: None, "namespace.inner")
    outer = tracer.wrap(lambda _req: inner(), "mds.outer",
                        request=lambda args: args[0])
    with tracer.span("other.root"):
        with tracer.span("sim.run"):
            for rid in range(2000):
                outer((rid, f"/work/f{rid}"))
    kept = [record for record in tracer.records
            if record[2] == "namespace.inner"]
    parents = {record[0]: record for record in tracer.records
               if record[2] == "mds.outer"}
    assert 0 < len(kept) < 2000
    assert all(record[1] in parents and record[5] == parents[record[1]][5]
               for record in kept)


def test_fork_delta_merges_and_ledger_still_closes():
    """A child's delta merged under an open span: the child's work moves
    out of that span's self time into the child's layers."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap(lambda: setattr(clock, "now", clock.now + 40),
                       "mds.leaf")
    with tracer.span("other.root"):
        with tracer.span("perf.grid"):
            base = tracer.snapshot()
            # What a forked child would do: run traced work, count it.
            with tracer.span("perf.cell") as frame:
                clock.now += 5
                leaf()
            tracer.add("perf.covered_ns", frame[-1])
            delta = tracer.delta(base)
            # Undo the child's effects locally, as a fork would not have
            # touched this process, then merge the shipped delta.
            for key in Tracer._SUMMED:
                setattr(tracer, key, {k: v for k, v in base[key].items()})
            tracer.stack[-1][1] = 0
            tracer.records = tracer.records[:base["records"]]
            clock.now += 3
            tracer.merge(delta)
    assert tracer.self_ns["perf.grid"] == 3
    assert tracer.self_ns["perf.cell"] == 5
    assert tracer.self_ns["mds.leaf"] == 40
    assert tracer.incl_ns["other.root"] == 48
    assert ledger_gap_ns(tracer) == 0


SMALL_CREATE = replace(
    suite.OP_WORKLOADS["create-shared"],
    make=lambda clients, _seed: CreateWorkload(num_clients=clients,
                                               files_per_client=3_000,
                                               shared_dir=True))


@dataclass(frozen=True)
class FastHeartbeat(suite.OpWorkload):
    """A small run that still ticks the balancer several times."""

    def config(self, seed: int):
        return super().config(seed).with_overrides(heartbeat_interval=1.0)


_COMPILE = suite.OP_WORKLOADS["compile-spill"]
SMALL_COMPILE = FastHeartbeat(
    _COMPILE.name, _COMPILE.policy, _COMPILE.num_mds, _COMPILE.num_clients,
    lambda clients, seed: CompileWorkload(num_clients=clients, scale=1.0,
                                          seed=seed),
    _COMPILE.cli_args)


def _traced(run, *args):
    tracer = Tracer()
    with installed(tracer):
        with tracer.span("other.root"):
            result = run(*args)
    return result, tracer


@pytest.mark.parametrize("spec", [SMALL_CREATE, SMALL_COMPILE],
                         ids=["create", "compile"])
def test_tracing_is_passive_and_counts_repeat(spec):
    """Same digest traced or not; identical counts across traced runs."""
    plain = suite.run_op(spec, 11)
    first, tracer_a = _traced(suite.run_op, spec, 11)
    second, tracer_b = _traced(suite.run_op, spec, 11)
    assert all(plain["checks"].values())
    assert first["digest"] == second["digest"] == plain["digest"]
    assert tracer_a.calls == tracer_b.calls
    assert tracer_a.counters == tracer_b.counters
    metrics_a, metrics_b = layer_metrics(tracer_a), layer_metrics(tracer_b)
    for name in ("sim.events_per_op", "mds.requests_per_op",
                 "namespace.frag_lookups_per_op", "core.ticks",
                 "migration.exports", "luapolicy.chunk_runs"):
        assert metrics_a[name] == metrics_b[name], name
    assert ledger_gap_ns(tracer_a) == 0
    # Wrappers are restored: nothing stays patched after the block.
    from repro.mds.server import MdsServer
    assert not hasattr(MdsServer.receive_request, "__wrapped__")
    if spec is SMALL_COMPILE:
        # The compared counts include real balancer and migration work.
        assert metrics_a["core.ticks"] > 0
        assert metrics_a["migration.exports"] > 0
        assert metrics_a["mds.requests_per_op"] > 1.0


def test_grid_traced_matches_untraced_and_ledger_closes():
    specs = [replace(spec, files_per_client=1500)
             for spec in suite.grid_specs(3)]
    specs = [replace(spec, heartbeat_interval=0.5) for spec in specs]
    plain = suite.run_grid(specs)
    traced, tracer = _traced(suite.run_grid, specs)
    assert all(plain["checks"].values())
    assert traced["digest"] == plain["digest"]
    metrics = layer_metrics(tracer)
    assert metrics["perf.cells"] == len(specs)
    # One prefix runner per seed plus one fork per cell of a shared group.
    assert metrics["perf.forks"] == suite.GRID_SEEDS_PER_CELL + len(specs)
    assert 0.0 < metrics["perf.prefix_shared_frac"] < 1.0
    assert metrics["core.ticks"] > 0
    assert ledger_gap_ns(tracer) == 0


def test_create_shared_summary_matches_the_cli():
    golden = golden_for("create-shared", 7)
    assert golden is not None
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_main(["run", *suite.OP_WORKLOADS["create-shared"].cli_args,
                         "--seed", "7"]) == 0
    assert out.getvalue().splitlines()[0] == golden["summary"]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    _result, tracer = _traced(suite.run_op, SMALL_CREATE, 5)
    computed = set(layer_metrics(tracer)) | {"trace_overhead"}
    listed = [metric["name"] for metric in spec["per_layer"]]
    assert set(listed) == computed
    assert set(SELF_METRICS.values()) <= set(listed)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "sim_ops_per_s", "wall_s", "setup_s", "peak_rss_mb",
        "sim_makespan_s", "sim_p99_ms"]
