"""Lifecycle equivalence and cache-correctness.

Three properties the lifecycle machinery must not break:

1. **Shadow passivity** -- a shadowed run's decisions and report are
   byte-identical to the unshadowed run's (minus the shadow log itself).
2. **Canary determinism** -- a canary-rollback scenario produces
   byte-identical records across serial, ``--jobs N`` and warm-start
   sweep execution.
3. **Fingerprint coverage** -- lifecycle configuration (guard, shadow,
   canary) is part of the cell fingerprint, so a guarded run and an
   unguarded run never alias in the result cache.
"""

import json
from dataclasses import replace

import pytest

from repro.cluster import SimulatedCluster
from repro.core.api import MantlePolicy
from repro.core.policies import STOCK_POLICIES, greedy_spill_policy
from repro.perf.cache import ResultCache
from repro.perf.fingerprint import cell_fingerprint
from repro.perf.sweep import RunSpec, run_sweep, spec_cell
from repro.perf.warmstart import fork_supported
from repro.workloads import CreateWorkload
from tests.conftest import make_config


class TestShadowPassivity:
    def run_once(self, shadow):
        cluster = SimulatedCluster(make_config(num_mds=2),
                                   policy=greedy_spill_policy())
        if shadow:
            cluster.arm_shadow(STOCK_POLICIES["fill-and-spill"]())
        return cluster.run_workload(
            CreateWorkload(num_clients=2, files_per_client=8000,
                           shared_dir=True))

    def test_shadow_changes_nothing_it_observes(self):
        plain = self.run_once(shadow=False)
        shadowed = self.run_once(shadow=True)

        def decisions(report):
            return [(d.time, d.rank, d.went, d.targets, d.exports,
                     d.error, d.skipped) for d in report.decisions]

        assert shadowed.summary_line() == plain.summary_line()
        assert shadowed.makespan == plain.makespan
        assert decisions(shadowed) == decisions(plain)
        assert (shadowed.latency_summary().p99
                == plain.latency_summary().p99)
        # ... and the shadow genuinely observed the run.
        assert shadowed.shadow_log
        assert shadowed.shadow_summary["ticks"] == len(shadowed.shadow_log)
        assert plain.shadow_log == [] and plain.shadow_summary is None


def broken_factory():
    return MantlePolicy(name="always-broken",
                        when="go = MDSs[99]['load'] > 0")


@pytest.fixture
def broken_stock(monkeypatch):
    """A deliberately-broken stock policy for canary candidates.

    Sweep specs name policies; ``run_sweep`` resolves the names when it
    builds its cells, so every execution path sees the patched registry.
    """
    monkeypatch.setitem(STOCK_POLICIES, "always-broken", broken_factory)


#: Two seeds of a canary-rollback scenario: the broken candidate lands on
#: the canary rank at the 2.006s heartbeat (at=2.0, heartbeat 2.0s),
#: errors on its first balancer tick, and the 4.006s evaluation rolls it
#: back -- well inside the workload's makespan.
CANARY_SPECS = [
    RunSpec(seed=seed, policy="greedy-spill", num_clients=2,
            files_per_client=20_000, dir_split_size=400,
            heartbeat_interval=2.0, guard=True,
            canary_policy="always-broken", canary_at=2.0,
            canary_window=1.9)
    for seed in (3, 4)
]


class TestCanaryRollbackEquivalence:
    def test_serial_jobs_and_warm_are_byte_identical(self, broken_stock):
        serial = run_sweep(list(CANARY_SPECS), jobs=1)
        # The scenario really exercised the rollback path and finished.
        for record in serial:
            assert record["canary"] == "rollback"
            assert record["policy_versions"] == 3  # inject/candidate/rollback
            assert record["total_ops"] == 2 * 20_000
        jobs = run_sweep(list(CANARY_SPECS), jobs=2)
        assert (json.dumps(jobs, sort_keys=True)
                == json.dumps(serial, sort_keys=True))
        if fork_supported():
            warm = run_sweep(list(CANARY_SPECS), jobs=2, warm=True)
            assert (json.dumps(warm, sort_keys=True)
                    == json.dumps(serial, sort_keys=True))


class TestSweepShadowRecord:
    def test_shadowed_cell_summary_matches_plain_cell(self):
        base = RunSpec(seed=5, policy="greedy-spill", num_clients=2,
                       files_per_client=10_000, dir_split_size=400,
                       heartbeat_interval=2.0)
        (plain,) = run_sweep([base])
        (shadowed,) = run_sweep(
            [replace(base, shadow_policy="fill-and-spill")])
        assert shadowed["summary"] == plain["summary"]
        assert shadowed["latency_p99"] == plain["latency_p99"]
        assert plain["shadow"] is None
        assert shadowed["shadow"]["ticks"] >= 1


class TestLifecycleFingerprints:
    BASE = RunSpec(seed=1, policy="greedy-spill")

    def test_every_lifecycle_knob_changes_the_fingerprint(self):
        base_fp = cell_fingerprint(spec_cell(self.BASE))
        variants = [
            replace(self.BASE, guard=True),
            replace(self.BASE, shadow_policy="fill-and-spill"),
            replace(self.BASE, canary_policy="fill-and-spill"),
            replace(self.BASE, canary_at=31.0),
            replace(self.BASE, canary_window=21.0),
        ]
        fingerprints = {cell_fingerprint(spec_cell(variant))
                        for variant in variants}
        assert base_fp not in fingerprints
        assert len(fingerprints) == len(variants)

    def test_guarded_cell_never_reuses_an_unguarded_record(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = RunSpec(seed=2, policy="greedy-spill", num_clients=2,
                       files_per_client=2000, dir_split_size=400)
        run_sweep([spec], cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        # Same cell again: a hit.
        run_sweep([spec], cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        # The guarded variant must miss (and re-simulate), not alias.
        guarded = replace(spec, guard=True)
        records = run_sweep([guarded], cache=cache)
        assert (cache.hits, cache.misses) == (1, 2)
        assert records[0]["summary"]
