"""Warm starts and the result cache must be invisible.

The fork-based cell server shares namespace construction and the
policy-independent simulation prefix across grid cells; the result cache
skips cells entirely.  Both must return records *byte-identical* to a
cold run -- same summary lines, same latency percentiles bit-for-bit --
and the cache must miss whenever anything sim-visible changes (sources,
policy text, seed, fast-path toggle) or an entry is corrupt.
"""

import json
from functools import partial

import pytest

from repro.core.policies import fill_spill_policy, greedy_spill_policy
from repro.perf import Cell, run_cells
from repro.perf.cache import ResultCache, cache_disabled, open_cache
from repro.perf.fingerprint import cell_fingerprint, sources_digest
from repro.perf.sweep import build_specs, format_report, run_sweep, spec_cell
from repro.perf.warmstart import CellError, fork_supported
from repro.workloads import CreateWorkload
from tests.conftest import make_config

pytestmark = pytest.mark.skipif(not fork_supported(),
                                reason="requires os.fork")

SMALL = dict(files_per_client=300, dir_split_size=200)


def small_specs():
    return build_specs([0, 1], ["none", "greedy-spill", "fill-and-spill"],
                       **SMALL)


# ---------------------------------------------------------------------------
# Warm-start equivalence.
# ---------------------------------------------------------------------------

class TestWarmStartEquivalence:
    def test_warm_records_match_cold_exactly(self):
        specs = small_specs()
        cold = run_sweep(specs)
        warm = run_sweep(specs, warm=True)
        # Full-precision equality: every float, every per-rank counter.
        assert json.dumps(cold, sort_keys=True, default=repr) \
            == json.dumps(warm, sort_keys=True, default=repr)

    def test_warm_parallel_matches_cold(self):
        specs = small_specs()
        assert run_sweep(specs, jobs=4, warm=True) == run_sweep(specs)

    def test_zipf_shares_construction_across_seeds(self):
        # Different seeds share the population build; results must still
        # match per-seed cold runs exactly.
        specs = build_specs([3, 4], ["none", "greedy-spill"],
                            workload="zipf", files_per_client=800,
                            ops_per_client=400)
        assert run_sweep(specs, warm=True) == run_sweep(specs)

    def test_formatted_report_byte_identical(self):
        # The CI determinism check diffs sweep stdout; the warm path and
        # any --jobs value must format to the same bytes.
        specs = small_specs()
        cold = format_report(run_sweep(specs, jobs=1))
        assert format_report(run_sweep(specs, jobs=2)) == cold
        assert format_report(run_sweep(specs, warm=True)) == cold
        assert format_report(run_sweep(specs, jobs=2, warm=True)) == cold

    def test_single_cell_falls_back_to_cold_path(self):
        specs = build_specs([5], ["greedy-spill"], **SMALL)
        assert run_sweep(specs, warm=True) == run_sweep(specs)

    def test_sweep_parallel_matches_serial(self):
        specs = build_specs([0, 1], ["greedy-spill"], **SMALL)
        assert run_sweep(specs, jobs=2) == run_sweep(specs, jobs=1)

    def test_warm_flag_without_fork_support(self, monkeypatch):
        # Platforms without os.fork must silently take the cold path.
        from repro.perf import warmstart
        monkeypatch.setattr(warmstart, "fork_supported", lambda: False)
        specs = small_specs()[:2]
        assert run_sweep(specs, warm=True) == run_sweep(specs)


# ---------------------------------------------------------------------------
# Harness-style cells: arbitrary configs, workloads and policy factories.
# ---------------------------------------------------------------------------

def _create():
    return CreateWorkload(num_clients=2, files_per_client=8000,
                          shared_dir=True)


def harness_cells():
    return [
        Cell(config=make_config(num_mds=1), workload=_create,
             name="1 MDS"),
        Cell(config=make_config(num_mds=2), workload=_create,
             policy=partial(fill_spill_policy, spill_fraction=0.25),
             name="fill & spill 25%"),
        Cell(config=make_config(num_mds=2, client_think_time=0.0002),
             workload=_create, policy=greedy_spill_policy,
             name="greedy, thinking clients"),
    ]


def digest(report):
    latency = report.latency_summary()
    return (report.summary_line(),
            repr((latency.p50, latency.p95, latency.p99)),
            repr(report.decisions), report.per_mds_ops())


class TestHarnessCells:
    def test_cold_warm_and_cached_agree(self, tmp_path):
        cells = harness_cells()
        cold = [digest(r) for r in run_cells(cells, warm=False)]
        assert [digest(r) for r in run_cells(cells, jobs=2)] == cold
        cache = ResultCache(tmp_path)
        assert [digest(r) for r in run_cells(cells, cache=cache)] == cold
        assert [digest(r) for r in run_cells(cells, cache=cache)] == cold
        assert (cache.hits, cache.misses) == (3, 3)
        # The grid really balanced: policy cells ticked, one migrated.
        assert all(len(d[2]) > 2 for d in cold[1:])
        assert any(" mig=0 " not in d[0] for d in cold[1:])


class TestForkErrorsNameTheCell:
    def test_harness_cell_name(self):
        def boom():
            raise ValueError("policy factory exploded")

        cells = [Cell(config=make_config(), workload=_create, name=name,
                      policy=policy)
                 for name, policy in (("fine", greedy_spill_policy),
                                      ("broken cell", boom))]
        with pytest.raises(CellError) as info:
            run_cells(cells, warm=True)
        message = str(info.value)
        assert message.startswith("grid cell 'broken cell' failed:")
        assert "policy factory exploded" in message
        assert '"config"' not in message  # no prefix-key repr

    def test_sweep_cell_seed_and_policy(self, monkeypatch):
        from repro.core.policies import STOCK_POLICIES

        def boom():
            raise ValueError("no such policy today")

        monkeypatch.setitem(STOCK_POLICIES, "fill-and-spill", boom)
        specs = build_specs([1], ["greedy-spill", "fill-and-spill"],
                            **SMALL)
        with pytest.raises(CellError) as info:
            run_sweep(specs, jobs=2, warm=True)
        assert str(info.value).startswith(
            "grid cell 'seed=1 policy=fill-and-spill' failed:")


# ---------------------------------------------------------------------------
# Result cache.
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_hit_returns_identical_record(self, tmp_path):
        specs = small_specs()[:3]
        cache = ResultCache(tmp_path)
        first = run_sweep(specs, cache=cache)
        assert (cache.hits, cache.misses) == (0, 3)
        second = run_sweep(specs, cache=cache)
        assert (cache.hits, cache.misses) == (3, 3)
        cold = run_sweep(specs)
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(second, sort_keys=True) \
            == json.dumps(cold, sort_keys=True)
        # per_mds_ops ranks survive the cache round trip as ints.
        assert all(isinstance(rank, int)
                   for rank in second[0]["per_mds_ops"])

    def test_partial_hits_fill_only_the_gaps(self, tmp_path):
        specs = small_specs()
        run_sweep(specs[:2], cache=ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        records = run_sweep(specs, warm=True, cache=cache)
        assert (cache.hits, cache.misses) == (2, len(specs) - 2)
        assert records == run_sweep(specs)

    def test_disabled_cache_runs_everything(self, tmp_path):
        specs = small_specs()[:2]
        assert run_sweep(specs, warm=True, cache=None) == run_sweep(specs)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("damage", ["truncated", "bit-flipped",
                                        "empty"])
    def test_corrupt_entry_is_a_miss_and_reruns(self, tmp_path, damage):
        specs = small_specs()[1:2]
        run_sweep(specs, cache=ResultCache(tmp_path))
        (entry,) = ResultCache(tmp_path).entries()
        data = bytearray(entry.read_bytes())
        if damage == "truncated":
            data = data[:len(data) // 2]
        elif damage == "bit-flipped":
            data[len(data) // 2] ^= 0x01
        else:
            data = bytearray()
        entry.write_bytes(bytes(data))

        cache = ResultCache(tmp_path)
        assert run_sweep(specs, cache=cache) == run_sweep(specs)
        assert (cache.hits, cache.misses) == (0, 1)
        # The bad entry was replaced by a good one.
        cache = ResultCache(tmp_path)
        assert run_sweep(specs, cache=cache) == run_sweep(specs)
        assert (cache.hits, cache.misses) == (1, 0)

    def test_no_cache_env_kills_open_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert open_cache() is not None
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache_disabled()
        assert open_cache() is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(small_specs()[:2], cache=cache)
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_rejects_non_hex_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.put("../escape", {})


# ---------------------------------------------------------------------------
# Fingerprint invalidation.
# ---------------------------------------------------------------------------

class TestFingerprintInvalidation:
    def test_seed_and_policy_change_the_key(self):
        specs = build_specs([0, 1], ["greedy-spill", "fill-and-spill"],
                            **SMALL)
        keys = {cell_fingerprint(spec_cell(spec)) for spec in specs}
        assert len(keys) == len(specs)

    def test_policy_text_edit_is_a_miss(self, monkeypatch):
        # Same policy *name*, different Lua body -> different key.
        from dataclasses import replace

        from repro.core.policies import STOCK_POLICIES
        spec = build_specs([0], ["greedy-spill"], **SMALL)[0]
        before = cell_fingerprint(spec_cell(spec))
        original = STOCK_POLICIES["greedy-spill"]

        def edited():
            policy = original()
            return replace(policy, when="return false")

        monkeypatch.setitem(STOCK_POLICIES, "greedy-spill", edited)
        assert cell_fingerprint(spec_cell(spec)) != before

    def test_sources_digest_is_stable_within_process(self):
        assert sources_digest() == sources_digest()
        assert len(sources_digest()) == 64
