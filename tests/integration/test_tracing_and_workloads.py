"""Trace recording/replay, the checkpoint workload, hash partitioning."""

import pytest

from repro.cluster import SimulatedCluster, run_experiment
from repro.clients.ops import OpKind
from repro.metrics.tracing import TraceRecorder, record_run
from repro.workloads import CheckpointWorkload, CreateWorkload
from tests.conftest import make_config


class TestTraceRecording:
    def run_recorded(self, files=200):
        cluster = SimulatedCluster(make_config(num_mds=1))
        workload = CreateWorkload(num_clients=2, files_per_client=files)
        recorder, report = record_run(cluster, workload)
        return recorder, report

    def test_records_every_op(self):
        recorder, report = self.run_recorded()
        assert len(recorder.events) == report.total_ops
        summary = recorder.summary()
        assert summary["clients"] == 2
        assert summary["errors"] == 0
        assert summary["mean_latency"] > 0

    def test_events_are_time_ordered_per_client(self):
        recorder, _report = self.run_recorded()
        for events in recorder.per_client().values():
            times = [event.time for event in events]
            assert times == sorted(times)

    def test_save_and_load_roundtrip(self, tmp_path):
        recorder, _report = self.run_recorded(files=50)
        path = recorder.save(tmp_path / "run.jsonl")
        loaded = TraceRecorder.load(path)
        assert loaded.events == recorder.events

    def test_replay_against_another_balancer(self):
        """The paper's methodology: same ops, different strategy."""
        recorder, original = self.run_recorded(files=300)
        replay_workload = recorder.to_workload()

        from repro.core.policies import greedy_spill_policy
        replay = run_experiment(
            make_config(num_mds=2, seed=99),
            replay_workload,
            policy=greedy_spill_policy(),
        )
        assert replay.total_ops == original.total_ops

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder().to_workload()

    def test_tap_uninstalls_after_run(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        record_run(cluster, CreateWorkload(num_clients=2,
                                           files_per_client=20))
        assert cluster.reply_tap is None

    def test_no_class_attribute_changes_during_run(self):
        from repro.clients.client import Client
        from repro.mds.server import MdsServer

        classes = (Client, MdsServer, SimulatedCluster)
        before = [dict(vars(cls)) for cls in classes]
        seen = []
        cluster = SimulatedCluster(make_config(num_mds=1))
        # Mid-run (the run lasts far longer than this), compare classes.
        cluster.engine.schedule(0.01, lambda: seen.append(
            [dict(vars(cls)) for cls in classes]))
        recorder, _report = record_run(
            cluster, CreateWorkload(num_clients=2, files_per_client=200))
        assert recorder.events
        assert seen == [before]

    def test_other_cluster_run_is_not_recorded(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        other_reports = []

        def run_other() -> None:
            other = SimulatedCluster(make_config(num_mds=1, seed=3))
            other_reports.append(other.run_workload(
                CreateWorkload(num_clients=3, files_per_client=30)))

        # A second cluster runs to completion in the middle of the
        # recorded run, in the same process.
        cluster.engine.schedule(0.01, run_other)
        recorder, report = record_run(
            cluster, CreateWorkload(num_clients=2, files_per_client=200))
        assert other_reports[0].total_ops == 3 * 31
        assert len(recorder.events) == report.total_ops == 2 * 201
        assert {event.client_id for event in recorder.events} == {0, 1}
        # And a run after the recorded one is not recorded either.
        SimulatedCluster(make_config(num_mds=1)).run_workload(
            CreateWorkload(num_clients=2, files_per_client=30))
        assert len(recorder.events) == 2 * 201


class TestCheckpointWorkload:
    def test_op_structure(self):
        workload = CheckpointWorkload(num_clients=2, rounds=3,
                                      files_per_round=50)
        ops = list(workload.client_ops(0))
        kinds = [k for k, _p in ops]
        assert kinds.count(OpKind.CREATE) == 150
        assert OpKind.STAT in kinds  # verification of earlier rounds
        assert len(ops) == workload.total_ops() // 2

    def test_round_directories_shared_across_clients(self):
        workload = CheckpointWorkload(num_clients=3, rounds=2,
                                      files_per_round=10)
        dirs0 = {p.rsplit("/", 1)[0] for k, p in workload.client_ops(0)
                 if k is OpKind.CREATE}
        dirs1 = {p.rsplit("/", 1)[0] for k, p in workload.client_ops(1)
                 if k is OpKind.CREATE}
        assert dirs0 == dirs1  # everyone checkpoints into the same dirs

    def test_verification_reads_previous_round(self):
        workload = CheckpointWorkload(num_clients=1, rounds=2,
                                      files_per_round=20)
        ops = list(workload.client_ops(0))
        stats = [p for k, p in ops if k is OpKind.STAT]
        assert all("round0000" in p for p in stats)

    def test_runs_end_to_end(self):
        workload = CheckpointWorkload(num_clients=2, rounds=2,
                                      files_per_round=100)
        report = run_experiment(make_config(num_mds=2), workload)
        assert report.total_ops == workload.total_ops()

    def test_no_verify_mode(self):
        workload = CheckpointWorkload(num_clients=1, rounds=2,
                                      files_per_round=10, verify=False)
        kinds = {k for k, _p in workload.client_ops(0)}
        assert kinds == {OpKind.CREATE}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CheckpointWorkload(num_clients=0)
        with pytest.raises(ValueError):
            CheckpointWorkload(num_clients=1, rounds=0)


class TestHashPartition:
    def test_pins_every_top_level_dir(self):
        cluster = SimulatedCluster(make_config(num_mds=3))
        for name in ("a", "b", "c", "d", "e"):
            cluster.namespace.mkdirs(f"/{name}")
        pinned = cluster.hash_partition(depth=1)
        assert pinned == 5
        auths = {cluster.namespace.resolve_dir(f"/{n}").authority()
                 for n in "abcde"}
        assert len(auths) >= 2  # actually spread

    def test_deterministic(self):
        def auth_map():
            cluster = SimulatedCluster(make_config(num_mds=3))
            for name in ("a", "b", "c"):
                cluster.namespace.mkdirs(f"/{name}")
            cluster.hash_partition(depth=1)
            return {n: cluster.namespace.resolve_dir(f"/{n}").authority()
                    for n in "abc"}

        assert auth_map() == auth_map()

    def test_hashing_destroys_locality_for_one_client(self):
        """The paper's §2.1/§5 argument: hashing balances but a single
        client's traffic now crosses ranks."""
        config = make_config(num_mds=3, num_clients=1)
        workload = CreateWorkload(num_clients=1, files_per_client=100)

        local = SimulatedCluster(config)
        local_report = local.run_workload(workload)

        hashed = SimulatedCluster(make_config(num_mds=3, num_clients=1))
        # Pre-create the client dir so it can be hash-pinned.
        hashed.namespace.mkdirs("/work/client0")
        hashed.hash_partition(depth=2)
        hashed_report = hashed.run_workload(
            CreateWorkload(num_clients=1, files_per_client=100))
        served_ranks = {rank for rank, ops in
                        hashed_report.per_mds_ops().items() if ops > 0}
        # With hashing the single client may land anywhere; with subtree
        # locality it stays on rank 0.
        local_ranks = {rank for rank, ops in
                       local_report.per_mds_ops().items() if ops > 0}
        assert local_ranks == {0}
        assert served_ranks  # sanity
