"""Multi-rack trace replay (``repro.cluster.topology``/``replay``).

Config validation, the rack pool's best-fit placement, one rack domain
on its own, and checks on the BUSY replay: it must cover every
placement class and message kind (grants AND denials, disruption under
chaos), its merged journal must be valid and in order, and its seed
must matter. The golden manifest (``test_golden.py``) pins the bytes of
the BUSY replay's artifacts and of the CLI's 4-rack chaos replay.
"""

import json

import pytest

from repro.cluster import (
    ClusterConfig,
    RackPool,
    build_rack_domain,
    cluster_trace_events,
    machines_in_rack,
    run_cluster,
    write_artifacts,
)
from repro.cluster import topology
from repro.mem import MIB
from repro.obs import MetricsRegistry, validate_event_jsonl

#: Small but busy: pool contention, denials, inter-rack borrowing.
BUSY = dict(
    racks=3,
    nodes_per_rack=4,
    machines=24,
    tasks=400,
    local_memory_fraction=0.1,
    node_dram_bytes=16 * MIB,
    overflow_unit_bytes=32 * MIB,
    export_fraction=0.5,
    seed=7,
)


def canonical(artifact):
    return json.dumps(artifact, sort_keys=True)


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(racks=0)
        with pytest.raises(ValueError):
            ClusterConfig(nodes_per_rack=1)
        with pytest.raises(ValueError):
            ClusterConfig(local_memory_fraction=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(inter_rack_latency=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(export_fraction=1.5)

    def test_machine_split_covers_cluster(self):
        config = ClusterConfig(racks=3, machines=25)
        shares = [machines_in_rack(config, rack) for rack in range(3)]
        assert sum(shares) == 25
        assert max(shares) - min(shares) <= 1

    def test_describe_is_json_round_trippable(self):
        config = ClusterConfig()
        assert json.loads(json.dumps(config.describe())) == config.describe()


class TestRackPool:
    def test_best_fit_prefers_tightest_machine(self):
        pool = RackPool(2, local_memory_fraction=1.0)
        assert pool.place(0.6, 0.1) == 0
        # 0.4 free on machine 0 is the tighter fit for a 0.3 task.
        assert pool.place(0.3, 0.1) == 0
        assert pool.place(0.8, 0.1) == 1

    def test_rejects_when_nothing_fits(self):
        pool = RackPool(1, local_memory_fraction=0.5)
        assert pool.place(0.9, 0.5) == 0
        assert pool.place(0.2, 0.1) is None
        pool.release(0, 0.9, 0.5)
        assert pool.place(0.2, 0.1) == 0

    def test_memory_constrains_placement(self):
        pool = RackPool(1, local_memory_fraction=0.1)
        assert pool.place(0.1, 0.1) == 0
        # CPU is free but local memory is exhausted.
        assert pool.place(0.1, 0.05) is None

    def test_empty_pool_places_nothing(self):
        pool = RackPool(0, local_memory_fraction=0.1)
        assert pool.place(0.1, 0.05) is None
        assert pool.cpu_used() == 0.0


class TestRackDomain:
    def test_single_rack_strands_nothing_remote(self):
        config = ClusterConfig(racks=1, machines=8, tasks=120, seed=11,
                               **{k: v for k, v in BUSY.items()
                                  if k not in ("racks", "machines",
                                               "tasks", "seed")})
        events, horizon = cluster_trace_events(config)
        domain = build_rack_domain(0, config, events, horizon)
        outbox = domain.advance(domain.horizon + 100.0, [])
        assert outbox == []  # nowhere to borrow from
        artifact = domain.finalize()
        classes = artifact["stats"]["classes"]
        assert classes["remote_pool"] == 0
        assert sum(classes.values()) == artifact["stats"]["tasks"]

    def test_tenant_stats_partition_the_tasks(self):
        config = ClusterConfig(**BUSY)
        artifact, _ = run_cluster(config)
        for rack in artifact["racks"]:
            stats = rack["stats"]
            per_tenant = sum(
                sum(classes.values())
                for classes in stats["tenants"].values()
            )
            assert per_tenant == stats["tasks"]


class TestBusyReplay:
    """Coverage, journal and seed checks on the BUSY replay."""

    def test_behavior_space_is_actually_covered(self):
        """Guard the tuning: the BUSY run must exercise every class and
        both grant and deny paths, or its golden digests (producer
        ``busy_replay`` in the manifest) pin less than they claim."""
        plain, _ = run_cluster(ClusterConfig(**BUSY))
        counters = plain["summary"]["counters"]
        assert plain["summary"]["classes"]["local"] > 0
        assert plain["summary"]["classes"]["rack_pool"] > 0
        assert counters["leases"] > 0
        assert counters["lease_denials"] > 0
        assert counters["borrow_sent"] > 0
        assert counters["grants_issued"] > 0
        assert counters["denials_issued"] > 0
        assert plain["messages"] > 0

        chaotic, _ = run_cluster(ClusterConfig(chaos=True, **BUSY))
        assert chaotic["summary"]["counters"]["disrupted_leases"] > 0
        kinds = {record["kind"] for record in chaotic["journal"]}
        assert "cluster.lender_crash" in kinds

    def test_journal_is_merged_and_valid(self):
        artifact, _ = run_cluster(ClusterConfig(**BUSY))
        journal = artifact["journal"]
        text = "\n".join(json.dumps(r, sort_keys=True) for r in journal)
        assert validate_event_jsonl(text + "\n") == len(journal)
        domains = {record["domain"] for record in journal}
        assert domains == {"rack0", "rack1", "rack2"}
        # Stable merge order: (t, domain, domain_seq).
        keys = [(r["t"], r["domain"], r["domain_seq"]) for r in journal]
        assert keys == sorted(keys)

    def test_seed_changes_the_artifact(self):
        base, _ = run_cluster(ClusterConfig(**BUSY))
        other_cfg = dict(BUSY)
        other_cfg["seed"] = 8
        other, _ = run_cluster(ClusterConfig(**other_cfg))
        assert canonical(base) != canonical(other)


class TestArtifacts:
    def test_write_artifacts_round_trip(self, tmp_path):
        artifact, _ = run_cluster(ClusterConfig(**BUSY))
        paths = write_artifacts(artifact, str(tmp_path))
        summary = json.loads(open(paths["summary"]).read())
        assert "journal" not in summary
        assert summary["summary"] == artifact["summary"]
        journal_text = open(paths["journal"]).read()
        assert validate_event_jsonl(journal_text) == len(artifact["journal"])

    def test_registry_merge_tags_domains(self):
        registry = MetricsRegistry("cluster")
        run_cluster(ClusterConfig(**BUSY), registry=registry)
        snapshot = registry.snapshot()
        assert any("domain=rack0" in key for key in snapshot)
        assert any("domain=rack2" in key for key in snapshot)


class TestTraceHorizon:
    def test_horizon_matches_last_event(self):
        config = ClusterConfig(**BUSY)
        events, horizon = cluster_trace_events(config)
        assert horizon == events[-1].time
        assert horizon == max(event.time for event in events)

    def test_sampling_thins_the_shared_trace(self):
        config = ClusterConfig(**BUSY)
        full, _ = cluster_trace_events(config)
        sampled_cfg = dict(BUSY)
        sampled, _ = cluster_trace_events(
            ClusterConfig(sample=0.5, **sampled_cfg)
        )
        assert 0 < len(sampled) < len(full)
        full_ids = {event.task.task_id for event in full}
        assert {event.task.task_id for event in sampled} <= full_ids

    def test_run_cluster_synthesizes_the_trace_once(self, monkeypatch):
        calls = []
        real = topology.synthesize_trace

        def counting(trace_config):
            calls.append(trace_config)
            return real(trace_config)

        monkeypatch.setattr(topology, "synthesize_trace", counting)
        config = ClusterConfig(racks=3, machines=12, tasks=90, seed=5)
        first, _ = run_cluster(config)
        assert len(calls) == 1
        calls.clear()
        second, _ = run_cluster(config)
        assert len(calls) == 1  # no memo carried across runs
        assert canonical(first) == canonical(second)
