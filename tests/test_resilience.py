"""Resilience subsystem: journal, campaigns, failover scenarios."""

import json

import pytest

from repro.errors import RemoteMemoryError
from repro.mem import MIB
from repro.resilience import (
    CAMPAIGN_PARAMS,
    Brownout,
    CampaignParamError,
    LinkFlap,
    LinkKill,
    ResilientBuffer,
    UnknownCampaignError,
    WriteJournal,
    campaign_catalogue,
    ensure_injector,
    make_campaign,
    make_rest_fault_hook,
    run_scenario,
    validate_campaign_params,
)
from repro.resilience.scenarios import _build_rack
from repro.testbed import RackTestbed


class TestWriteJournal:
    def test_records_and_replays(self):
        journal = WriteJournal(64)
        journal.record(0, b"abcd")
        journal.record(10, b"xyz")
        plan = list(journal.replay_plan())
        assert plan == [(0, b"abcd"), (10, b"xyz")]
        assert journal.dirty_bytes == 7

    def test_overlapping_writes_merge(self):
        journal = WriteJournal(64)
        journal.record(0, b"aaaa")
        journal.record(2, b"bbbb")
        journal.record(6, b"cc")  # touching: [2,6) then [6,8)
        assert journal.intervals() == [(0, 8)]
        assert list(journal.replay_plan()) == [(0, b"aabbbbcc")]

    def test_last_write_wins(self):
        journal = WriteJournal(16)
        journal.record(0, b"oldoldold")
        journal.record(3, b"NEW")
        assert list(journal.replay_plan()) == [(0, b"oldNEWold")]

    def test_disjoint_intervals_stay_separate(self):
        journal = WriteJournal(100)
        journal.record(50, b"z")
        journal.record(0, b"a")
        assert journal.intervals() == [(0, 1), (50, 51)]

    def test_bounds_checked(self):
        journal = WriteJournal(8)
        with pytest.raises(ValueError):
            journal.record(6, b"toolong")
        with pytest.raises(ValueError):
            journal.record(-1, b"x")


class TestCampaigns:
    def test_catalogue_round_trip(self):
        campaign = make_campaign("link-flap", at_s=1e-6,
                                 duration_s=2e-6)
        assert isinstance(campaign, LinkFlap)
        assert campaign.describe()["duration_s"] == 2e-6

    def test_unknown_campaign(self):
        with pytest.raises(UnknownCampaignError) as info:
            make_campaign("meteor-strike")
        assert info.value.code == "resilience/unknown-campaign"

    def test_bad_params_rejected(self):
        with pytest.raises(UnknownCampaignError):
            make_campaign("link-kill", wavelength_nm=1550)

    def test_link_kill_arms_through_sim_clock(self):
        rack = RackTestbed(nodes=2, channels_per_node=1)
        injectors = [
            ensure_injector(link) for link in rack.links_of("node1")
        ]
        LinkKill(at_s=5e-6).arm(rack.sim, injectors)
        assert not any(i.down for i in injectors)
        rack.sim.run(until=10e-6)
        assert all(i.down for i in injectors)

    def test_brownout_restores_previous_probability(self):
        rack = RackTestbed(nodes=2, channels_per_node=1)
        injector = ensure_injector(rack.links_of("node1")[0])
        Brownout(at_s=0.0, duration_s=5e-6,
                 drop_probability=0.5).arm(rack.sim, [injector])
        rack.sim.run(until=1e-6)
        assert injector.drop_probability == 0.5
        rack.sim.run(until=10e-6)
        assert injector.drop_probability == 0.0

    def test_ensure_injector_is_idempotent(self):
        rack = RackTestbed(nodes=2, channels_per_node=1)
        link = rack.links_of("node0")[0]
        first = ensure_injector(link)
        assert ensure_injector(link) is first


class TestResilientBuffer:
    def test_quarantined_buffer_refuses_io(self):
        rack = RackTestbed(nodes=2, channels_per_node=1)
        attachment = rack.attach("node0", 1 << 21, memory_host="node1")
        buffer = ResilientBuffer.attach_buffer(rack, attachment,
                                               size=4096)
        buffer.write(0, b"live")
        buffer.quarantine()
        with pytest.raises(RemoteMemoryError) as info:
            buffer.write(0, b"dead")
        assert info.value.code == "memory/quarantined"
        with pytest.raises(RemoteMemoryError):
            buffer.read(0, 4)
        buffer.quarantine()  # idempotent


class TestLinkKillFailover:
    """The acceptance-criteria scenario (§ISSUE): seeded link kill."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("link-kill-failover", seed=7)

    def test_buffer_bytes_identical_after_failover(self, result):
        assert result["verified"] is True

    def test_failed_over_to_surviving_lender(self, result):
        report = result["report"]
        assert report["old_memory_host"] == "node1"
        assert report["new_memory_host"] == "node2"
        assert report["replayed_bytes"] > 0

    def test_recovery_time_bounded(self, result):
        # From the metrics registry: detection + detach + re-plan +
        # re-attach + replay must land within one millisecond of sim
        # time (measured ~100 us).
        recovery = result["metrics"][
            "health.last_recovery_time_s{component=health}"
        ]
        assert 0.0 < recovery < 1e-3
        assert recovery == result["report"]["recovery_time_s"]

    def test_no_hung_processes(self, result):
        # The post-failover drain ran to queue exhaustion without
        # tripping the engine's max_events guard.
        assert result["drained_at_s"] >= result["report"][
            "recovery_time_s"
        ]

    def test_health_metrics_recorded(self, result):
        metrics = result["metrics"]
        assert metrics["health.failovers{component=health}"] == 1
        assert (
            metrics["health.failures_observed{component=health}"] >= 1
        )
        assert result["health"]["status"] == "ok"

    def test_identical_seed_identical_snapshot(self, result):
        again = run_scenario("link-kill-failover", seed=7)
        assert json.dumps(again, sort_keys=True) == json.dumps(
            result, sort_keys=True
        )


class TestNonFatalScenarios:
    def test_link_flap_rides_out_on_retries(self):
        result = run_scenario("link-flap", seed=7)
        assert result["verified"] is True
        assert result["failovers"] == 0
        assert result["endpoint_retries"] > 0

    def test_brownout_absorbed_by_replay(self):
        result = run_scenario("brownout", seed=7)
        assert result["verified"] is True
        assert result["failovers"] == 0
        assert result["frames_dropped"] > 0

    def test_unknown_scenario_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            run_scenario("disk-fire", seed=1)


class TestEndpointRetryPath:
    def test_retries_use_fresh_txn_ids(self):
        """A retried transaction must not collide with its late replay."""
        rack, attachment, buffer, monitor, registry = _build_rack(3)
        endpoint = rack.node("node0").device.compute
        LinkFlap(at_s=2e-6, duration_s=50e-6).arm(
            rack.sim,
            [ensure_injector(l) for l in rack.links_of("node1")],
        )
        data = bytes(range(256)) * 64
        buffer.write(0, data)
        assert buffer.read(0, len(data)) == data
        assert endpoint.retries > 0
        # Retry bookkeeping: every retry burst was first a timeout.
        assert endpoint.timeouts >= endpoint.retries
        assert endpoint.retries_exhausted == 0


# -- campaign param-spec table ---------------------------------------------------


class TestCampaignParamTable:
    def test_every_campaign_has_a_schema(self):
        from repro.resilience import CAMPAIGNS

        assert set(CAMPAIGN_PARAMS) == set(CAMPAIGNS)

    def test_catalogue_is_sorted_and_described(self):
        catalogue = campaign_catalogue()
        names = [entry["name"] for entry in catalogue]
        assert names == sorted(CAMPAIGN_PARAMS)
        brownout = next(e for e in catalogue if e["name"] == "brownout")
        assert brownout["doc"]
        params = {p["name"]: p for p in brownout["params"]}
        assert params["drop_probability"]["maximum"] == 1.0
        assert "doc" in params["at_s"]

    def test_unknown_campaign_is_distinct_from_bad_params(self):
        with pytest.raises(UnknownCampaignError) as info:
            validate_campaign_params("meteor-strike", {})
        assert info.value.code == "resilience/unknown-campaign"
        with pytest.raises(CampaignParamError) as info:
            validate_campaign_params("link-kill", {"duration_s": 1.0})
        assert info.value.code == "resilience/bad-campaign-params"
        # The param error still is an UnknownCampaignError subclass, so
        # pre-existing catch-all callers keep working.
        assert isinstance(info.value, UnknownCampaignError)

    def test_out_of_range_and_mistyped_values(self):
        with pytest.raises(CampaignParamError, match="outside"):
            validate_campaign_params(
                "brownout", {"drop_probability": 1.5}
            )
        with pytest.raises(CampaignParamError, match="number"):
            validate_campaign_params("link-flap", {"duration_s": "soon"})
        with pytest.raises(CampaignParamError):
            validate_campaign_params("link-kill", {"at_s": True})

    def test_validated_params_are_float_coerced(self):
        out = validate_campaign_params("link-flap", {"at_s": 1})
        assert out == {"at_s": 1.0}
        assert isinstance(out["at_s"], float)

    def test_make_campaign_validates_through_the_table(self):
        with pytest.raises(CampaignParamError):
            make_campaign("brownout", drop_probability=2.0)
        campaign = make_campaign("brownout", drop_probability=0.4)
        assert campaign.drop_probability == 0.4


class TestFaultCatalogueRoute:
    def _rack(self):
        from repro.testbed import RackTestbed

        return RackTestbed(nodes=2, channels_per_node=1)

    def test_get_faults_serves_the_catalogue(self):
        from repro.control import RestApi

        rack = self._rack()
        api = RestApi(rack.plane)
        status, body = api.handle(
            "GET", "/v1/faults", token=rack.admin_token
        )
        assert status == 200
        assert body["campaigns"] == campaign_catalogue()

    def test_get_faults_requires_read_permission(self):
        from repro.control import RestApi

        rack = self._rack()
        status, body = RestApi(rack.plane).handle(
            "GET", "/v1/faults", token=None
        )
        assert status == 401

    def test_bad_params_map_to_400_with_sharp_slug(self):
        from repro.control import RestApi

        rack = self._rack()
        attachment = rack.attach("node0", 2 * MIB, memory_host="node1")
        api = RestApi(rack.plane, fault_hook=make_rest_fault_hook(rack))
        status, body = api.handle(
            "POST",
            "/v1/faults",
            body={
                "campaign": "brownout",
                "attachment": attachment.attachment_id,
                "drop_probability": 7.0,
            },
            token=rack.admin_token,
        )
        assert status == 400
        assert body["code"] == "resilience/bad-campaign-params"


# -- RNG-stream hygiene ----------------------------------------------------------


class TestFaultHookRngHygiene:
    def test_identical_posts_never_reuse_a_stream(self):
        from repro.control import RestApi
        from repro.testbed import RackTestbed

        rack = RackTestbed(nodes=2, channels_per_node=1)
        attachment = rack.attach("node0", 2 * MIB, memory_host="node1")
        api = RestApi(rack.plane, fault_hook=make_rest_fault_hook(rack))
        body = {
            "campaign": "brownout",
            "attachment": attachment.attachment_id,
            "at_s": 1e-6,
            "duration_s": 2e-6,
            "drop_probability": 0.5,
        }
        responses = []
        labels = []
        for _ in range(2):
            status, reply = api.handle(
                "POST", "/v1/faults", body=dict(body),
                token=rack.admin_token,
            )
            assert status == 202
            responses.append(reply)
            labels.append([
                link.faults.rng.label
                for link in rack.links_of("node1")
            ])
        assert responses[0]["call_index"] == 0
        assert responses[1]["call_index"] == 1
        assert responses[0]["rng_stream"] != responses[1]["rng_stream"]
        # The second POST reseeded every injector with a fresh stream.
        assert set(labels[0]).isdisjoint(labels[1])

    def test_hook_streams_derive_from_the_hook_seed(self):
        from repro.control import RestApi
        from repro.testbed import RackTestbed

        streams = []
        for _ in range(2):
            rack = RackTestbed(nodes=2, channels_per_node=1)
            attachment = rack.attach("node0", 2 * MIB, memory_host="node1")
            api = RestApi(
                rack.plane, fault_hook=make_rest_fault_hook(rack, seed=9)
            )
            _, reply = api.handle(
                "POST",
                "/v1/faults",
                body={
                    "campaign": "link-kill",
                    "attachment": attachment.attachment_id,
                },
                token=rack.admin_token,
            )
            streams.append(reply["rng_stream"])
        assert streams[0] == streams[1]  # deterministic per hook seed
