"""Unified metrics registry: primitives, collectors, and the key
cross-layer invariant — every forced frame drop surfaced by net.faults
must correspond to one replay request on the LLC replay path.
"""

import json

import pytest

from repro.core import LlcEndpoint
from repro.net import DuplexChannel, FaultInjector, LinkConfig
from repro.obs import (
    MetricsRegistry,
    render_metrics_summary,
    summary_from_snapshot,
    write_metrics_json,
)
from repro.opencapi import MemTransaction
from repro.sim import Simulator


class TestRegistryPrimitives:
    def test_counter_increments_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("bus.loads")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("llc.replays", node="node0").inc(2)
        registry.counter("llc.replays", node="node1").inc(5)
        assert registry.value("llc.replays", node="node0") == 2
        assert registry.value("llc.replays", node="node1") == 5

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        first = registry.gauge("link.utilization", link="ch0")
        second = registry.gauge("link.utilization", link="ch0")
        assert first is second

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("dram.reads")
        with pytest.raises(TypeError):
            registry.gauge("dram.reads")

    def test_gauge_set_and_adjust(self):
        gauge = MetricsRegistry().gauge("outstanding")
        gauge.set(10)
        gauge.adjust(-3)
        assert gauge.value == 7

    def test_histogram_sample_keys(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rtt", low=0.0, high=1.0, bins=4)
        for value in (0.1, 0.3, 0.3, 0.9):
            hist.observe(value)
        snap = registry.snapshot()
        assert snap["rtt.count"] == 4
        assert snap["rtt.mean"] == pytest.approx(0.4)
        # Cumulative buckets: everything below 0.5 is 3 samples.
        assert snap["rtt.bucket_le_0.5"] == 3
        assert snap["rtt.bucket_le_1"] == 4

    def test_collector_pull_model(self):
        registry = MetricsRegistry()
        source = {"served": 0}
        registry.add_collector(
            lambda reg: reg.gauge("endpoint.served").set(source["served"])
        )
        source["served"] = 7
        assert registry.snapshot()["endpoint.served"] == 7

    def test_snapshot_is_sorted_and_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc()
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)

    def test_write_metrics_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("bus.loads", node="node0").inc(5)
        path = tmp_path / "metrics.json"
        write_metrics_json(registry, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["bus.loads{node=node0}"] == 5


class TestHistogramQuantiles:
    def _hist(self, *values, low=0.0, high=1.0, bins=4):
        hist = MetricsRegistry().histogram(
            "q", low=low, high=high, bins=bins
        )
        for value in values:
            hist.observe(value)
        return hist

    def test_quantile_rejects_out_of_range_q(self):
        hist = self._hist(0.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)
        with pytest.raises(ValueError):
            hist.quantile(100.1)

    def test_empty_histogram_quantile_is_zero(self):
        hist = self._hist()
        for q in (0.0, 50.0, 99.9, 100.0):
            assert hist.quantile(q) == 0.0

    def test_single_sample_pins_every_quantile_to_its_bucket(self):
        """Boundary safety: one sample in [0.25, 0.5) keeps p50, p99 and
        p99.9 inside that bucket instead of extrapolating."""
        hist = self._hist(0.3)
        for q in (50.0, 99.0, 99.9):
            assert 0.25 <= hist.quantile(q) < 0.5
        assert hist.quantile(50.0) == pytest.approx(0.375)
        assert hist.quantile(99.9) == pytest.approx(0.49975)

    def test_interpolation_within_a_bucket(self):
        # 4 samples all in [0.0, 0.25): rank q walks linearly across it.
        hist = self._hist(0.1, 0.1, 0.1, 0.1)
        assert hist.quantile(50.0) == pytest.approx(0.125)
        assert hist.quantile(100.0) == pytest.approx(0.25)

    def test_p999_lands_in_the_tail_bucket(self):
        # 999 fast samples, 1 slow one: p99.9 reaches the slow bucket.
        hist = MetricsRegistry().histogram(
            "lat", low=0.0, high=1.0, bins=10
        )
        for _ in range(999):
            hist.observe(0.05)
        hist.observe(0.95)
        assert hist.quantile(50.0) < 0.1
        assert 0.9 <= hist.quantile(99.9) <= 1.0
        assert hist.quantile(99.9) > hist.quantile(99.0)

    def test_underflow_rank_returns_low_bound(self):
        hist = self._hist(-5.0, -5.0, 0.6, low=0.0, high=1.0)
        assert hist.quantile(50.0) == 0.0

    def test_overflow_rank_returns_high_bound(self):
        hist = self._hist(0.1, 9.0, 9.0)
        assert hist.quantile(99.9) == 1.0

    def test_quantiles_are_monotone_in_q(self):
        hist = self._hist(0.05, 0.2, 0.4, 0.6, 0.8, 0.95, bins=8)
        quantiles = [
            hist.quantile(q) for q in (1.0, 25.0, 50.0, 75.0, 99.0, 99.9)
        ]
        assert quantiles == sorted(quantiles)

    def test_snapshot_exports_percentile_keys(self):
        registry = MetricsRegistry()
        hist = registry.histogram("rtt", low=0.0, high=1.0, bins=4)
        hist.observe(0.3)
        snap = registry.snapshot()
        assert snap["rtt.p50"] == pytest.approx(0.375)
        assert snap["rtt.p99"] == pytest.approx(0.4975)
        assert snap["rtt.p999"] == pytest.approx(0.49975)


class TestSummaryRendering:
    def test_snapshot_summary_groups_by_prefix(self):
        snapshot = {
            "bus.loads{node=node0}": 16,
            "bus.stores{node=node0}": 4,
            "llc.replays_requested{node=node0}": 0,
        }
        text = summary_from_snapshot(
            "end-of-run", snapshot, skip_zero=True
        ).render()
        assert "bus.loads{node=node0}" in text
        assert "16" in text
        assert "replays_requested" not in text  # zero rows skipped

    def test_render_metrics_summary_from_registry(self):
        registry = MetricsRegistry()
        registry.counter("dram.reads", node="node1").inc(9)
        text = render_metrics_summary(registry, "run")
        assert "dram.reads{node=node1}" in text
        assert "9" in text


def make_pair(faults_ab=None):
    """Bare LLC pair over one duplex channel, keeping the channel."""
    sim = Simulator()
    channel = DuplexChannel(sim, LinkConfig(), faults_ab=faults_ab)
    a = LlcEndpoint(sim, channel.endpoint_view("a"), name="a")
    b = LlcEndpoint(sim, channel.endpoint_view("b"), name="b")
    return sim, channel, a, b


def pump(sim, source, sink, count):
    def sender():
        for index in range(count):
            txn = MemTransaction.write(index * 128, bytes([index % 251]) * 128)
            waiting = source.submit(txn)
            if waiting is not None:
                yield waiting

    received = []
    sink.set_receiver(received.append)
    sim.process(sender(), name="sender")
    sim.run(until=sim.now + 1.0)
    assert len(received) == count, "receiver did not get every transaction"
    return received


class TestFaultAccountingMatchesReplays:
    def test_drops_equal_replays_requested(self):
        """Acceptance: net.faults drop count == LLC replays triggered.

        Each forced drop is spaced out with clean traffic so the gap it
        opens is detected (and replayed) before the next one — otherwise
        consecutive drops would coalesce into a single replay request.
        """
        injector = FaultInjector()
        sim, channel, a, b = make_pair(faults_ab=injector)
        for _ in range(3):
            injector.force_drop_next(1)
            pump(sim, a, b, 5)

        registry = MetricsRegistry()
        channel.a_to_b.register_metrics(registry, direction="ab")
        a.register_metrics(registry, node="a")
        b.register_metrics(registry, node="b")
        registry.snapshot()
        wire = {"direction": "ab", "link": "channel.ab"}

        dropped = registry.value("net.faults.frames_dropped", **wire)
        assert dropped == 3
        assert (
            registry.value("llc.replays_requested", llc="b", node="b")
            == dropped
        )
        # Go-back-N: one request replays every frame from the gap on,
        # so the sender serves at least one frame per request.
        assert (
            registry.value("llc.replays_served", llc="a", node="a") >= dropped
        )
        assert registry.value("net.faults.forced_drops", **wire) == 3
        assert registry.value("net.faults.random_drops", **wire) == 0

    def test_corruptions_surface_and_trigger_replays(self):
        injector = FaultInjector()
        sim, channel, a, b = make_pair(faults_ab=injector)
        for _ in range(2):
            injector.force_corrupt_next(1)
            pump(sim, a, b, 5)

        registry = MetricsRegistry()
        channel.a_to_b.register_metrics(registry, direction="ab")
        b.register_metrics(registry, node="b")
        registry.snapshot()
        wire = {"direction": "ab", "link": "channel.ab"}

        corrupted = registry.value("net.faults.frames_corrupted", **wire)
        assert corrupted == 2
        assert (
            registry.value("llc.frames_corrupted", llc="b", node="b")
            == corrupted
        )
        assert (
            registry.value("llc.replays_requested", llc="b", node="b")
            >= corrupted
        )

    def test_fault_count_is_drop_plus_corrupt(self):
        injector = FaultInjector()
        sim, channel, a, b = make_pair(faults_ab=injector)
        injector.force_drop_next(1)
        pump(sim, a, b, 5)
        injector.force_corrupt_next(1)
        pump(sim, a, b, 5)

        breakdown = injector.breakdown()
        assert breakdown["frames_dropped"] == 1
        assert breakdown["frames_corrupted"] == 1
        assert breakdown["fault_count"] == 2
        assert breakdown["forced_drops"] == 1
        assert breakdown["forced_corruptions"] == 1
        assert breakdown["frames_seen"] > 2

    def test_clean_wire_reports_zero_faults(self):
        injector = FaultInjector()
        sim, channel, a, b = make_pair(faults_ab=injector)
        pump(sim, a, b, 10)
        registry = MetricsRegistry()
        channel.a_to_b.register_metrics(registry, direction="ab")
        registry.snapshot()
        wire = {"direction": "ab", "link": "channel.ab"}
        assert registry.value("net.faults.fault_count", **wire) == 0
        assert registry.value("net.faults.frames_seen", **wire) > 0


class TestEndToEndRegistration:
    def test_testbed_registers_whole_stack(self):
        from repro.mem import MIB
        from repro.testbed import Testbed

        testbed = Testbed()
        attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
        window = testbed.remote_window_range(attachment)
        payload = bytes(range(128))
        testbed.node0.run_store(window.start, payload)
        assert testbed.node0.run_load(window.start) == payload

        registry = MetricsRegistry()
        testbed.register_observability(registry)
        snap = registry.snapshot()

        assert registry.value("bus.loads", bus="node0.bus", node="node0") >= 1
        assert registry.value("bus.stores", bus="node0.bus", node="node0") >= 1
        assert (
            registry.value(
                "rmmu.translations", node="node0", rmmu="node0.tf.rmmu"
            )
            >= 2
        )
        assert (
            registry.value("dram.writes", device="node1.dram", node="node1")
            >= 1
        )
        assert (
            registry.value(
                "endpoint.requests",
                endpoint="node0.tf.compute",
                node="node0",
            )
            >= 2
        )
        assert (
            registry.value(
                "endpoint.served", endpoint="node1.tf.memory", node="node1"
            )
            >= 2
        )
        # Both directions of channel 0 carried frames.
        sent_keys = [
            key
            for key in snap
            if key.startswith("link.frames_sent") and snap[key] > 0
        ]
        assert len(sent_keys) >= 2

    def test_loads_stores_mix_per_node(self):
        from repro.mem import MIB
        from repro.testbed import Testbed

        testbed = Testbed()
        attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
        window = testbed.remote_window_range(attachment)
        testbed.node0.run_store(window.start, bytes(128))
        for _ in range(4):
            testbed.node0.run_load(window.start)

        registry = MetricsRegistry()
        testbed.register_observability(registry)
        registry.snapshot()
        assert registry.value("bus.loads", bus="node0.bus", node="node0") == 4
        assert registry.value("bus.stores", bus="node0.bus", node="node0") == 1
