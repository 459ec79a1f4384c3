"""Unit tests for the OpenCAPI layer (bus, ports, PASID, MMIO) and the
network substrate (links, faults, CRC, circuit switch)."""

import pytest

from repro.mem import AddressRange, DramDevice, DramTiming, MIB
from repro.net import (
    AURORA_OVERHEAD,
    CircuitSwitch,
    DuplexChannel,
    FaultInjector,
    LinkConfig,
    SerialLink,
    SwitchError,
    check,
    crc32,
    frame_digest_bytes,
)
from repro.opencapi import (
    BusError,
    MemTransaction,
    MmioError,
    MmioRegisterFile,
    OpenCapiC1Port,
    OpenCapiM1Port,
    PasidError,
    PasidRegistry,
    ResponseCode,
    SystemBus,
)
from repro.sim import Simulator


def make_bus_with_dram(sim, size=4 * MIB):
    bus = SystemBus(sim)
    dram = DramDevice(sim, AddressRange(0, size), timing=DramTiming())
    bus.attach_dram(dram)
    return bus, dram


class TestSystemBus:
    def test_load_store_roundtrip(self):
        sim = Simulator()
        bus, _dram = make_bus_with_dram(sim)

        def proc():
            yield bus.store(0x100, b"\x11" * 128)
            data = yield bus.load(0x100, 128)
            return data

        assert sim.run_process(proc()) == b"\x11" * 128

    def test_unmapped_address_raises(self):
        sim = Simulator()
        bus, _dram = make_bus_with_dram(sim)
        with pytest.raises(BusError, match="no target"):
            bus.target_for(0x1000_0000, 128)

    def test_straddling_access_rejected(self):
        sim = Simulator()
        bus = SystemBus(sim)
        dram = DramDevice(sim, AddressRange(0, 1 * MIB))
        bus.attach_dram(dram)
        with pytest.raises(BusError, match="straddles"):
            bus.target_for(1 * MIB - 64, 128)

    def test_overlapping_windows_rejected(self):
        sim = Simulator()
        bus, _dram = make_bus_with_dram(sim)
        other = DramDevice(sim, AddressRange(2 * MIB, 4 * MIB))
        with pytest.raises(BusError, match="overlaps"):
            bus.attach_dram(other)

    def test_detach_window(self):
        sim = Simulator()
        bus, dram = make_bus_with_dram(sim)
        bus.detach(dram.window)
        with pytest.raises(BusError):
            bus.target_for(0x0, 128)
        with pytest.raises(BusError):
            bus.detach(dram.window)

    def test_counters(self):
        sim = Simulator()
        bus, _dram = make_bus_with_dram(sim)

        def proc():
            yield bus.store(0, bytes(128))
            yield bus.load(0, 128)

        sim.run_process(proc())
        assert bus.loads == 1 and bus.stores == 1


class TestPasidRegistry:
    def test_register_and_check(self):
        registry = PasidRegistry()
        entry = registry.register("proc")
        registry.add_window(entry.pasid, AddressRange(0x1000, 0x1000))
        registry.check_access(entry.pasid, 0x1800, 128)  # no raise

    def test_access_outside_window_denied(self):
        registry = PasidRegistry()
        entry = registry.register("proc")
        registry.add_window(entry.pasid, AddressRange(0x1000, 0x1000))
        with pytest.raises(PasidError):
            registry.check_access(entry.pasid, 0x2000, 128)

    def test_access_without_pasid_denied(self):
        registry = PasidRegistry()
        with pytest.raises(PasidError):
            registry.check_access(None, 0x0, 128)

    def test_unknown_pasid_denied(self):
        with pytest.raises(PasidError):
            PasidRegistry().check_access(99, 0x0, 128)

    def test_multiple_windows(self):
        registry = PasidRegistry()
        entry = registry.register("proc")
        registry.add_window(entry.pasid, AddressRange(0x0, 0x100))
        registry.add_window(entry.pasid, AddressRange(0x1000, 0x100))
        registry.check_access(entry.pasid, 0x1000, 64)
        registry.remove_window(entry.pasid, AddressRange(0x1000, 0x100))
        with pytest.raises(PasidError):
            registry.check_access(entry.pasid, 0x1000, 64)

    def test_unregister(self):
        registry = PasidRegistry()
        entry = registry.register("proc")
        registry.unregister(entry.pasid)
        assert len(registry) == 0
        with pytest.raises(PasidError):
            registry.lookup(entry.pasid)

    def test_table_capacity(self):
        registry = PasidRegistry(max_entries=1)
        registry.register("a")
        with pytest.raises(PasidError):
            registry.register("b")


class TestC1Port:
    def test_master_into_authorized_window(self):
        sim = Simulator()
        bus, dram = make_bus_with_dram(sim)
        registry = PasidRegistry()
        entry = registry.register("stealer")
        registry.add_window(entry.pasid, AddressRange(0x0, 1 * MIB))
        port = OpenCapiC1Port(sim, bus, registry)
        txn = MemTransaction.write(0x100, b"\x22" * 128)
        txn.pasid = entry.pasid

        assert port.admit(txn) is None
        response = sim.run_process(port.complete(txn))
        assert response.response_code is ResponseCode.OK
        assert dram.read_now(0x100, 128) == b"\x22" * 128
        assert port.mastered == 1 and port.denied == 0
        # The bus access, then one host-link crossing back.
        assert sim.now > port.crossing_latency_s

    def test_master_denied_becomes_bus_response(self):
        sim = Simulator()
        bus, _dram = make_bus_with_dram(sim)
        registry = PasidRegistry()
        entry = registry.register("stealer")  # no window pinned
        port = OpenCapiC1Port(sim, bus, registry)
        txn = MemTransaction.read(0x0)
        txn.pasid = entry.pasid

        response = port.admit(txn)
        assert response.response_code is ResponseCode.ACCESS_DENIED
        assert port.denied == 1 and port.mastered == 0
        # A denied access never reaches the bus or the simulated clock.
        assert sim.now == 0.0


class TestMmio:
    def test_define_read_write(self):
        mmio = MmioRegisterFile()
        mmio.define("CTRL", 0x0, initial=5)
        assert mmio.read(0x0) == 5
        mmio.write(0x0, 9)
        assert mmio.read_named("CTRL") == 9

    def test_readonly_register(self):
        mmio = MmioRegisterFile()
        mmio.define("STATUS", 0x8, readonly=True, on_read=lambda: 42)
        assert mmio.read(0x8) == 42
        with pytest.raises(MmioError):
            mmio.write(0x8, 1)

    def test_write_side_effect(self):
        seen = []
        mmio = MmioRegisterFile()
        mmio.define("DOORBELL", 0x0, on_write=seen.append)
        mmio.write_named("DOORBELL", 7)
        assert seen == [7]

    def test_value_masked_to_64_bits(self):
        mmio = MmioRegisterFile()
        mmio.define("REG", 0x0)
        mmio.write(0x0, 1 << 70)
        assert mmio.read(0x0) == 0

    def test_unaligned_access_rejected(self):
        mmio = MmioRegisterFile()
        mmio.define("REG", 0x0)
        with pytest.raises(MmioError):
            mmio.read(0x4)

    def test_duplicate_definitions_rejected(self):
        mmio = MmioRegisterFile()
        mmio.define("A", 0x0)
        with pytest.raises(MmioError):
            mmio.define("B", 0x0)
        with pytest.raises(MmioError):
            mmio.define("A", 0x8)

    def test_unknown_offset_and_name(self):
        mmio = MmioRegisterFile()
        with pytest.raises(MmioError):
            mmio.read(0x10)
        with pytest.raises(MmioError):
            mmio.read_named("NOPE")

    def test_registers_snapshot(self):
        mmio = MmioRegisterFile()
        mmio.define("A", 0x0, initial=1)
        mmio.define("B", 0x8, initial=2)
        assert mmio.registers() == {"A": 1, "B": 2}


class TestSerialLink:
    def test_in_order_delivery(self):
        sim = Simulator()
        link = SerialLink(sim, LinkConfig())
        for index in range(5):
            link.send(index, 64)
        sim.run()
        received = [link.rx.try_get()[0] for _ in range(5)]
        assert received == [0, 1, 2, 3, 4]

    def test_serialization_paces_throughput(self):
        sim = Simulator()
        config = LinkConfig(lanes=1, lane_gbps=1.0)  # 1 Gb/s slow link
        link = SerialLink(sim, config)
        link.send("a", 1250)  # 10000 bits ≈ 10.3 µs at 64/66 coding
        sim.run()
        expected = config.serialization_time(1250) + config.flight_latency_s
        assert sim.now == pytest.approx(expected)

    def test_back_to_back_frames_delivery_times(self):
        """Each frame starts serializing where the previous one ended,
        even when it is sent while the previous one is on the wire."""
        sim = Simulator()
        config = LinkConfig()
        link = SerialLink(sim, config)
        arrivals = []

        def receiver():
            for _ in range(2):
                payload, _corrupted = yield link.rx.get()
                arrivals.append((payload, sim.now))

        sim.process(receiver())
        link.send("a", 64)
        # Sent while "a" still occupies the wire: waits for it.
        sim.schedule_at(1e-12, link.send, "b", 128)
        sim.run()
        first_end = 0.0 + 64 * 8 / config.payload_bits_per_s
        second_end = first_end + 128 * 8 / config.payload_bits_per_s
        assert arrivals == [
            ("a", first_end + config.flight_latency_s),
            ("b", second_end + config.flight_latency_s),
        ]

    def test_payload_rate_accounts_for_coding(self):
        config = LinkConfig(lanes=4, lane_gbps=25.0)
        assert config.raw_bits_per_s == pytest.approx(100e9)
        assert config.payload_bits_per_s == pytest.approx(
            100e9 / AURORA_OVERHEAD
        )

    def test_dropped_frame_never_arrives(self):
        sim = Simulator()
        faults = FaultInjector()
        faults.force_drop_next()
        link = SerialLink(sim, LinkConfig(), faults=faults)
        link.send("gone", 64)
        link.send("kept", 64)
        sim.run()
        assert len(link.rx) == 1
        assert link.rx.try_get() == ("kept", False)

    def test_corrupted_frame_flagged(self):
        sim = Simulator()
        faults = FaultInjector()
        faults.force_corrupt_next()
        link = SerialLink(sim, LinkConfig(), faults=faults)
        link.send("payload", 64)
        sim.run()
        assert link.rx.try_get() == ("payload", True)

    def test_utilization_accounting(self):
        sim = Simulator()
        link = SerialLink(sim, LinkConfig())
        link.send("x", 1250)
        sim.run()
        assert 0.0 < link.utilization(sim.now) <= 1.0

    def test_frames_count_as_delivered_when_they_land(self):
        """A mid-run read leaves out frames still queued or in flight,
        and a dropped frame never counts."""
        sim = Simulator()
        faults = FaultInjector()
        config = LinkConfig()
        link = SerialLink(sim, config, faults=faults)
        link.send("a", 1250)
        faults.force_drop_next()
        link.send("dropped", 1250)
        link.send("b", 1250)
        first = config.serialization_time(1250) + config.flight_latency_s
        third = 3 * config.serialization_time(1250) + config.flight_latency_s
        samples = []
        for at in (first / 2, first, (first + third) / 2, third):
            sim.schedule_at(
                at,
                lambda: samples.append(
                    (link.frames_delivered, link.bytes_delivered)
                ),
            )
        sim.run()
        assert samples == [(0, 0), (1, 1250), (1, 1250), (2, 2500)]
        assert link.frames_sent == 3 and link.bytes_sent == 3750
        assert link.utilization(third) <= 1.0

    def test_duplex_channel_views(self):
        sim = Simulator()
        channel = DuplexChannel(sim)
        a = channel.endpoint_view("a")
        b = channel.endpoint_view("b")
        a.send("to-b", 64)
        b.send("to-a", 64)
        sim.run()
        assert b.rx.try_get()[0] == "to-b"
        assert a.rx.try_get()[0] == "to-a"
        with pytest.raises(ValueError):
            channel.endpoint_view("c")


class TestFaultInjector:
    def test_probability_bounds_validated(self):
        with pytest.raises(ValueError):
            FaultInjector(drop_probability=1.5)

    def test_statistical_drop_rate(self):
        faults = FaultInjector(drop_probability=0.3)
        drops = sum(1 for _ in range(5000) if faults.decide().drop)
        assert 0.25 <= drops / 5000 <= 0.35

    def test_forced_faults_take_priority(self):
        faults = FaultInjector(drop_probability=0.0)
        faults.force_corrupt_next(2)
        assert faults.decide().corrupt
        assert faults.decide().corrupt
        assert faults.decide().clean


class TestCrc:
    def test_crc_roundtrip(self):
        data = frame_digest_bytes(7, [1, 2, 3])
        assert check(crc32(data), data)

    def test_crc_detects_change(self):
        a = frame_digest_bytes(7, [1, 2, 3])
        b = frame_digest_bytes(7, [1, 2, 4])
        assert crc32(a) != crc32(b)

    def test_crc_covers_frame_id(self):
        a = frame_digest_bytes(7, [1])
        b = frame_digest_bytes(8, [1])
        assert crc32(a) != crc32(b)


class TestCircuitSwitch:
    def wire(self, sim, switch):
        """Attach egress links to ports 0 and 1, return their rx stores."""
        out0 = SerialLink(sim, LinkConfig(), name="out0")
        out1 = SerialLink(sim, LinkConfig(), name="out1")
        switch.attach_egress(0, out0)
        switch.attach_egress(1, out1)
        return out0, out1

    def test_forwarding_over_circuit(self):
        sim = Simulator()
        switch = CircuitSwitch(sim, ports=2, reconfiguration_s=0.0)
        _out0, out1 = self.wire(sim, switch)
        switch.connect(0, 1)
        switch.ingress_store(0).try_put(("frame", False))
        sim.run()
        assert out1.rx.try_get()[0] == "frame"
        assert switch.frames_forwarded == 1

    def test_no_circuit_discards(self):
        sim = Simulator()
        switch = CircuitSwitch(sim, ports=2)
        self.wire(sim, switch)
        switch.ingress_store(0).try_put(("dark", False))
        sim.run()
        assert switch.frames_discarded == 1

    def test_reconfiguration_blackout(self):
        sim = Simulator()
        switch = CircuitSwitch(sim, ports=2, reconfiguration_s=1e-3)
        _out0, out1 = self.wire(sim, switch)
        switch.connect(0, 1)
        switch.ingress_store(0).try_put(("too-early", False))
        sim.run(until=1e-4)
        assert switch.frames_discarded == 1
        # Advance past the blackout; the circuit then carries traffic.
        sim.run(until=2e-3)
        switch.ingress_store(0).try_put(("after", False))
        sim.run()
        assert out1.rx.try_get()[0] == "after"

    def test_egress_conflict_rejected(self):
        sim = Simulator()
        switch = CircuitSwitch(sim, ports=3)
        switch.connect(0, 2)
        with pytest.raises(SwitchError):
            switch.connect(1, 2)

    def test_disconnect(self):
        sim = Simulator()
        switch = CircuitSwitch(sim, ports=2)
        switch.connect(0, 1)
        switch.disconnect(0)
        assert switch.circuit_for(0) is None

    def test_minimum_ports(self):
        with pytest.raises(SwitchError):
            CircuitSwitch(Simulator(), ports=1)
