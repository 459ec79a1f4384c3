"""Host-time sampling profiler: phase classification, kernel sampling,
host-time attribution and the folded-stacks / top-N reporting formats.
"""

import re
import time
import types

import pytest

from repro.mem import MIB
from repro.obs import SimProfiler, session
from repro.obs import profiler as profiler_module
from repro.obs.profiler import classify_phase
from repro.sim import Simulator
from repro.sim.rng import SeededRNG
from repro.testbed import Testbed

FOLDED_LINE = re.compile(r"^sim;[a-z]+;\S+ \d+$")


@pytest.fixture
def clock(monkeypatch):
    """A host clock the test sets by hand: ``clock.now = seconds``."""
    fake = types.SimpleNamespace(now=0.0)
    fake.perf_counter = lambda: fake.now
    monkeypatch.setattr(profiler_module, "_time", fake)
    return fake


class TestPhaseClassification:
    @pytest.mark.parametrize(
        ("name", "phase"),
        [
            ("node0.tf.link0.pump", "link"),
            ("serdes-lane3", "link"),
            ("node1.dram.bank2", "dram"),
            ("node1.tf.memory.serve", "dram"),
            ("node0.tf.llc0.submit", "llc"),
            ("L2-cache", "llc"),
            ("node0.tf.rmmu", "rmmu"),
            ("address-translation", "rmmu"),
            ("node0.bus", "bus"),
            ("packet-switch", "bus"),
            ("node0.tf.compute", "endpoint"),
            ("LenderAgent", "endpoint"),
            ("mystery-object", "other"),
        ],
    )
    def test_name_maps_to_phase(self, name, phase):
        assert classify_phase(name) == phase

    def test_classification_is_case_insensitive(self):
        assert classify_phase("DRAM-Bank0") == "dram"


class TestSamplingMechanics:
    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            SimProfiler(stride=0)

    def test_sample_attributes_deltas_to_target(self, clock):
        profiler = SimProfiler(stride=4)

        class Pump:
            name = "node0.link.pump"

        class Bank:
            name = "node1.dram.bank0"

        profiler.begin_run()
        assert profiler.sample(Pump()) == 1  # opened: close at the next
        clock.now = 2e-6
        assert profiler.sample(Bank()) == 3  # closed: next sample in 3
        assert profiler.stats() == {("link", "node0.link.pump"): (1, 8e-6)}
        assert profiler.samples_taken == 1

    def test_begin_run_discards_the_open_measurement(self, clock):
        profiler = SimProfiler(stride=1)

        class Pump:
            name = "node0.link.pump"

        profiler.begin_run()
        profiler.sample(Pump())
        clock.now = 1.0  # host time outside any dispatch loop
        profiler.begin_run()
        profiler.sample(Pump())
        assert profiler.stats() == {}
        assert profiler.samples_taken == 0

    def test_unnamed_target_falls_back_to_type_name(self):
        profiler = SimProfiler(stride=1)
        profiler.begin_run()

        class DramBank:
            pass

        profiler.sample(DramBank())
        profiler.sample(DramBank())
        assert ("dram", "DramBank") in profiler.stats()

    def test_bound_method_uses_owner_name(self):
        profiler = SimProfiler(stride=1)
        profiler.begin_run()

        class Llc:
            name = "node0.llc0"

            def handle(self):
                pass

        profiler.sample(Llc().handle)
        profiler.sample(Llc().handle)
        assert ("llc", "node0.llc0") in profiler.stats()

    def test_kernel_sampling_through_a_real_run(self):
        """The dispatch loop feeds the profiler: a testbed workload at
        stride 1 produces samples across multiple datapath phases and
        attributes the full sim-time span."""
        profiler = SimProfiler(stride=1)
        with session(profile=profiler):
            testbed = Testbed()
            attachment = testbed.attach(
                "node0", 2 * MIB, memory_host="node1"
            )
            window = testbed.remote_window_range(attachment)
            testbed.node0.run_store(window.start, bytes(1024))
            testbed.node0.run_load(window.start)
        assert profiler.samples_taken > 10
        phases = {phase for phase, _name in profiler.stats()}
        # A frame's wire crossing and its rx pipeline are one event the
        # receiving LLC owns, so no link-owned event is dispatched.
        assert {"bus", "dram", "endpoint", "llc"} <= phases
        total_host = sum(v[1] for v in profiler.stats().values())
        assert total_host > 0.0

    def test_stride_thins_sampling(self):
        def run(stride):
            profiler = SimProfiler(stride=stride)
            with session(profile=profiler):
                testbed = Testbed()
                attachment = testbed.attach(
                    "node0", 2 * MIB, memory_host="node1"
                )
                window = testbed.remote_window_range(attachment)
                # 8 KiB as concurrent single-line stores in one run: the
                # stride countdown restarts with every run() call.
                for offset in range(0, 8192, 128):
                    testbed.node0.store(window.start + offset, bytes(128))
                testbed.run()
            return profiler.samples_taken

        dense, sparse = run(1), run(64)
        assert dense >= 2 * 64, "too few events to sample at stride 64"
        assert dense > sparse
        assert sparse >= 1


class TestHostTimeAttribution:
    def test_heavy_events_get_their_measured_share(self, monkeypatch):
        """Half the events busy-wait 20 µs, half do nothing, shuffled.
        The profiler must charge each sampled event its own cost, so
        heavy's host share tracks the share heavy events take of a run
        without the profiler, not their half of the event count. There,
        each event costs its callback's measured time plus an equal
        part of the kernel's dispatch overhead (the rest of the run).
        Both sides read the process CPU clock, so other processes on
        the host do not move either share."""
        clock = time.process_time
        monkeypatch.setattr(
            profiler_module, "_time", types.SimpleNamespace(perf_counter=clock)
        )

        class Callback:
            def __init__(self, name, spin):
                self.name = name
                self.spin = spin
                self.busy = 0.0

            def fire(self):
                start = clock()
                while clock() - start < self.spin:
                    pass
                self.busy += clock() - start

        def run():
            """CPU seconds of the whole run and of each callback."""
            heavy, light = Callback("heavy", 20e-6), Callback("light", 0.0)
            order = [heavy, light] * 5_000
            SeededRNG(7).shuffle(order)
            sim = Simulator()
            for index, callback in enumerate(order):
                sim.schedule(index * 1e-9, callback.fire)
            start = clock()
            sim.run()
            return clock() - start, heavy.busy, light.busy

        total, heavy_s, light_s = run()
        measured = (heavy_s + (total - heavy_s - light_s) / 2) / total
        profiler = SimProfiler(stride=7)
        with session(profile=profiler):
            run()
        host = {name: host_s for (_phase, name), (_n, host_s)
                in profiler.stats().items()}
        share = host["heavy"] / (host["heavy"] + host["light"])
        assert measured > 0.6, "busy-waits did not dominate the run"
        assert abs(share - measured) <= 0.10, (share, measured)


class TestReporting:
    @pytest.fixture
    def profiled(self, clock):
        """link charged 1 µs in one sample, dram 3 µs in two."""
        profiler = SimProfiler(stride=1)
        profiler.begin_run()

        class Named:
            def __init__(self, name):
                self.name = name

        for now, name in ((0.0, "node0.link.pump"),
                          (1e-6, "node1.dram.bank0"),
                          (2e-6, "node1.dram.bank0"),
                          (4e-6, "node1.dram.bank0")):
            clock.now = now
            profiler.sample(Named(name))
        return profiler

    def test_folded_stacks_format(self, profiled):
        folded = profiled.folded()
        lines = folded.strip().splitlines()
        assert all(FOLDED_LINE.match(line) for line in lines)
        assert "sim;dram;node1.dram.bank0 2" in lines
        assert "sim;link;node0.link.pump 1" in lines

    def test_folded_escapes_frame_separators(self):
        profiler = SimProfiler(stride=1)
        profiler.begin_run()

        class Odd:
            name = "dram bank;weird"

        profiler.sample(Odd())
        profiler.sample(Odd())
        assert "sim;dram;dram_bank_weird 1" in profiler.folded()

    def test_top_table_ranks_by_host_time(self, profiled):
        text = profiled.top_table(5).render()
        # dram got 3 µs of the 4 µs charged, link 1 µs: dram ranks first.
        dram_pos = text.index("dram:node1.dram.bank0")
        link_pos = text.index("link:node0.link.pump")
        assert dram_pos < link_pos
        assert "samples" in text
        assert "sim" not in text

    def test_describe_aggregates_by_phase(self, profiled):
        described = profiled.describe()
        assert described["samples"] == 3
        assert described["phases"]["dram"] == {
            "samples": 2, "host_s": pytest.approx(3e-6),
        }

    def test_write_folded(self, profiled, tmp_path):
        path = tmp_path / "profile.folded"
        profiled.write_folded(str(path))
        for line in path.read_text().strip().splitlines():
            assert FOLDED_LINE.match(line)

    def test_empty_profiler_reports_cleanly(self):
        profiler = SimProfiler()
        assert profiler.folded() == ""
        text = profiler.top_table().render()
        assert "samples" in text  # renders, zero rows ranked
        assert profiler.describe()["phases"] == {}


class TestModuleSwitch:
    def test_disabled_by_default(self):
        assert profiler_module.ENABLED is False
        assert profiler_module._PROFILER is None

    def test_context_manager_scopes_profiling(self):
        profiler = SimProfiler(stride=7)
        with session(profile=profiler):
            assert profiler_module.ENABLED is True
            assert profiler_module._PROFILER is profiler
        assert profiler_module.ENABLED is False
        assert profiler_module._PROFILER is None
