"""Sim-time sampling profiler: phase classification, kernel sampling,
and the folded-stacks / top-N reporting formats.
"""

import re

import pytest

from repro.mem import MIB
from repro.obs import (
    SimProfiler,
    active_profiler,
    disable_profiling,
    enable_profiling,
    profiling,
)
from repro.obs.profiler import classify_phase
from repro.testbed import Testbed

FOLDED_LINE = re.compile(r"^sim;[a-z]+;\S+ \d+$")


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

    def test_sample_attributes_deltas_to_target(self):
        profiler = SimProfiler(stride=1)

        class Pump:
            name = "node0.link.pump"

        pump = Pump()
        profiler.begin_run(0.0)
        profiler.sample(2e-6, pump)
        profiler.sample(5e-6, pump)
        stats = profiler.stats()
        samples, sim_s, host_s = stats[("link", "node0.link.pump")]
        assert samples == 2
        assert sim_s == pytest.approx(5e-6)
        assert host_s >= 0.0
        assert profiler.samples_taken == 2

    def test_unnamed_target_falls_back_to_type_name(self):
        profiler = SimProfiler(stride=1)
        profiler.begin_run(0.0)

        class DramBank:
            pass

        profiler.sample(1e-6, DramBank())
        assert ("dram", "DramBank") in profiler.stats()

    def test_bound_method_uses_owner_name(self):
        profiler = SimProfiler(stride=1)
        profiler.begin_run(0.0)

        class Llc:
            name = "node0.llc0"

            def handle(self):
                pass

        profiler.sample(1e-6, Llc().handle)
        assert ("llc", "node0.llc0") in profiler.stats()

    def test_kernel_sampling_through_a_real_run(self):
        """The dispatch loop feeds the profiler: a testbed workload at
        stride 1 produces samples across multiple datapath phases and
        attributes the full sim-time span."""
        profiler = enable_profiling(stride=1)
        try:
            testbed = Testbed()
            attachment = testbed.attach(
                "node0", 2 * MIB, memory_host="node1"
            )
            window = testbed.remote_window_range(attachment)
            testbed.node0.run_store(window.start, bytes(1024))
            testbed.node0.run_load(window.start)
        finally:
            assert disable_profiling() is profiler
        assert profiler.samples_taken > 10
        phases = {phase for phase, _name in profiler.stats()}
        assert {"bus", "dram", "endpoint", "link", "llc"} <= phases
        total_sim = sum(v[1] for v in profiler.stats().values())
        assert total_sim > 0.0

    def test_stride_thins_sampling(self):
        def run(stride):
            profiler = enable_profiling(stride=stride)
            try:
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
            finally:
                disable_profiling()
            return profiler.samples_taken

        dense, sparse = run(1), run(64)
        assert dense >= 2 * 64, "too few events to sample at stride 64"
        assert dense > sparse
        assert sparse >= 1


class TestReporting:
    def _profiled(self):
        profiler = SimProfiler(stride=1)
        profiler.begin_run(0.0)

        class Named:
            def __init__(self, name):
                self.name = name

        profiler.sample(1e-6, Named("node0.link.pump"))
        profiler.sample(3e-6, Named("node1.dram.bank0"))
        profiler.sample(4e-6, Named("node1.dram.bank0"))
        return profiler

    def test_folded_stacks_format(self):
        folded = self._profiled().folded()
        lines = folded.strip().splitlines()
        assert all(FOLDED_LINE.match(line) for line in lines)
        assert "sim;dram;node1.dram.bank0 2" in lines
        assert "sim;link;node0.link.pump 1" in lines

    def test_folded_escapes_frame_separators(self):
        profiler = SimProfiler(stride=1)
        profiler.begin_run(0.0)

        class Odd:
            name = "dram bank;weird"

        profiler.sample(1e-6, Odd())
        assert "sim;dram;dram_bank_weird 1" in profiler.folded()

    def test_top_table_ranks_by_sim_time(self):
        text = self._profiled().top_table(5).render()
        # dram got 3 µs of the 4 µs span, link 1 µs: dram ranks first.
        dram_pos = text.index("dram:node1.dram.bank0")
        link_pos = text.index("link:node0.link.pump")
        assert dram_pos < link_pos
        assert "samples" in text

    def test_describe_aggregates_by_phase(self):
        described = self._profiled().describe()
        assert described["samples"] == 3
        assert described["phases"]["dram"]["samples"] == 2
        assert described["phases"]["dram"]["sim_s"] == pytest.approx(3e-6)

    def test_write_folded(self, tmp_path):
        path = tmp_path / "profile.folded"
        self._profiled().write_folded(str(path))
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
        assert active_profiler() is None

    def test_context_manager_scopes_profiling(self):
        with profiling(stride=7) as profiler:
            assert active_profiler() is profiler
            assert profiler.stride == 7
        assert active_profiler() is None
