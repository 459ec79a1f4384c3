"""Exporter validation on empty and degenerate runs.

Every exporter in ``repro.obs`` must emit *valid* output for a run
that produced nothing: an idle testbed, an empty registry, a journal
with no events, a profiler that never sampled, a tracer that saw no
transactions. Degenerate-but-valid beats crashing in the last mile of
a CI job.
"""

import json

import pytest

from repro.obs import (
    EventLog,
    MetricsRegistry,
    SimProfiler,
    SloEngine,
    Tracer,
    chrome_trace,
    parse_prometheus,
    render_prometheus,
    validate_chrome_trace,
    validate_event_jsonl,
    write_chrome_trace,
)
from repro.obs.summary import summary_from_snapshot
from repro.sim import Simulator


class TestEmptyRegistry:
    def test_renders_as_valid_empty_exposition(self):
        text = render_prometheus(MetricsRegistry())
        assert text == ""
        parsed = parse_prometheus(text)
        assert parsed["samples"] == {} and parsed["types"] == {}

    def test_registry_with_only_silent_collectors(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda reg: None)
        assert render_prometheus(registry) == ""

    def test_zero_valued_metrics_still_render(self):
        registry = MetricsRegistry()
        registry.counter("dram.reads", node="node0")
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed["samples"][("dram_reads", (("node", "node0"),))] == 0

    def test_empty_histogram_family_is_internally_consistent(self):
        registry = MetricsRegistry()
        registry.histogram("rtt", low=0.0, high=1.0, bins=4)
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed["samples"][("rtt_count", ())] == 0
        assert parsed["samples"][("rtt_bucket", (("le", "+Inf"),))] == 0
        assert parsed["samples"][("rtt_sum", ())] == 0

    def test_empty_snapshot_summary_renders(self):
        assert summary_from_snapshot("idle", {}).render()


class TestEmptyTracer:
    def test_idle_tracer_exports_a_valid_chrome_trace(self):
        document = chrome_trace(Tracer())
        assert validate_chrome_trace(document) >= 0
        json.dumps(document)

    def test_idle_tracer_writes_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(Tracer(), str(path))
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) >= 0


class TestEmptyJournal:
    def test_empty_journal_is_valid(self):
        log = EventLog()
        assert validate_event_jsonl(log.to_jsonl()) == 0
        assert log.to_dicts() == []
        assert log.evicted == 0

    def test_empty_journal_writes_empty_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventLog().write_jsonl(str(path))
        assert path.read_text() == ""


class TestIdleProfiler:
    def test_zero_sample_profiler_exports_cleanly(self, tmp_path):
        profiler = SimProfiler()
        assert profiler.folded() == ""
        path = tmp_path / "profile.folded"
        profiler.write_folded(str(path))
        assert path.read_text() == ""
        assert profiler.top_table().render()
        assert json.dumps(profiler.describe())

    def test_profiling_a_run_with_no_events(self):
        from repro.obs import session

        profiler = SimProfiler(stride=1)
        with session(profile=profiler):
            sim = Simulator()
            drained_at = sim.run()
        assert drained_at == 0.0
        assert profiler.samples_taken == 0
        assert profiler.folded() == ""


class TestEmptySloEngine:
    def test_no_specs_is_a_passing_report(self):
        report = SloEngine([]).evaluate(MetricsRegistry())
        assert report.ok and report.exit_code() == 0
        assert report.describe()["total"] == 0
        assert report.render()


class TestIdleTestbedEndToEnd:
    def test_attach_only_run_exports_everything_validly(self, tmp_path):
        """A testbed that attached memory but moved no data still
        produces a parseable exposition, a valid (empty) journal, and a
        valid trace document."""
        from repro.mem import MIB
        from repro.obs import EventLog, Tracer, session
        from repro.testbed import Testbed

        tracer, log = Tracer(), EventLog()
        with session(trace=tracer, events=log):
            testbed = Testbed()
            testbed.attach("node0", 2 * MIB, memory_host="node1")

        registry = MetricsRegistry()
        testbed.register_observability(registry)
        parsed = parse_prometheus(render_prometheus(registry))
        loads = parsed["samples"][
            ("bus_loads", (("bus", "node0.bus"), ("node", "node0")))
        ]
        assert loads == 0
        assert validate_chrome_trace(chrome_trace(tracer)) >= 0
        assert validate_event_jsonl(log.to_jsonl()) == log.total
        assert log.total >= 2  # the control verbs journaled
