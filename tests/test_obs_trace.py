"""End-to-end transaction tracing: span model, exporters, overhead guard.

The acceptance-critical test here is full-path reconstruction: a traced
remote access must yield one record whose per-layer spans walk the whole
stack (bus → RMMU → routing → LLC → wire → donor bus → DRAM → response →
completion), with contiguous, non-overlapping child spans whose
durations sum to the end-to-end latency — and the Chrome-trace export of
that run must validate.
"""

import json

import pytest

from repro.mem import MIB
from repro.obs import (
    Tracer,
    chrome_trace,
    disable_tracing,
    enable_tracing,
    session,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs import trace as trace_mod
from repro.testbed import Testbed


def _remote_roundtrip():
    """One store + one load through the full simulated datapath."""
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    window = testbed.remote_window_range(attachment)
    payload = bytes(range(128))
    testbed.node0.run_store(window.start, payload)
    assert testbed.node0.run_load(window.start) == payload
    return testbed


def _traced_roundtrip(sample_every=1):
    """:func:`_remote_roundtrip` inside a tracing session."""
    tracer = Tracer(sample_every=sample_every)
    with session(trace=tracer):
        _remote_roundtrip()
    return tracer


def _is_subsequence(needle, haystack):
    iterator = iter(haystack)
    return all(stage in iterator for stage in needle)


#: The full path of a remote load (§IV): compute bus issue, RMMU
#: translation, routing, LLC (credit wait, framing, delivery), the donor
#: bus mastering, DRAM service, and the response path home.
FULL_PATH = [
    "bus.issue",
    "rmmu.translate",
    "routing.forward",
    "llc.credit_wait",
    "llc.submit",
    "llc.frame",
    "llc.deliver",
    "bus.issue",       # donor-side C1 mastering
    "dram.service",
    "dram.done",
    "routing.response",
    "llc.credit_wait",
    "llc.submit",
    "llc.frame",
    "llc.deliver",
    "complete",
]


class TestOffByDefault:
    def test_disabled_flag_and_no_tracer(self):
        assert trace_mod.ENABLED is False
        assert trace_mod._TRACER is None

    def test_untraced_run_records_nothing(self):
        _remote_roundtrip()
        assert trace_mod._TRACER is None

    def test_call_site_helpers_are_noops_when_disabled(self):
        # Components guard with `if ENABLED:`, but even an unguarded
        # call must not blow up between disable and the next dispatch.
        trace_mod.txn_begin(0.0, 1, "load", 128, "bus")
        trace_mod.txn_mark(0.0, 1, "stage", "x")
        trace_mod.txn_end(0.0, 1, "bus")
        trace_mod.span("s", 0.0, 1.0, "t")
        trace_mod.instant("i", 0.0, "t")

    def test_context_manager_restores_disabled(self):
        tracer = Tracer()
        with session(trace=tracer):
            assert trace_mod.ENABLED is True
            assert trace_mod._TRACER is tracer
        assert trace_mod.ENABLED is False
        assert trace_mod._TRACER is None

    def test_legacy_switch_still_traces(self):
        """``enable_tracing``/``disable_tracing`` stay until the
        benchmark ledger moves to ``session``."""
        tracer = enable_tracing(sample_every=2)
        try:
            assert trace_mod.ENABLED is True
            _remote_roundtrip()
        finally:
            assert disable_tracing() is tracer
        assert trace_mod.ENABLED is False
        assert tracer.completed() and tracer.sample_every == 2


class TestFullPathReconstruction:
    def test_load_spans_walk_the_whole_stack(self):
        tracer = _traced_roundtrip()
        loads = tracer.find(op="load", done=True)
        assert loads, "no completed load was traced"
        record = loads[0]
        assert _is_subsequence(FULL_PATH, record.stages), (
            f"stages {record.stages} do not contain the full path"
        )

    def test_child_spans_tile_the_end_to_end_latency(self):
        tracer = _traced_roundtrip()
        for record in tracer.completed():
            segments = record.segments()
            assert segments
            # Contiguous and non-overlapping: each span starts exactly
            # where the previous one ended, and never runs backwards.
            for (_s1, t0, t1, _w1), (_s2, t2, _t3, _w2) in zip(
                segments, segments[1:]
            ):
                assert t1 == t2
                assert t1 >= t0
            total = sum(t1 - t0 for _s, t0, t1, _w in segments)
            assert total == pytest.approx(record.latency, rel=0, abs=1e-15)

    def test_store_and_load_both_complete(self):
        tracer = _traced_roundtrip()
        assert tracer.find(op="store", done=True)
        assert tracer.find(op="load", done=True)

    def test_marks_are_time_ordered(self):
        tracer = _traced_roundtrip()
        for record in tracer.completed():
            times = [t for t, _stage, _w in record.marks]
            assert times == sorted(times)


class TestChromeExport:
    def test_traced_run_validates(self):
        tracer = _traced_roundtrip()
        document = chrome_trace(tracer)
        count = validate_chrome_trace(document)
        assert count > len(tracer.transactions)

    def test_required_keys_on_every_event(self):
        tracer = _traced_roundtrip()
        for event in chrome_trace(tracer)["traceEvents"]:
            for key in ("ph", "ts", "pid", "name"):
                assert key in event

    def test_transaction_lane_matches_record(self):
        tracer = _traced_roundtrip()
        record = tracer.find(op="load", done=True)[0]
        events = [
            e
            for e in chrome_trace(tracer)["traceEvents"]
            if e["ph"] == "X" and e.get("tid") == record.base_id
        ]
        stage_events = [e for e in events if e["cat"] == "stage"]
        assert [e["name"] for e in stage_events] == [
            stage for stage, _t0, _t1, _w in record.segments()
        ]
        enclosing = [e for e in events if e["cat"] == "txn"]
        assert len(enclosing) == 1
        assert enclosing[0]["dur"] == pytest.approx(record.latency * 1e6)

    def test_write_chrome_trace_roundtrips_through_json(self, tmp_path):
        tracer = _traced_roundtrip()
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == len(loaded["traceEvents"])

    def test_validator_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing required key"):
            validate_chrome_trace([{"ph": "I", "ts": 0, "pid": 1}])
        with pytest.raises(ValueError, match="no events"):
            validate_chrome_trace([])
        with pytest.raises(ValueError, match="bad ts"):
            validate_chrome_trace(
                [{"ph": "I", "ts": -1, "pid": 1, "name": "x"}]
            )

    def test_validator_rejects_overlapping_spans(self):
        bad = [
            {"ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 1, "name": "a"},
            {"ph": "X", "ts": 5, "dur": 10, "pid": 1, "tid": 1, "name": "b"},
        ]
        with pytest.raises(ValueError, match="overlaps"):
            validate_chrome_trace(bad)


class TestSampling:
    def test_one_in_n_traces_fewer_transactions(self):
        everything = _traced_roundtrip(sample_every=1)
        sampled = _traced_roundtrip(sample_every=1000)
        assert len(sampled.transactions) < len(everything.transactions)
        assert sampled.dropped_by_sampling > 0

    def test_sampling_decision_is_deterministic(self):
        tracer = Tracer(sample_every=4)
        assert tracer._sampled(8)
        assert not tracer._sampled(9)

    def test_invalid_sample_every_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)


class TestEngineSpan:
    def test_run_emits_sim_span_only_when_enabled(self):
        from repro.sim import Simulator

        sim = Simulator()
        sim.schedule(1e-6, lambda: None)
        sim.run()
        tracer = Tracer()
        with session(trace=tracer):
            sim.schedule(1e-6, lambda: None)
            sim.run()
        spans = [s for s in tracer.spans if s.name == "sim.run"]
        assert len(spans) == 1
        assert spans[0].args["events"] >= 1
