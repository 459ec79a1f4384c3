"""Structured event log: the bounded journal, the JSON-lines format
validator, and the control-plane/resilience emission wiring.

Determinism matters here: events carry sim-time and a sequence number,
never wall-clock, so seeded runs journal identically.
"""

import pytest

from repro.control import RestApi
from repro.mem import MIB
from repro.obs import (
    EventLog,
    SimProfiler,
    Tracer,
    active_event_log,
    session,
    validate_event_jsonl,
)
from repro.obs import events as events_mod
from repro.obs import profiler as profiler_mod
from repro.obs import trace as trace_mod
from repro.resilience import run_scenario
from repro.testbed import Testbed


class TestEventLogPrimitives:
    def test_emit_assigns_monotonic_sequence(self):
        log = EventLog()
        first = log.emit(0.0, "a.start")
        second = log.emit(1.5e-6, "a.stop", code=3)
        assert (first.seq, second.seq) == (0, 1)
        assert second.fields == {"code": 3}
        assert log.total == 2 and log.evicted == 0

    def test_capacity_bounds_resident_history(self):
        log = EventLog(capacity=4)
        for index in range(10):
            log.emit(index * 1e-6, "tick", n=index)
        assert len(log) == 4
        assert log.total == 10 and log.evicted == 6
        # Oldest events were dropped; the survivors keep their seq.
        assert [event.seq for event in log] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_find_filters_by_kind_and_fields(self):
        log = EventLog()
        log.emit(0.0, "fault.link_down", link="x0")
        log.emit(1e-6, "fault.link_down", link="x1")
        log.emit(2e-6, "fault.link_up", link="x0")
        assert len(log.find("fault.link_down")) == 2
        assert len(log.find(link="x0")) == 2
        matched = log.find("fault.link_down", link="x1")
        assert len(matched) == 1 and matched[0].t == 1e-6

    def test_as_dict_leads_with_identity_keys(self):
        event = EventLog().emit(2.5e-6, "control.attach", attachment=7)
        record = event.as_dict()
        assert list(record)[:3] == ["seq", "t", "kind"]
        assert record["attachment"] == 7

    def test_jsonl_round_trips_through_validator(self):
        log = EventLog()
        log.emit(0.0, "a", x=1)
        log.emit(1e-6, "b", y="z")
        text = log.to_jsonl()
        assert text.endswith("\n")
        assert validate_event_jsonl(text) == 2

    def test_empty_log_serializes_to_empty_valid_journal(self):
        log = EventLog()
        assert log.to_jsonl() == ""
        assert validate_event_jsonl(log.to_jsonl()) == 0

    def test_write_jsonl(self, tmp_path):
        log = EventLog()
        log.emit(0.0, "a")
        path = tmp_path / "events.jsonl"
        log.write_jsonl(str(path))
        assert validate_event_jsonl(path.read_text()) == 1


class TestJournalValidator:
    def test_rejects_non_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            validate_event_jsonl("not json\n")

    def test_rejects_non_object_line(self):
        with pytest.raises(ValueError, match="not an object"):
            validate_event_jsonl("[1, 2]\n")

    @pytest.mark.parametrize("missing", ["seq", "t", "kind"])
    def test_rejects_missing_identity_key(self, missing):
        record = {"seq": 0, "t": 0.0, "kind": "a"}
        del record[missing]
        import json

        with pytest.raises(ValueError, match=missing):
            validate_event_jsonl(json.dumps(record) + "\n")

    def test_rejects_sequence_regression(self):
        text = (
            '{"seq": 1, "t": 0.0, "kind": "a"}\n'
            '{"seq": 1, "t": 0.0, "kind": "b"}\n'
        )
        with pytest.raises(ValueError, match="does not increase"):
            validate_event_jsonl(text)

    def test_rejects_boolean_seq(self):
        with pytest.raises(ValueError, match="not an integer"):
            validate_event_jsonl('{"seq": true, "t": 0.0, "kind": "a"}\n')

    def test_rejects_negative_sim_time(self):
        with pytest.raises(ValueError, match="bad sim-time"):
            validate_event_jsonl('{"seq": 0, "t": -1.0, "kind": "a"}\n')

    def test_rejects_time_travel(self):
        text = (
            '{"seq": 0, "t": 2.0, "kind": "a"}\n'
            '{"seq": 1, "t": 1.0, "kind": "b"}\n'
        )
        with pytest.raises(ValueError, match="backwards"):
            validate_event_jsonl(text)

    def test_rejects_empty_kind(self):
        with pytest.raises(ValueError, match="kind"):
            validate_event_jsonl('{"seq": 0, "t": 0.0, "kind": ""}\n')

    def test_blank_lines_are_skipped(self):
        text = '\n{"seq": 0, "t": 0.0, "kind": "a"}\n\n'
        assert validate_event_jsonl(text) == 1


class TestModuleSwitch:
    def test_disabled_by_default_and_emit_is_noop(self):
        assert active_event_log() is None
        events_mod.emit(0.0, "ignored")  # must not raise

    def test_session_installs_the_callers_log(self):
        log = EventLog(capacity=8)
        with session(events=log):
            assert active_event_log() is log
            events_mod.emit(0.0, "probe")
            assert log.total == 1
        assert active_event_log() is None

    def test_context_manager_scopes_logging(self):
        log = EventLog()
        with session(events=log):
            events_mod.emit(0.0, "inside")
        assert active_event_log() is None
        assert len(log.find("inside")) == 1


class TestControlPlaneWiring:
    def test_attach_detach_journal(self):
        """Control-plane verbs land in the journal with correlation ids
        and sim-clock timestamps."""
        log = EventLog()
        with session(events=log):
            testbed = Testbed()
            attachment = testbed.attach(
                "node0", 4 * MIB, memory_host="node1"
            )
            window = testbed.remote_window_range(attachment)
            testbed.node0.run_store(window.start, bytes(128))
            testbed.detach(attachment)

        aid = attachment.attachment_id
        steals = log.find("control.steal", attachment=aid)
        attaches = log.find("control.attach", attachment=aid)
        detaches = log.find("control.detach", attachment=aid)
        assert len(steals) == len(attaches) == len(detaches) == 1
        assert attaches[0].fields["compute_host"] == "node0"
        assert attaches[0].fields["memory_host"] == "node1"
        assert steals[0].fields["bytes"] == 4 * MIB
        # Detach happened after datapath traffic, so the shared sim
        # clock has advanced past the attach timestamp.
        assert detaches[0].t > attaches[0].t >= 0.0
        assert validate_event_jsonl(log.to_jsonl()) == log.total

    def test_events_route_serves_live_journal(self):
        with session(events=EventLog()):
            testbed = Testbed()
            testbed.attach("node0", 2 * MIB, memory_host="node1")
            api = RestApi(testbed.plane)
            status, body = api.handle(
                "GET", "/v1/events", token=testbed.admin_token
            )
        assert status == 200
        kinds = {event["kind"] for event in body["events"]}
        assert {"control.steal", "control.attach"} <= kinds
        assert body["total"] == len(body["events"])
        assert body["evicted"] == 0

    def test_events_route_without_logging_is_503(self):
        testbed = Testbed()
        api = RestApi(testbed.plane)
        status, body = api.handle(
            "GET", "/v1/events", token=testbed.admin_token
        )
        assert status == 503
        assert body["code"] == "obs/no-event-log"

    def test_disabled_logging_costs_nothing_on_the_control_path(self):
        testbed = Testbed()
        attachment = testbed.attach("node0", 2 * MIB, memory_host="node1")
        testbed.detach(attachment)
        assert active_event_log() is None


class TestCaptureInto:
    def test_redirects_and_restores_switch_state(self):
        mine = EventLog()
        assert events_mod.ENABLED is False
        with session(events=mine):
            assert active_event_log() is mine
            assert events_mod.ENABLED is True
            events_mod.emit(1.0, "inner.tick", n=1)
        assert events_mod.ENABLED is False
        assert active_event_log() is None
        assert [e.kind for e in mine] == ["inner.tick"]

    def test_nested_journals_do_not_interleave(self):
        outer, inner = EventLog(), EventLog()
        with session(events=outer):
            events_mod.emit(0.0, "outer.a")
            with session(events=inner):
                events_mod.emit(1.0, "inner.b")
            events_mod.emit(2.0, "outer.c")
        assert [e.kind for e in outer] == ["outer.a", "outer.c"]
        assert [e.kind for e in inner] == ["inner.b"]


def _channels():
    """The installed collectors and the three hot-path flags."""
    return (
        (trace_mod._TRACER, events_mod._LOG, profiler_mod._PROFILER),
        (trace_mod.ENABLED, events_mod.ENABLED, profiler_mod.ENABLED),
    )


class TestSessionNesting:
    """A session restores exactly what it changed, so runs that journal
    into their own log leave the caller's collectors in place."""

    def test_empty_log_still_switches_logging_on(self):
        log = EventLog()
        assert len(log) == 0  # falsy, yet a collector
        with session(events=log):
            assert events_mod.ENABLED is True

    def test_nested_sessions_restore_the_outer_collectors(self):
        tracer, outer, profiler = Tracer(), EventLog(), SimProfiler()
        with session(trace=tracer, events=outer, profile=profiler):
            before = _channels()
            with session(trace=Tracer(), events=EventLog(),
                         profile=SimProfiler()):
                assert _channels()[0] != before[0]
            assert _channels() == before
        assert _channels() == ((None, None, None), (False, False, False))

    def test_nested_session_restores_when_the_block_raises(self):
        tracer, outer = Tracer(), EventLog()
        with session(trace=tracer, events=outer):
            with pytest.raises(RuntimeError, match="boom"):
                with session(events=EventLog(), profile=SimProfiler()):
                    raise RuntimeError("boom")
            assert _channels() == (
                (tracer, outer, None), (True, True, False)
            )
        assert _channels() == ((None, None, None), (False, False, False))

    def test_events_session_inside_a_tracing_session_keeps_tracing(self):
        tracer = Tracer()
        with session(trace=tracer):
            with session(events=EventLog()):
                assert trace_mod._TRACER is tracer
                assert trace_mod.ENABLED is True
            assert trace_mod._TRACER is tracer
        assert trace_mod._TRACER is None

    def test_scenario_leaves_the_callers_log_installed_and_clean(self):
        outer = EventLog()
        with session(events=outer):
            result = run_scenario("link-flap", seed=7)
            assert active_event_log() is outer
            assert events_mod.ENABLED is True
        assert result["events"], "the scenario journaled nothing"
        assert outer.total == 0


class TestMergeEventStreams:
    """Deterministic multi-domain journal merge: stable
    ``(t, domain, domain_seq)`` order, regression for the sharded
    rack-domain coordinator."""

    @staticmethod
    def stream(*records):
        return [
            {"seq": seq, "t": t, "kind": kind}
            for seq, (t, kind) in enumerate(records)
        ]

    def test_ties_break_by_domain_then_domain_seq(self):
        from repro.obs import merge_event_streams

        merged = merge_event_streams({
            "rack1": self.stream((0.0, "b0"), (0.0, "b1")),
            "rack0": self.stream((0.0, "a0"), (5.0, "a1")),
        })
        assert [r["kind"] for r in merged] == ["a0", "b0", "b1", "a1"]
        assert [r["seq"] for r in merged] == [0, 1, 2, 3]
        assert [r["domain_seq"] for r in merged] == [0, 0, 1, 1]

    def test_merge_is_independent_of_dict_insertion_order(self):
        from repro.obs import merge_event_streams

        streams_a = {
            "rack0": self.stream((1.0, "x")),
            "rack1": self.stream((1.0, "y")),
        }
        streams_b = dict(reversed(list(streams_a.items())))
        assert merge_event_streams(streams_a) == \
            merge_event_streams(streams_b)

    def test_merged_journal_passes_validator(self):
        import json

        from repro.obs import merge_event_streams

        merged = merge_event_streams({
            "rack0": self.stream((0.0, "a"), (2.0, "b")),
            "rack1": self.stream((1.0, "c")),
            "rack2": [],
        })
        text = "\n".join(json.dumps(r, sort_keys=True) for r in merged)
        assert validate_event_jsonl(text + "\n") == 3

    def test_empty_input(self):
        from repro.obs import merge_event_streams

        assert merge_event_streams({}) == []
        assert merge_event_streams({"rack0": []}) == []
