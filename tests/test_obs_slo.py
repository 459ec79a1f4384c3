"""SLO engine: spec grammar, evaluation semantics, breach events, and
the chaos-scenario integration that CI's breach canary relies on.
"""

import pytest

from repro.obs import (
    EventLog,
    MetricsRegistry,
    SloEngine,
    SloSpec,
    parse_slo_specs,
    session,
)
from repro.resilience import run_scenario
from repro.sim import Simulator


class TestSpecGrammar:
    def test_parse_full_spec(self):
        spec = SloSpec.parse(
            "remote-read-p99: endpoint.rtt_p99_s{endpoint=cpu0} <= 2.5e-6"
        )
        assert spec.name == "remote-read-p99"
        assert spec.metric == "endpoint.rtt_p99_s"
        assert spec.labels == (("endpoint", "cpu0"),)
        assert spec.op == "<="
        assert spec.threshold == 2.5e-6
        assert spec.qualified == "endpoint.rtt_p99_s{endpoint=cpu0}"

    def test_labels_are_optional_and_sorted(self):
        spec = SloSpec.parse("x: m{b=2,a=1} > 0")
        assert spec.labels == (("a", "1"), ("b", "2"))
        assert SloSpec.parse("y: m >= 1").labels == ()

    def test_quoted_label_values_are_stripped(self):
        spec = SloSpec.parse('x: m{node="node0"} == 0')
        assert spec.labels == (("node", "node0"),)

    @pytest.mark.parametrize("op", ["<=", "<", ">=", ">", "=="])
    def test_all_operators_parse(self, op):
        assert SloSpec.parse(f"x: m {op} 1").op == op

    @pytest.mark.parametrize(
        "bad",
        [
            "no-colon m <= 1",
            "x: m != 1",          # unsupported operator
            "x: m <= not-a-number",
            "x: m{oops} <= 1",    # label without '='
            "x: <= 1",            # missing metric
        ],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            SloSpec.parse(bad)

    def test_parse_slo_specs_skips_blanks_and_comments(self):
        specs = parse_slo_specs(
            ["# header", "", "a: m <= 1", "   ", "b: n > 0"]
        )
        assert [spec.name for spec in specs] == ["a", "b"]

    def test_check_applies_operator(self):
        spec = SloSpec.parse("x: m < 5")
        assert spec.check(4.9) and not spec.check(5.0)


class TestEvaluation:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("health.failovers", component="health").inc(1)
        registry.gauge(
            "health.last_recovery_time_s", component="health"
        ).set(2e-4)
        return registry

    def test_objectives_hold(self):
        engine = SloEngine(parse_slo_specs([
            "single: health.failovers{component=health} <= 1",
            "fast: health.last_recovery_time_s{component=health} < 1e-3",
        ]))
        report = engine.evaluate(self._registry(), now=1.0)
        assert report.ok and report.exit_code() == 0
        assert report.breaches == []

    def test_breach_is_reported_with_reason(self):
        engine = SloEngine(parse_slo_specs(
            ["none: health.failovers{component=health} == 0"]
        ))
        report = engine.evaluate(self._registry(), now=2.0)
        assert not report.ok and report.exit_code() == 1
        breach = report.breaches[0]
        assert breach.value == 1
        assert "violates" in breach.reason
        assert "BREACH" in report.render()

    def test_missing_metric_is_a_breach(self):
        engine = SloEngine(parse_slo_specs(["ghost: no.such_metric >= 0"]))
        report = engine.evaluate(MetricsRegistry(), now=0.0)
        assert not report.ok
        assert report.breaches[0].value is None
        assert "absent" in report.breaches[0].reason

    def test_describe_is_json_shaped(self):
        import json

        engine = SloEngine(parse_slo_specs(
            ["none: health.failovers{component=health} == 0"]
        ))
        described = engine.evaluate(self._registry(), now=3.0).describe()
        json.dumps(described)
        assert described["breached"] == 1 and described["total"] == 1
        assert described["results"][0]["name"] == "none"

    def test_breach_emits_correlated_event(self):
        engine = SloEngine(parse_slo_specs(
            ["none: health.failovers{component=health} == 0"]
        ))
        log = EventLog()
        with session(events=log):
            engine.evaluate(
                self._registry(), now=4.5e-6,
                context={"scenario": "unit", "attachment": 9},
            )
        breaches = log.find("slo.breach", slo="none")
        assert len(breaches) == 1
        event = breaches[0]
        assert event.t == 4.5e-6
        assert event.fields["scenario"] == "unit"
        assert event.fields["attachment"] == 9
        assert event.fields["value"] == 1

    def test_no_event_when_logging_disabled(self):
        engine = SloEngine(parse_slo_specs(
            ["none: health.failovers{component=health} == 0"]
        ))
        report = engine.evaluate(self._registry())  # must not raise
        assert not report.ok


class TestLiveWatch:
    def test_watch_evaluates_on_cadence_and_stays_bounded(self):
        sim = Simulator()
        registry = MetricsRegistry()
        gauge = registry.gauge("queue.depth")
        engine = SloEngine(parse_slo_specs(["shallow: queue.depth <= 2"]))

        gauge.set(1)
        sim.schedule(2.5e-6, lambda: gauge.set(5))  # breach mid-run

        reports = engine.watch(
            sim, registry, period_s=1e-6, ticks=4
        )
        drained_at = sim.run()  # bounded ticks: the sim still drains
        assert len(reports) == 4
        assert drained_at == pytest.approx(4e-6)
        verdicts = [report.ok for report in reports]
        assert verdicts == [True, True, False, False]
        assert reports[2].now == pytest.approx(3e-6)

    def test_watch_rejects_bad_parameters(self):
        engine = SloEngine([])
        with pytest.raises(ValueError):
            engine.watch(Simulator(), MetricsRegistry(), 0.0, 1)
        with pytest.raises(ValueError):
            engine.watch(Simulator(), MetricsRegistry(), 1e-6, 0)


class TestScenarioIntegration:
    def test_chaos_breach_canary_is_correlated(self):
        """Acceptance: the link-kill scenario's deliberate ``zero-faults``
        breach is detected and journaled with scenario/attachment
        correlation fields."""
        result = run_scenario("link-kill-failover", seed=7)
        slo = result["slo"]
        assert slo["breached"] == 1
        breached = [r for r in slo["results"] if not r["ok"]]
        assert breached[0]["name"] == "zero-faults"
        assert breached[0]["value"] >= 1  # the kill really was observed

        breach_events = [
            event for event in result["events"]
            if event["kind"] == "slo.breach"
        ]
        assert len(breach_events) == 1
        event = breach_events[0]
        assert event["slo"] == "zero-faults"
        assert event["scenario"] == "link-kill-failover"
        assert event["attachment"] == 1
        # The journal also holds the fault and the failover the breach
        # correlates with, on the same timeline.
        kinds = [e["kind"] for e in result["events"]]
        assert "fault.link_down" in kinds
        assert "health.failover" in kinds
        fault_t = min(
            e["t"] for e in result["events"]
            if e["kind"] == "fault.link_down"
        )
        assert event["t"] >= fault_t

    def test_quiet_scenarios_hold_their_objectives(self):
        result = run_scenario("link-flap", seed=7)
        assert result["slo"]["ok"] is True
        assert result["verified"] is True
