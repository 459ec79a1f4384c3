"""End-to-end chaos scenarios: seeded, deterministic, self-checking.

Each scenario builds a rack, attaches disaggregated memory, arms a
fault campaign against the lender's fault domain, drives a STREAM-like
write/read workload through the failure, and (where the fault is fatal)
executes a monitored failover. Scenarios return a JSON-able result
dict whose ``metrics`` block is a sorted snapshot of the metrics
registry — two runs with the same seed produce byte-identical JSON,
which the chaos-smoke CI job diffs.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

from ..control.health import HealthMonitor
from ..core.endpoints import RetryPolicy
from ..errors import RemoteMemoryError, ReproError
from ..obs import EventLog, session
from ..obs.metrics import MetricsRegistry
from ..obs.slo import SloEngine, parse_slo_specs
from ..opencapi.transactions import reset_txn_ids
from ..sim.rng import SeededRNG
from ..testbed.rack import RackTestbed
from .campaigns import Brownout, LinkFlap, LinkKill, ensure_injector
from .journal import ResilientBuffer

__all__ = ["SCENARIOS", "SCENARIO_SLOS", "run_scenario"]

KIB = 1024

#: Endpoint recovery knobs shared by the scenarios: three attempts with
#: a tight timeout keeps failure detection inside a few hundred µs.
_TIMEOUT_S = 20e-6
_POLICY = RetryPolicy(
    max_attempts=3, backoff_base_s=2e-6, multiplier=2.0,
    backoff_max_s=20e-6,
)

#: Per-scenario service-level objectives, evaluated against the final
#: registry snapshot. ``zero-faults`` in the kill scenario is the CI
#: canary: a link kill *must* record at least one datapath failure, so
#: that objective deterministically breaches — proving breach
#: detection and its correlated event-log entry end to end. The other
#: objectives are real invariants: exactly one failover heals the
#: attachment, the journal replays the buffer, and recovery stays
#: inside a generous 5 ms ceiling.
SCENARIO_SLOS: Dict[str, tuple] = {
    "link-kill-failover": (
        "zero-faults: health.failures_observed{component=health} == 0",
        "single-failover: health.failovers{component=health} <= 1",
        "journal-replayed: health.replayed_bytes{component=health} >= 1",
        "failover-recovery:"
        " health.last_recovery_time_s{component=health} <= 5e-3",
    ),
    "link-flap": (
        "no-failover: health.failovers{component=health} == 0",
        "no-dead-attachments:"
        " health.attachments_dead{component=health} == 0",
    ),
    "brownout": (
        "no-failover: health.failovers{component=health} == 0",
        "no-dead-attachments:"
        " health.attachments_dead{component=health} == 0",
    ),
}


def _finish(rack, attachment, registry, log: EventLog,
            result: Dict) -> Dict:
    """Evaluate ``result["scenario"]``'s SLOs and attach telemetry to
    the result.

    Called inside the scenario's session, so breach events land in its
    journal ``log`` with the scenario and attachment as correlation
    context; the journal is then embedded. Both blocks are pure
    sim-time artifacts — seeded runs stay byte-identical, which the
    chaos-smoke CI job diffs.
    """
    scenario = result["scenario"]
    engine = SloEngine(parse_slo_specs(SCENARIO_SLOS[scenario]))
    report = engine.evaluate(
        registry,
        now=rack.sim.now,
        context={
            "scenario": scenario,
            "attachment": attachment.attachment_id,
        },
    )
    result["slo"] = report.describe()
    result["events"] = log.to_dicts()
    return result


def _build_rack(seed: int):
    """3-node rack with a monitored, journaled attachment 1 -> 0."""
    # The event journal embeds transaction ids (its correlation link to
    # trace spans); rewinding the global counter here makes a seeded
    # scenario's artifact byte-identical no matter what ran earlier in
    # the same process.
    reset_txn_ids()
    rack = RackTestbed(nodes=3, channels_per_node=2)
    attachment = rack.attach("node0", 2 * 1024 * KIB,
                             memory_host="node1")
    endpoint = rack.node("node0").device.compute
    endpoint.transaction_timeout_s = _TIMEOUT_S
    endpoint.retry_policy = _POLICY
    buffer = ResilientBuffer.attach_buffer(rack, attachment,
                                           size=64 * KIB)
    monitor = HealthMonitor(rack)
    monitor.watch(attachment, buffer=buffer)
    registry = MetricsRegistry()
    rack.register_observability(registry)
    monitor.register_metrics(registry)
    return rack, attachment, buffer, monitor, registry


def _payload(seed: int, size: int) -> bytes:
    return random.Random(seed).randbytes(size)


def _arm(rack, campaign, hostname: str, seed: int) -> None:
    rng = SeededRNG(seed).derive("chaos")
    injectors = [
        ensure_injector(link, rng.derive(link.name))
        for link in rack.links_of(hostname)
    ]
    campaign.arm(rack.sim, injectors,
                 agent=rack.node(hostname).agent)


def run_link_kill_failover(seed: int = 7) -> Dict:
    """Permanent lender link death mid-workload, healed by failover.

    Acceptance-criteria scenario: after the kill, writes exhaust the
    retry budget and raise; the monitor fails the attachment over to
    the surviving lender; the journal replay makes the new lender's
    bytes identical; a final drain proves nothing is left hanging.
    """
    # The journal opens before the rack is built so the initial
    # control.steal/control.attach events are captured too.
    log = EventLog()
    with session(events=log):
        rack, attachment, buffer, monitor, registry = _build_rack(seed)
        data = _payload(seed, buffer.size)
        chunk = 8 * KIB
        half = buffer.size // 2

        for offset in range(0, half, chunk):
            buffer.write(offset, data[offset : offset + chunk])

        _arm(rack, LinkKill(at_s=10e-6), "node1", seed)

        failed_at = None
        report = None
        offset = half
        while offset < buffer.size:
            try:
                buffer.write(offset, data[offset : offset + chunk])
                offset += chunk
            except RemoteMemoryError:
                if report is not None:
                    raise  # a second failure after failover is a real bug
                failed_at = offset
                # Rebinds `buffer` in place onto the surviving lender.
                report = monitor.failover(attachment.attachment_id)

        if report is None:
            raise ReproError("link kill never surfaced as a failure")

        readback = buffer.read(0, buffer.size)
        verified = readback == data
        drained_at = rack.run()  # proves no hung processes / stuck timers

        return _finish(rack, attachment, registry, log, {
            "scenario": "link-kill-failover",
            "seed": seed,
            "verified": verified,
            "failed_at_offset": failed_at,
            "report": report.describe(),
            "health": monitor.describe(),
            "drained_at_s": drained_at,
            "metrics": registry.snapshot(),
        })


def run_link_flap(seed: int = 7) -> Dict:
    """Transient outage shorter than the retry budget: no failover.

    The link dies for 30 µs mid-write; endpoint retries (fresh txn ids)
    plus LLC replay ride it out, and the attachment stays put.
    """
    log = EventLog()
    with session(events=log):
        rack, attachment, buffer, monitor, registry = _build_rack(seed)
        data = _payload(seed, buffer.size)

        buffer.write(0, data[: buffer.size // 2])
        _arm(rack, LinkFlap(at_s=5e-6, duration_s=30e-6), "node1", seed)
        buffer.write(buffer.size // 2, data[buffer.size // 2 :])

        readback = buffer.read(0, buffer.size)
        endpoint = rack.node("node0").device.compute
        drained_at = rack.run()

        return _finish(rack, attachment, registry, log, {
            "scenario": "link-flap",
            "seed": seed,
            "verified": readback == data,
            "failovers": monitor.failovers,
            "endpoint_retries": endpoint.retries,
            "endpoint_timeouts": endpoint.timeouts,
            "health": monitor.describe(),
            "drained_at_s": drained_at,
            "metrics": registry.snapshot(),
        })


def run_brownout(seed: int = 7) -> Dict:
    """Degraded-bandwidth window: Bernoulli loss absorbed by replay."""
    log = EventLog()
    with session(events=log):
        rack, attachment, buffer, monitor, registry = _build_rack(seed)
        data = _payload(seed, buffer.size)

        _arm(
            rack,
            Brownout(at_s=5e-6, duration_s=500e-6, drop_probability=0.15),
            "node1",
            seed,
        )
        chunk = 8 * KIB
        for offset in range(0, buffer.size, chunk):
            buffer.write(offset, data[offset : offset + chunk])

        readback = buffer.read(0, buffer.size)
        dropped = sum(
            link.faults.frames_dropped
            for link in rack.links_of("node1")
            if link.faults is not None
        )
        drained_at = rack.run()

        return _finish(rack, attachment, registry, log, {
            "scenario": "brownout",
            "seed": seed,
            "verified": readback == data,
            "failovers": monitor.failovers,
            "frames_dropped": dropped,
            "health": monitor.describe(),
            "drained_at_s": drained_at,
            "metrics": registry.snapshot(),
        })


SCENARIOS: Dict[str, Callable[[int], Dict]] = {
    "link-kill-failover": run_link_kill_failover,
    "link-flap": run_link_flap,
    "brownout": run_brownout,
}


def run_scenario(name: str, seed: int = 7) -> Dict:
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ReproError(
            f"unknown scenario {name!r} "
            f"(have: {', '.join(sorted(SCENARIOS))})",
            code="resilience/unknown-campaign",
        ) from None
    return scenario(seed)
