"""``run_cell``: the sweep target that simulates one design point.

One *cell* = one configuration (a design point over the DSE factor
space) + one seed. The runner builds a 3-node rack with the cell's LLC
geometry, attaches journaled disaggregated memory under the cell's
failover policy, drives a chunked write workload, arms the cell's fault
campaign mid-workload against the lender's fault domain, recovers as
the policy allows, and returns a JSON-able record: validated factors,
raw progress counters, the response vector, the (fault/health) event
journal slice and a filtered metrics snapshot.

Everything inside is a pure function of the kwargs + seed — sim-time
only, seeded RNG streams, txn-id counter rewound — so the cell is
sound to cache under its :class:`~repro.sweep.RunSpec` content address
and bit-stable across in-process and pool-worker execution.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from ...control.health import HealthMonitor, HealthState
from ...core.endpoints import RetryPolicy
from ...core.llc import LlcConfig
from ...errors import RemoteMemoryError, ReproError
from ...obs import EventLog, session
from ...obs.metrics import MetricsRegistry
from ...opencapi.transactions import reset_txn_ids
from ...sim.rng import SeededRNG
from ...testbed.rack import RackTestbed
from ..campaigns import (
    ensure_injector,
    make_campaign,
    validate_campaign_params,
)
from ..journal import ResilientBuffer
from .factors import FAILOVER_POLICIES, DseDesignError, default_space

__all__ = ["CELL_TARGET", "DEFAULT_FAULT_AT_S", "run_cell"]

KIB = 1024

#: Spec target string for building cell RunSpecs.
CELL_TARGET = "py:repro.resilience.dse.runner:run_cell"

#: Sim delay from arming (mid-workload) to the fault taking effect,
#: unless the cell overrides ``at_s`` in ``campaign_params``.
DEFAULT_FAULT_AT_S = 10e-6

#: Workload chunk size; the failure/recovery loop advances chunkwise.
CHUNK = 8 * KIB

#: Event kinds preserved in the cell record (response extraction reads
#: these; control-plane chatter is dropped to keep cells small).
_EVENT_PREFIXES = ("fault.", "health.")

#: Metric families preserved in the cell's snapshot.
_METRIC_PREFIXES = (
    "dse.", "health.", "endpoint.", "llc.", "link.", "net.faults.",
)


def _filter_events(log: EventLog) -> list:
    return [
        event.as_dict()
        for event in log
        if event.kind.startswith(_EVENT_PREFIXES)
    ]


def _filter_snapshot(snapshot: Dict[str, float]) -> Dict[str, float]:
    return {
        key: value
        for key, value in snapshot.items()
        if key.startswith(_METRIC_PREFIXES)
    }


def run_cell(
    frame_flits: int = 16,
    credit_depth: int = 256,
    bonding: bool = False,
    loss_rate: float = 0.0,
    campaign: str = "link-kill",
    failover_policy: str = "fast",
    campaign_params: Optional[Dict[str, Any]] = None,
    payload_kib: int = 64,
    seed: int = 0,
) -> Dict[str, Any]:
    """Simulate one design point through its fault; return the record.

    Raises :class:`~repro.resilience.dse.factors.DseDesignError` for
    out-of-range factor levels and the campaign errors for unknown
    campaigns/parameters — *before* any simulator is built, so a bad
    cell never pollutes the result cache.
    """
    point = default_space().validate_point({
        "frame_flits": frame_flits,
        "credit_depth": credit_depth,
        "bonding": bonding,
        "loss_rate": loss_rate,
        "campaign": campaign,
        "failover_policy": failover_policy,
    })
    if payload_kib < 1:
        raise DseDesignError(
            f"payload_kib must be >= 1, got {payload_kib}"
        )
    if point["campaign"] == "none":
        if campaign_params:
            raise DseDesignError(
                "campaign_params given but campaign is 'none'"
            )
        fault_params: Dict[str, float] = {}
    else:
        fault_params = {
            "at_s": DEFAULT_FAULT_AT_S,
            **validate_campaign_params(
                point["campaign"], dict(campaign_params or {})
            ),
        }
    policy = FAILOVER_POLICIES[point["failover_policy"]]

    # Rewind the global txn-id counter: the journal embeds txn ids, and
    # a cached cell must hash identically no matter what ran earlier in
    # this process.
    reset_txn_ids()
    log = EventLog()
    with session(events=log):
        rack = RackTestbed(
            nodes=3,
            channels_per_node=2,
            llc_config=LlcConfig(
                flits_per_frame=point["frame_flits"],
                rx_queue_slots=point["credit_depth"],
            ),
        )
        attachment = rack.attach(
            "node0", 2 * 1024 * KIB,
            memory_host="node1", bonded=point["bonding"],
        )
        endpoint = rack.node("node0").device.compute
        endpoint.transaction_timeout_s = policy.timeout_s
        endpoint.retry_policy = RetryPolicy(
            max_attempts=policy.max_attempts,
            backoff_base_s=policy.backoff_base_s,
            multiplier=2.0,
            backoff_max_s=policy.backoff_max_s,
        )
        size = payload_kib * KIB
        buffer = ResilientBuffer.attach_buffer(rack, attachment, size=size)
        monitor = HealthMonitor(
            rack, dead_after_failures=policy.dead_after_failures
        )
        monitor.watch(attachment, buffer=buffer)
        registry = MetricsRegistry()
        rack.register_observability(registry)
        monitor.register_metrics(registry)

        rng = SeededRNG(seed).derive("dse-cell")
        if point["loss_rate"] > 0.0:
            # Ambient degradation: every lender link drops frames at
            # the cell's Bernoulli rate for the whole run (absorbed by
            # LLC replay; the cost shows up as bandwidth, not loss).
            for link in rack.links_of("node1"):
                injector = ensure_injector(
                    link, rng.derive(f"ambient/{link.name}")
                )
                injector.set_drop_probability(point["loss_rate"])

        data = random.Random(seed).randbytes(size)
        state = {
            "acked": 0,
            "failed": False,
            "attachment": attachment,
            "report": None,
        }

        def drive(start: int, end: int) -> None:
            """Write [start, end) chunkwise, recovering per policy."""
            offset = start
            retries_here = 0
            errors = 0
            while offset < end and not state["failed"]:
                try:
                    buffer.write(offset, data[offset : offset + CHUNK])
                except RemoteMemoryError:
                    errors += 1
                    if errors > 8:  # termination backstop
                        state["failed"] = True
                        break
                    current = state["attachment"].attachment_id
                    health = monitor.state_of(current)
                    if (
                        health is HealthState.DEAD
                        and policy.failover
                        and state["report"] is None
                    ):
                        try:
                            report = monitor.failover(current)
                        except ReproError:
                            state["failed"] = True
                            break
                        state["report"] = report
                        state["attachment"] = report.new_attachment
                        continue  # journal replayed; retry this chunk
                    if (
                        health is HealthState.DEGRADED
                        and retries_here < 2
                    ):
                        retries_here += 1
                        continue  # transient; the endpoint retries
                    state["failed"] = True
                    break
                state["acked"] = min(offset + CHUNK, end)
                offset += CHUNK
                retries_here = 0

        half = (size // 2 // CHUNK) * CHUNK
        drive(0, half)
        if point["campaign"] != "none" and not state["failed"]:
            fault = make_campaign(point["campaign"], **fault_params)
            chaos = rng.derive("campaign")
            injectors = [
                ensure_injector(link, chaos.derive(link.name))
                for link in rack.links_of("node1")
            ]
            fault.arm(rack.sim, injectors,
                      agent=rack.node("node1").agent)
        if not state["failed"]:
            drive(half, size)

        readable = True
        readback = b""
        try:
            readback = buffer.read(0, size)
        except RemoteMemoryError:
            readable = False
        verified = readable and readback == data

        if state["report"] is None:
            # No failover healed the attachment; if it is dead, force
            # the window offline so the LLC stops replaying into a dark
            # link and the drain below terminates.
            current = state["attachment"].attachment_id
            if monitor.state_of(current) is HealthState.DEAD:
                buffer.quarantine()  # unmap pages so offlining succeeds
                rack.detach(state["attachment"], force=True)

        drained_at = rack.run()

        from .responses import compute_responses

        events = _filter_events(log)
        responses = compute_responses(
            size_bytes=size,
            bytes_acked=state["acked"],
            drained_at_s=drained_at,
            events=events,
            metrics=registry.snapshot(),
            replayed_bytes=monitor.replayed_bytes,
        )
        for name, value in sorted(responses.items()):
            registry.gauge(f"dse.{name}", component="dse").set(value)

        report = state["report"]
        return {
            "factors": point,
            "seed": seed,
            "payload_kib": payload_kib,
            "campaign_params": fault_params,
            "policy": policy.describe(),
            "responses": responses,
            "bytes_acked": state["acked"],
            "write_failed": state["failed"],
            "readable": readable,
            "verified": verified,
            "failover": report.describe() if report is not None else None,
            "events": events,
            "metrics": _filter_snapshot(registry.snapshot()),
            "drained_at_s": drained_at,
        }
