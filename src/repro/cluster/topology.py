"""Multi-rack cluster topology: one rack domain per packet-switched rack.

The Fig. 1 motivation study replays the cluster trace against abstract
capacity models; this module replays it against the *actual* control
plane. A cluster is ``racks`` independent rack domains, each owning:

* a real :class:`~repro.testbed.packet_rack.PacketRackTestbed` — its
  own simulator (= the domain clock), packet fabric, agents and
  :class:`~repro.control.orchestrator.ControlPlane`, with the first
  half of the nodes acting as borrowers and the second half as memory
  lenders;
* a :class:`RackPool` of logical machines (the rack's slice of the
  cluster's ``machines``), each with full CPU but only
  ``local_memory_fraction`` of its memory local — the disaggregation
  premise: big-memory tasks overflow into the pool;
* its slice of the cluster's synthetic Google-trace (task ``i`` is
  homed on rack ``i % racks``), replayed as *live* open-loop attach/
  detach/steal traffic.

A task whose memory exceeds the local fraction leases the overflow
from a rack lender through the full §IV-C attach workflow (path
planning, donor steal, signed config — all journaled). When the rack
pool is exhausted (donor memory, channel flows, or session pins), the
domain asks its ring neighbor for capacity with a ``borrow`` message —
the inter-rack traffic the conservative coordinator synchronizes.
Cross-rack borrowing is modeled at the capacity/latency level (a
reservation against the neighbor's export budget, one
``inter_rack_latency`` away); intra-rack leases are full-fidelity.

Determinism contract: every callback ordering derives from the domain
simulator and the sorted inbox, every random draw from the seeded
trace, and nothing here reads wall-clock — so a rack domain's artifact
is byte-identical for a given config.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ReproError
from ..mem import MIB
from ..obs import MetricsRegistry
from ..obs import EventLog, session
from ..obs import events as _events
from ..opencapi.transactions import reset_txn_ids
from ..sim.domains import DomainMessage
from ..testbed import PacketRackTestbed
from ..testbed.node import NodeSpec
from .models import best_fit
from .simulation import scaled_trace_config
from .trace import EventKind, TaskRequest, TraceEvent, downsample_trace, \
    synthesize_trace

__all__ = [
    "GOOGLE_TRACE_MACHINES",
    "ClusterConfig",
    "RackPool",
    "RackDomain",
    "build_rack_domain",
    "cluster_trace_events",
    "machines_in_rack",
    "TASK_CLASSES",
]

#: Placement outcome classes, the per-tenant statistic of the study.
TASK_CLASSES = ("local", "rack_pool", "remote_pool", "stranded", "rejected")

#: Machine count of the real Google ClusterData trace (§II); the CLI's
#: ``--scale`` knob down-samples from this.
GOOGLE_TRACE_MACHINES = 12_555


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of one cluster run."""

    racks: int = 4
    #: Physical nodes per rack testbed; first half borrow, second half
    #: lend (needs >= 2).
    nodes_per_rack: int = 4
    #: Logical machines across the whole cluster (the trace is
    #: calibrated so steady CPU demand slightly exceeds this).
    machines: int = 160
    #: Task count; ``None`` lets :func:`scaled_trace_config` size it.
    tasks: Optional[int] = None
    seed: int = 17
    #: Deterministic task-level down-sampling of the synthesized trace
    #: (the ``--scale`` companion knob for thinning a full-size trace).
    sample: float = 1.0
    #: Fraction of a machine's memory that is local; requests above it
    #: overflow into the disaggregated pool. The default puts ~16% of
    #: tasks in the overflow tail — enough lease pressure that rack
    #: pools exhaust and inter-rack borrowing happens.
    local_memory_fraction: float = 0.1
    #: Bytes corresponding to 1.0 machine-normalized memory — converts
    #: a task's overflow fraction into an attach size.
    overflow_unit_bytes: int = 32 * MIB
    #: DRAM per rack node; donor capacity is half of it (testbed rule).
    node_dram_bytes: int = 16 * MIB
    #: One-way inter-rack message latency, in trace time units. Must be
    #: >= the coordinator's lookahead (the replay engine uses it AS the
    #: lookahead, the Chandy–Misra minimum).
    inter_rack_latency: float = 50.0
    #: Fraction of a rack's donor capacity it will export to neighbors.
    export_fraction: float = 0.5
    #: Tenants (stats are reported per ``task_id % tenants``).
    tenants: int = 8
    #: Chaos scenario: each rack's first lender crashes mid-run.
    chaos: bool = False
    #: Crash time as a fraction of the horizon. The horizon is set by
    #: the longest task's finish, so the busy period (arrivals) sits in
    #: the early part of it — crash early to hit live leases.
    chaos_at_fraction: float = 0.05
    journal_capacity: int = 65536

    def __post_init__(self):
        if self.racks < 1:
            raise ValueError(f"racks must be >= 1: {self.racks}")
        if self.nodes_per_rack < 2:
            raise ValueError(
                f"nodes_per_rack must be >= 2: {self.nodes_per_rack}"
            )
        if self.machines < 1:
            raise ValueError(f"machines must be >= 1: {self.machines}")
        if not 0.0 < self.local_memory_fraction <= 1.0:
            raise ValueError(
                f"local_memory_fraction must be in (0, 1]: "
                f"{self.local_memory_fraction}"
            )
        if self.inter_rack_latency <= 0:
            raise ValueError(
                f"inter_rack_latency must be > 0: {self.inter_rack_latency}"
            )
        if not 0.0 <= self.export_fraction <= 1.0:
            raise ValueError(
                f"export_fraction must be in [0, 1]: {self.export_fraction}"
            )
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1: {self.tenants}")

    def describe(self) -> Dict[str, Any]:
        return asdict(self)


def machines_in_rack(config: ClusterConfig, rack_index: int) -> int:
    """This rack's share of the cluster's logical machines."""
    base, extra = divmod(config.machines, config.racks)
    return base + (1 if rack_index < extra else 0)


def cluster_trace_events(
    config: ClusterConfig,
) -> Tuple[List[TraceEvent], float]:
    """The cluster's trace and its horizon (last event time).

    :func:`~repro.cluster.replay.run_cluster` synthesizes it once per
    run and ships each rack domain only its own slice (task ``i`` goes
    to rack ``i % racks``, in trace order).
    """
    trace_config = scaled_trace_config(
        config.machines, tasks=config.tasks, seed=config.seed
    )
    events = synthesize_trace(trace_config)
    if config.sample < 1.0:
        events = downsample_trace(events, config.sample, seed=config.seed)
    horizon = events[-1].time if events else 0.0
    return events, horizon


class RackPool:
    """Best-fit pool of logical machines (vectorized feasibility scan)."""

    def __init__(self, machines: int, local_memory_fraction: float):
        self.machines = machines
        self.cpu_free = np.ones(machines, dtype=np.float64)
        self.mem_free = np.full(machines, local_memory_fraction, np.float64)

    def place(self, cpu: float, mem_local: float) -> Optional[int]:
        """Best-fit machine index, or ``None`` when nothing fits."""
        feasible = (self.cpu_free >= cpu) & (self.mem_free >= mem_local)
        index = best_fit(feasible, self.cpu_free - cpu)
        if index is not None:
            self.cpu_free[index] -= cpu
            self.mem_free[index] -= mem_local
        return index

    def release(self, index: int, cpu: float, mem_local: float) -> None:
        self.cpu_free[index] += cpu
        self.mem_free[index] += mem_local

    def cpu_used(self) -> float:
        return float(self.machines - self.cpu_free.sum())


class RackDomain:
    """One rack's live replay: a domain program for the coordinator.

    Implements the :mod:`repro.sim.domains` program contract
    (``advance``/``finalize``). ``events`` is this rack's slice of the
    cluster trace and ``horizon`` the whole trace's last event time
    (see :func:`cluster_trace_events`). Message kinds on the inter-rack
    ring:

    * ``borrow`` — ask the ring neighbor to reserve pool bytes;
    * ``grant`` / ``deny`` — the neighbor's verdict;
    * ``release`` — return a granted reservation.
    """

    def __init__(self, rack_index: int, config: ClusterConfig,
                 events: List[TraceEvent], horizon: float):
        # Global datapath counters must not depend on how many domains
        # this process built before us — reset so a rack's artifact
        # depends on its own config alone.
        reset_txn_ids()
        self.rack = rack_index
        self.config = config
        self.horizon = horizon
        self._log = EventLog(capacity=config.journal_capacity)
        #: Entered once per sync window: routes events into this rack's log.
        self._journal = session(events=self._log)
        spec = NodeSpec(dram_bytes=config.node_dram_bytes)
        self.testbed = PacketRackTestbed(
            nodes=config.nodes_per_rack, spec=spec
        )
        self.sim = self.testbed.sim
        half = config.nodes_per_rack // 2
        self.borrowers = [f"node{i}" for i in range(half)]
        self.lenders = [
            f"node{i}" for i in range(half, config.nodes_per_rack)
        ]
        self.dead_lenders: set = set()
        self.pool = RackPool(
            machines_in_rack(config, rack_index),
            config.local_memory_fraction,
        )
        donor_total = len(self.lenders) * (config.node_dram_bytes // 2)
        self.export_budget = int(config.export_fraction * donor_total)
        self.exported = 0
        self.exported_peak = 0
        self._msg_seq = 0
        self._outbox: List[DomainMessage] = []
        self._tasks: Dict[int, Dict[str, Any]] = {}
        self._overflow_count = 0
        self.counters = {
            "leases": 0,
            "lease_denials": 0,
            "disrupted_leases": 0,
            "borrow_sent": 0,
            "grants_received": 0,
            "denies_received": 0,
            "late_grants": 0,
            "grants_issued": 0,
            "denials_issued": 0,
            "releases_received": 0,
        }
        self.remote_wait_count = 0
        self.remote_wait_total = 0.0
        self.remote_wait_max = 0.0

        for event in events:
            if event.kind is EventKind.SUBMIT:
                self.sim.schedule_at(event.time, self._on_submit, event.task)
            else:
                self.sim.schedule_at(event.time, self._on_finish, event.task)
        if config.chaos and self.lenders and self.horizon > 0:
            self.sim.schedule_at(
                config.chaos_at_fraction * self.horizon,
                self._on_lender_crash,
            )

    # -- domain-program contract ------------------------------------------------
    def advance(self, window_end: float,
                inbox: List[DomainMessage]) -> List[DomainMessage]:
        self._outbox = []
        with self._journal:
            for message in inbox:
                self.sim.schedule_at(
                    message.deliver_t, self._on_message, message
                )
            self.sim.run(until=window_end)
        return self._outbox

    def finalize(self) -> Dict[str, Any]:
        stats = self._stats()
        registry = MetricsRegistry(f"rack{self.rack}")
        self.testbed.register_observability(registry)
        for task_class, count in stats["classes"].items():
            registry.gauge("cluster.tasks", **{"class": task_class}).set(
                count
            )
        for name, value in self.counters.items():
            registry.gauge(f"cluster.{name}").set(value)
        registry.gauge("cluster.exported_peak_bytes").set(self.exported_peak)
        registry.gauge("cluster.messages_sent").set(self._msg_seq)
        return {
            "rack": self.rack,
            "sim_now": self.sim.now,
            "stats": stats,
            "metrics": registry.snapshot(),
            "events": self._log.to_dicts(),
            "events_total": self._log.total,
            "events_evicted": self._log.evicted,
        }

    # -- trace handlers ----------------------------------------------------------
    def _on_submit(self, task: TaskRequest) -> None:
        config = self.config
        local_need = min(task.memory, config.local_memory_fraction)
        machine = self.pool.place(task.cpu, local_need)
        state = {
            "task": task,
            "machine": machine,
            "class": None,
            "attachment": None,
            "remote_bytes": 0,
            "requested_at": None,
            "finished": False,
            "disrupted": False,
        }
        self._tasks[task.task_id] = state
        if machine is None:
            state["class"] = "rejected"
            _events.emit(
                self.sim.now, "cluster.reject",
                rack=self.rack, task=task.task_id,
            )
            return
        overflow = task.memory - config.local_memory_fraction
        if overflow <= 0:
            state["class"] = "local"
            return
        nbytes = max(1, int(math.ceil(overflow * config.overflow_unit_bytes)))
        borrower = self.borrowers[
            self._overflow_count % len(self.borrowers)
        ]
        self._overflow_count += 1
        lender = self._lender_for(borrower)
        if lender is not None:
            try:
                attachment = self.testbed.attach(
                    borrower, nbytes, memory_host=lender
                )
            except ReproError as error:
                self.counters["lease_denials"] += 1
                _events.emit(
                    self.sim.now, "cluster.lease_denied",
                    rack=self.rack, task=task.task_id,
                    code=getattr(error, "code", "error"),
                )
            else:
                state["class"] = "rack_pool"
                state["attachment"] = attachment
                self.counters["leases"] += 1
                return
        if config.racks < 2:
            state["class"] = "stranded"
            return
        state["class"] = "pending_remote"
        state["remote_bytes"] = nbytes
        state["requested_at"] = self.sim.now
        self.counters["borrow_sent"] += 1
        self._send(
            "borrow", (self.rack + 1) % config.racks,
            {"task": task.task_id, "bytes": nbytes},
        )

    def _on_finish(self, task: TaskRequest) -> None:
        state = self._tasks.get(task.task_id)
        if state is None:  # pragma: no cover - defensive
            return
        state["finished"] = True
        if state["machine"] is not None:
            self.pool.release(
                state["machine"],
                task.cpu,
                min(task.memory, self.config.local_memory_fraction),
            )
            state["machine"] = None
        attachment = state["attachment"]
        if attachment is not None:
            self.testbed.detach(attachment)
            state["attachment"] = None
        if state["class"] == "remote_pool" and state["remote_bytes"]:
            self._send(
                "release", (self.rack + 1) % self.config.racks,
                {"task": task.task_id, "bytes": state["remote_bytes"]},
            )
            state["remote_bytes"] = 0

    # -- inter-rack protocol -----------------------------------------------------
    def _on_message(self, message: DomainMessage) -> None:
        payload = message.payload
        if message.kind == "borrow":
            nbytes = payload["bytes"]
            granted = self.exported + nbytes <= self.export_budget
            if granted:
                self.exported += nbytes
                self.exported_peak = max(self.exported_peak, self.exported)
                self.counters["grants_issued"] += 1
            else:
                self.counters["denials_issued"] += 1
            _events.emit(
                self.sim.now, "cluster.borrow",
                rack=self.rack, src=message.src,
                task=payload["task"], bytes=nbytes, granted=granted,
            )
            self._send(
                "grant" if granted else "deny", message.src, dict(payload)
            )
        elif message.kind in ("grant", "deny"):
            state = self._tasks.get(payload["task"])
            if state is None:  # pragma: no cover - defensive
                return
            if message.kind == "deny":
                self.counters["denies_received"] += 1
                state["class"] = "stranded"
                state["remote_bytes"] = 0
                return
            self.counters["grants_received"] += 1
            if state["finished"]:
                # The task drained before the grant arrived: the
                # reservation was never used — return it immediately.
                self.counters["late_grants"] += 1
                state["class"] = "stranded"
                self._send("release", message.src, dict(payload))
                state["remote_bytes"] = 0
                return
            state["class"] = "remote_pool"
            wait = self.sim.now - state["requested_at"]
            self.remote_wait_count += 1
            self.remote_wait_total += wait
            self.remote_wait_max = max(self.remote_wait_max, wait)
        elif message.kind == "release":
            self.exported -= payload["bytes"]
            self.counters["releases_received"] += 1

    def _send(self, kind: str, dst: int, payload: Dict[str, Any]) -> None:
        now = self.sim.now
        self._outbox.append(
            DomainMessage(
                src=self.rack,
                dst=dst,
                send_t=now,
                deliver_t=now + self.config.inter_rack_latency,
                seq=self._msg_seq,
                kind=kind,
                payload=payload,
            )
        )
        self._msg_seq += 1

    # -- chaos -------------------------------------------------------------------
    def _on_lender_crash(self) -> None:
        victim = self.lenders[0]
        self.dead_lenders.add(victim)
        self.testbed.node(victim).agent.crashed = True
        _events.emit(
            self.sim.now, "cluster.lender_crash",
            rack=self.rack, lender=victim,
        )
        for task_id in sorted(self._tasks):
            state = self._tasks[task_id]
            attachment = state["attachment"]
            if attachment is not None and attachment.memory_host == victim:
                self.testbed.detach(attachment, force=True)
                state["attachment"] = None
                state["disrupted"] = True
                self.counters["disrupted_leases"] += 1

    def _lender_for(self, borrower: str) -> Optional[str]:
        live = [l for l in self.lenders if l not in self.dead_lenders]
        if not live:
            return None
        return live[self.borrowers.index(borrower) % len(live)]

    # -- reporting ---------------------------------------------------------------
    def _stats(self) -> Dict[str, Any]:
        classes = {name: 0 for name in TASK_CLASSES}
        tenants = {
            str(t): {name: 0 for name in TASK_CLASSES}
            for t in range(self.config.tenants)
        }
        for task_id in sorted(self._tasks):
            task_class = self._tasks[task_id]["class"]
            if task_class not in classes:  # pending_remote at shutdown
                task_class = "stranded"
            classes[task_class] += 1
            tenants[str(task_id % self.config.tenants)][task_class] += 1
        return {
            "rack": self.rack,
            "machines": self.pool.machines,
            "tasks": len(self._tasks),
            "classes": classes,
            "tenants": tenants,
            "counters": dict(sorted(self.counters.items())),
            "export_budget_bytes": self.export_budget,
            "exported_peak_bytes": self.exported_peak,
            "exported_final_bytes": self.exported,
            "remote_wait": {
                "count": self.remote_wait_count,
                "total": self.remote_wait_total,
                "max": self.remote_wait_max,
            },
            "cpu_used_final": self.pool.cpu_used(),
        }


def build_rack_domain(rack_index: int, config: ClusterConfig,
                      events: List[TraceEvent], horizon: float) -> RackDomain:
    """Build one rack's domain program for the coordinator."""
    return RackDomain(rack_index, config, events, horizon)
