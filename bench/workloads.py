"""The six benchmark workloads.

Each workload is a set-up (timed as ``setup_s``) and one *unit* of
work (timed as ``wall_s``). Every input comes from the seed, and
``reset_txn_ids`` runs before each testbed is built, so every unit of
one seed simulates exactly the same thing: the unit's fingerprint (a
sha256 over its simulated outcome) must repeat across units and runs.

The library is called directly — never through ``SweepEngine`` or its
result cache, which would return a stored result instead of running.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.models import DisaggregatedDatacentre, FixedDatacentre
from repro.cluster.replay import run_cluster
from repro.cluster.simulation import replay_trace, scaled_trace_config
from repro.cluster.topology import ClusterConfig, cluster_trace_events
from repro.cluster.trace import EventKind, synthesize_trace
from repro.control.api import RestApi
from repro.control.qos import QosClass
from repro.control.server import ControlServer, ServerConfig
from repro.mem import CACHELINE_BYTES, MIB
from repro.net.faults import FaultInjector
from repro.obs import MetricsRegistry
from repro.opencapi.transactions import reset_txn_ids
from repro.osmodel import PagePolicy
from repro.sim.rng import SeededRNG
from repro.testbed import RemoteBuffer, Testbed
from repro.testbed.calibration import PROTOTYPE_RTT_S

from .stats import percentile

__all__ = ["UnitResult", "Workload", "WORKLOADS"]

GIB = 1 << 30


@dataclass
class UnitResult:
    """What one unit of work did, and whether it was right."""

    ops: int
    failures: List[str] = field(default_factory=list)
    #: sha256 over the simulated outcome; None where host timing shapes
    #: the result (the control plane under live load).
    fingerprint: Optional[str] = None
    #: Workload-specific end-to-end values (``sim_bw_gib_s``, ``ctl_*``).
    values: Dict[str, float] = field(default_factory=dict)
    #: Per-arrival latencies, for open-loop workloads.
    latencies: List[float] = field(default_factory=list)
    #: Replay counts for the per-layer ledger.
    replay: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``setup(seed, size)`` builds the state one unit consumes.
    setup: Callable[[int, Any], Any]
    unit: Callable[[Any], UnitResult]
    #: Size of one unit in the full run and in ``--smoke``.
    size: Any
    smoke_size: Any
    #: Registry snapshot of the state after a unit (per-layer counters).
    snapshot: Callable[[Any], Dict[str, float]] = lambda state: {}
    teardown: Callable[[Any], None] = lambda state: None
    #: Open loop: one unit runs for the whole measuring window and each
    #: arrival is a timed operation (the window length is its size).
    open_loop: bool = False
    #: Transactions cross the simulated datapath (sim-time ledger).
    datapath: bool = False


def _digest(*parts: Any) -> str:
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            sha.update(part)
        else:
            sha.update(json.dumps(part, sort_keys=True).encode())
    return sha.hexdigest()


# -- datapath workloads --------------------------------------------------------


@dataclass
class _Datapath:
    testbed: Testbed
    buffer: Optional[RemoteBuffer]
    data: bytes
    lines: List[int] = field(default_factory=list)
    window_start: int = 0


def _testbed_snapshot(state) -> Dict[str, float]:
    registry = MetricsRegistry()
    state.testbed.register_observability(registry)
    return registry.snapshot()


def _copy_setup(seed: int, nbytes: int, bonded: bool = False,
                drop_probability: float = 0.0) -> _Datapath:
    reset_txn_ids()
    rng = SeededRNG(seed)
    injectors = None
    if drop_probability:
        injectors = {
            channel: FaultInjector(
                rng=rng.derive(f"drops/ch{channel}"),
                drop_probability=drop_probability,
            )
            for channel in (0, 1)
        }
    testbed = Testbed(fault_injectors=injectors)
    attachment = testbed.attach(
        "node0", max(4 * MIB, nbytes), memory_host="node1", bonded=bonded
    )
    buffer = RemoteBuffer.allocate(
        testbed.node0, nbytes, policy=PagePolicy.BIND,
        numa_nodes=[attachment.plan.numa_node_id],
    )
    return _Datapath(testbed, buffer, rng.derive("data").bytes(nbytes))


def _copy_unit(state: _Datapath) -> UnitResult:
    """Write the buffer, read it back, drain the simulator, verify."""
    sim = state.testbed.sim
    started = sim.now
    state.buffer.write(0, state.data)
    back = state.buffer.read(0, len(state.data))
    sim_s = sim.now - started
    # Quiescence: replay timers and credit returns finish before the
    # counters (and the credit-leak check) are read.
    state.testbed.run()
    failures = []
    if back != state.data:
        failures.append("read-back bytes differ from the written bytes")
    return UnitResult(
        ops=1,
        failures=failures,
        fingerprint=_digest(sim_s, sim.now, sim.event_count,
                            _testbed_snapshot(state), back),
        values={"sim_bw_gib_s": 2 * len(state.data) / sim_s / GIB},
    )


def _lossy_unit(state: _Datapath) -> UnitResult:
    result = _copy_unit(state)
    per_channel = state.testbed.node0.device.routing.per_channel_tx
    if min(per_channel) == 0:
        result.failures.append(
            f"bonded attach did not spray both channels: {per_channel}"
        )
    return result


def _pingpong_setup(seed: int, ops: int) -> _Datapath:
    reset_txn_ids()
    rng = SeededRNG(seed)
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    window = testbed.remote_window_range(attachment)
    pairs = ops // 2
    lines = rng.derive("lines").sample_indices(
        4 * MIB // CACHELINE_BYTES, pairs
    )
    return _Datapath(
        testbed, None, rng.derive("data").bytes(pairs * CACHELINE_BYTES),
        lines=[int(line) for line in lines], window_start=window.start,
    )


def _pingpong_unit(state: _Datapath) -> UnitResult:
    """Alternate single-line stores and loads, one outstanding."""
    node = state.testbed.node0
    failures = []
    for index, line in enumerate(state.lines):
        address = state.window_start + line * CACHELINE_BYTES
        payload = state.data[index * CACHELINE_BYTES:
                             (index + 1) * CACHELINE_BYTES]
        node.run_store(address, payload)
        if node.run_load(address, CACHELINE_BYTES) != payload:
            failures.append(f"line {line}: load returned other bytes")
    state.testbed.run()
    rtt_s = node.device.compute.rtt.mean
    low, high = 0.95 * PROTOTYPE_RTT_S, PROTOTYPE_RTT_S + 400e-9
    if not low <= rtt_s <= high:
        failures.append(
            f"mean RTT {rtt_s * 1e9:.2f} ns outside the calibration band "
            f"[{low * 1e9:.1f}, {high * 1e9:.1f}] ns"
        )
    sim = state.testbed.sim
    return UnitResult(
        ops=2 * len(state.lines),
        failures=failures,
        fingerprint=_digest(sim.now, sim.event_count,
                            _testbed_snapshot(state)),
        values={"sim_rtt_ns": rtt_s * 1e9},
    )


# -- trace replays -------------------------------------------------------------


@dataclass
class _Fig1:
    units: int
    events: list


def _fig1_setup(seed: int, units: int) -> _Fig1:
    return _Fig1(units, synthesize_trace(scaled_trace_config(units, seed=seed)))


def _fig1_unit(state: _Fig1) -> UnitResult:
    """``run_fig1_experiment`` after its trace synthesis: both models."""
    reports = {
        "fixed": replay_trace(FixedDatacentre(state.units), state.events),
        "disaggregated": replay_trace(
            DisaggregatedDatacentre(state.units, state.units, 16),
            state.events,
        ),
    }
    failures = []
    for model, report in reports.items():
        for key in ("cpu_fragmentation_pct", "memory_fragmentation_pct",
                    "compute_off_pct", "memory_off_pct"):
            value = getattr(report, key)
            if not 0.0 <= value <= 100.0:
                failures.append(f"{model}.{key} = {value} outside [0, 100]")
    return UnitResult(
        ops=1,
        failures=failures,
        fingerprint=_digest({k: asdict(r) for k, r in reports.items()}),
    )


@dataclass
class _Cluster:
    config: ClusterConfig
    submits: int
    artifact: Optional[Dict] = None


def _cluster_setup(seed: int, shape: tuple) -> _Cluster:
    racks, machines, tasks = shape
    config = ClusterConfig(racks=racks, machines=machines, tasks=tasks,
                           seed=seed)
    events, _horizon = cluster_trace_events(config)
    submits = sum(1 for e in events if e.kind is EventKind.SUBMIT)
    return _Cluster(config, submits)


def _cluster_unit(state: _Cluster) -> UnitResult:
    artifact, _runtime = run_cluster(state.config, jobs=1)
    state.artifact = artifact
    summary = artifact["summary"]
    failures = []
    if summary["tasks"] != state.submits:
        failures.append(
            f"replayed {summary['tasks']} tasks of {state.submits} submitted"
        )
    if sum(summary["classes"].values()) != summary["tasks"]:
        failures.append(f"task classes do not add up: {summary['classes']}")
    return UnitResult(
        ops=1,
        failures=failures,
        fingerprint=_digest(artifact),
        replay={
            "domains.rounds": artifact["rounds"],
            "domains.messages": artifact["messages"],
            "cluster.attaches": summary["counters"].get("leases", 0),
        },
    )


def _cluster_snapshot(state: _Cluster) -> Dict[str, float]:
    """Every rack's metrics, labelled by domain as ``run_cluster`` does."""
    registry = MetricsRegistry()
    for rack in state.artifact["racks"]:
        registry.merge_flat(rack["metrics"], domain=f"rack{rack['rack']}")
    return registry.snapshot()


# -- control plane under open-loop load ------------------------------------------

#: The three tenants of ``repro.control.loadgen``'s standard harness:
#: (name, share of arrivals, QoS class, quota).
_TENANTS = (
    ("gold", 0.2, QosClass.GUARANTEED, {}),
    ("silver", 0.4, QosClass.BURSTABLE,
     {"max_attachments": 24, "max_bytes": 64 << 20}),
    ("bronze", 0.4, QosClass.BEST_EFFORT,
     {"max_attachments": 4, "max_bytes": 8 << 20}),
)
_ATTACH_FRACTION = 0.2
_ATTACH_BYTES = 1 << 20
_HOLD_S = 0.05
_RATE_RPS = 200.0
_CONNECTIONS = 2
_REFUSED = (429, 503)


class _KeepAlive:
    """One persistent HTTP/1.1 connection; its requests run in turn."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()

    async def request(self, method: str, target: str, token: str,
                      body: Optional[Dict] = None):
        payload = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Authorization: Bearer {token}\r\n"
            f"Content-Length: {len(payload)}\r\n"
        )
        if payload:
            head += "Content-Type: application/json\r\n"
        async with self.lock:
            self.writer.write(head.encode("latin-1") + b"\r\n" + payload)
            await self.writer.drain()
            status_line = await self.reader.readline()
            if not status_line:
                raise ConnectionResetError("server closed the connection")
            status = int(status_line.split()[1])
            length = 0
            while True:
                line = await self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            blob = await self.reader.readexactly(length) if length else b""
        return status, (json.loads(blob) if blob else {})

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


@dataclass
class _Control:
    loop: asyncio.AbstractEventLoop
    server: ControlServer
    connections: List[_KeepAlive]
    tokens: List[str]
    #: (offset s, tenant index, is_attach) for every arrival.
    schedule: List[tuple]


def _arrivals(seed: int, seconds: float) -> List[tuple]:
    rng = random.Random(f"control/{seed}")
    weights = [share for _name, share, _qos, _quota in _TENANTS]
    schedule, offset = [], 0.0
    while True:
        offset += rng.expovariate(_RATE_RPS)
        if offset >= seconds:
            return schedule
        tenant = rng.choices(range(len(_TENANTS)), weights=weights)[0]
        schedule.append((offset, tenant, rng.random() < _ATTACH_FRACTION))


async def _boot(schedule: List[tuple]) -> _Control:
    testbed = Testbed()
    testbed.plane.best_effort_reserve = 0.25
    registry = MetricsRegistry()
    api = RestApi(testbed.plane, registry=registry)
    tokens = [
        testbed.plane.register_tenant(name, qos=qos, **quota)
        for name, _share, qos, quota in _TENANTS
    ]
    server = ControlServer(
        api, ServerConfig(workers=4, max_queue_depth=64), registry=registry
    )
    await server.start()
    connections = []
    for _ in range(_CONNECTIONS):
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        connections.append(_KeepAlive(reader, writer))
    return _Control(asyncio.get_running_loop(), server, connections, tokens,
                    schedule)


def _control_setup(seed: int, seconds: float) -> _Control:
    loop = asyncio.new_event_loop()
    return loop.run_until_complete(_boot(_arrivals(seed, seconds)))


async def _attach_cycle(conn: _KeepAlive, token: str,
                        scheduled: float) -> tuple:
    """POST, hold, validating GET, DELETE.

    Returns the POST's status, its latency from ``scheduled`` and the
    first failure of the cycle (or None).
    """
    status, body = await conn.request(
        "POST", "/v1/attachments", token,
        {"compute_host": "node0", "size": _ATTACH_BYTES},
    )
    latency = perf_counter() - scheduled
    if status != 201:
        return status, latency, None
    await asyncio.sleep(_HOLD_S)
    target = f"/v1/attachments/{body['id']}"
    got_status, got = await conn.request("GET", target, token)
    failure = None
    if got_status != 200 or got != body:
        failure = f"GET {target} -> {got_status} {got} after 201 {body}"
    # A detach shed under load must be retried, or the quota leaks.
    for _attempt in range(20):
        gone, _ = await conn.request("DELETE", target, token)
        if gone not in _REFUSED:
            break
        await asyncio.sleep(0.05)
    if gone != 204:
        failure = failure or f"DELETE {target} -> {gone}"
    return status, latency, failure


async def _arrival(state: _Control, index: int, scheduled: float,
                   tenant: int, is_attach: bool) -> dict:
    conn = state.connections[index % _CONNECTIONS]
    token = state.tokens[tenant]
    record = {"attach": is_attach, "status": 0, "failure": None}
    try:
        if is_attach:
            record["status"], record["latency"], record["failure"] = (
                await _attach_cycle(conn, token, scheduled)
            )
        else:
            status, body = await conn.request("GET", "/v1/state", token)
            record["status"], record["latency"] = (
                status, perf_counter() - scheduled
            )
            if status == 200 and "state" not in body:
                record["failure"] = "GET /v1/state body lacks the state"
    except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
        record["failure"] = f"{type(exc).__name__}: {exc}"
    record.setdefault("latency", perf_counter() - scheduled)
    if record["failure"] is None and record["status"] not in (
        200, 201, *_REFUSED
    ):
        record["failure"] = f"unexpected status {record['status']}"
    return record


async def _drive(state: _Control) -> UnitResult:
    # Warm-up outside the schedule: one read and one attach cycle.
    await state.connections[0].request("GET", "/v1/state", state.tokens[0])
    await _attach_cycle(state.connections[0], state.tokens[0],
                        perf_counter())
    loop = asyncio.get_running_loop()
    tasks, lags = [], []
    start = perf_counter()
    for index, (offset, tenant, is_attach) in enumerate(state.schedule):
        due = start + offset
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(perf_counter() - due)
        tasks.append(loop.create_task(
            _arrival(state, index, due, tenant, is_attach)
        ))
    records = await asyncio.gather(*tasks)
    return _control_result(records, lags)


def _control_result(records: List[dict], lags: List[float]) -> UnitResult:
    """Latency percentiles, refusals and failures of one window.

    A refused or failed arrival missed every latency limit, so it
    enters the all-arrivals latencies as +inf.
    """
    if not records:  # a window too short for any arrival
        return UnitResult(ops=0)
    latencies, reads, attaches, failures, refused = [], [], [], [], 0
    for record in records:
        if record["failure"] is not None:
            failures.append(record["failure"])
        elif record["status"] in _REFUSED:
            refused += 1
        else:
            latencies.append(record["latency"])
            (attaches if record["attach"] else reads).append(
                record["latency"]
            )
            continue
        latencies.append(float("inf"))
    values = {
        "ctl_refused_frac": refused / len(records),
        "ctl_p99_ms": percentile(latencies, 99) * 1e3,
        "loadgen.lag_p99_ms": percentile(lags, 99) * 1e3,
    }
    if reads:
        values["ctl_read_p50_ms"] = percentile(reads, 50) * 1e3
    if attaches:
        values["ctl_attach_p50_ms"] = percentile(attaches, 50) * 1e3
    return UnitResult(ops=len(records), failures=failures, values=values,
                      latencies=latencies)


def _control_unit(state: _Control) -> UnitResult:
    return state.loop.run_until_complete(_drive(state))


def _control_teardown(state: _Control) -> None:
    async def close():
        for conn in state.connections:
            await conn.close()
        await state.server.drain()
        # The server's connection handlers finish once they see EOF.
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=1.0)
        for task in handlers:
            task.cancel()

    state.loop.run_until_complete(close())
    state.loop.close()


def _control_snapshot(state: _Control) -> Dict[str, float]:
    return state.server.registry.snapshot()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "stream",
            "burst datapath end to end: kernel dispatch, OpenCAPI bus, LLC "
            "framing, link pump and DRAM banks; no control plane",
            setup=_copy_setup, unit=_copy_unit,
            size=1 * MIB, smoke_size=128 * 1024,
            snapshot=_testbed_snapshot, datapath=True,
        ),
        Workload(
            "pingpong",
            "per-transaction fixed cost and the ~950 ns RTT claim; burst "
            "batching is bypassed, so a bulk-path change must not move it",
            setup=_pingpong_setup, unit=_pingpong_unit,
            size=4096, smoke_size=256,
            snapshot=_testbed_snapshot, datapath=True,
        ),
        Workload(
            "lossy",
            "stream's layers used differently: bonded spray plus LLC "
            "retention, replay and timeout recovery under seeded drops",
            setup=lambda seed, nbytes: _copy_setup(
                seed, nbytes, bonded=True, drop_probability=2e-3
            ),
            unit=_lossy_unit,
            size=512 * 1024, smoke_size=128 * 1024,
            snapshot=_testbed_snapshot, datapath=True,
        ),
        Workload(
            "fig1_replay",
            "Fig. 1 trace replay: best-fit placement and utilization "
            "sampling in cluster.models/simulation, no datapath",
            setup=_fig1_setup, unit=_fig1_unit,
            size=120, smoke_size=30,
        ),
        Workload(
            "cluster_replay",
            "multi-rack replay: sim.domains sync, RackPool placement and "
            "the planner, one process (jobs=1)",
            setup=_cluster_setup, unit=_cluster_unit,
            size=(4, 160, 2400), smoke_size=(2, 40, 300),
            snapshot=_cluster_snapshot,
        ),
        Workload(
            "control",
            "HTTP control plane under open-loop Poisson load at 200 rps: "
            "parse, admission queue, workers, planner and attach path",
            setup=_control_setup, unit=_control_unit,
            size=None, smoke_size=None,
            snapshot=_control_snapshot, teardown=_control_teardown,
            open_loop=True,
        ),
    )
}
