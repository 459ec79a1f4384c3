"""Ablation measurements for the design choices DESIGN.md calls out.

These drive the *flit-level* simulated datapath (not the analytic
models): real transactions through RMMU → routing → LLC → wire → C1 →
donor DRAM, varying one design parameter at a time. Each function
returns the JSON payload of its ``benchmarks/results/ablation_*.json``
artifact; ``test_paper_claims.py`` checks the claims on it.

* LLC frame size (flits/frame) — padding waste vs replay granularity;
* Rx credit depth — backpressure vs in-flight parallelism;
* link loss rate — replay cost on goodput;
* channel bonding — measured bandwidth gain on the real datapath;
* §VII projections — HBM cache, SoC integration, circuit vs packet
  fabric, packet fan-in congestion;
* NUMA balancing — average access latency before/after page migration;
* §IV-A3 weighted channel sharing.
"""

from repro.core import HbmCacheConfig, LlcConfig
from repro.mem import CACHELINE_BYTES, MIB
from repro.net import (
    Addressed,
    CircuitSwitch,
    FaultInjector,
    LinkConfig,
    PacketSwitch,
    SerialLink,
)
from repro.osmodel import NumaBalancer, PagePolicy
from repro.sim import Simulator
from repro.testbed import NodeSpec, PacketRackTestbed, Testbed

#: Bytes the NUMA ablation maps on the remote node.
NUMA_MAP_BYTES = 1 * MIB


def _measure_goodput(testbed, window, workers=8, loads_per_worker=48):
    """Closed-loop bandwidth: N workers stream cacheline loads."""
    sim = testbed.sim
    lines_per_worker = loads_per_worker

    def worker(worker_index):
        base = window.start + worker_index * lines_per_worker * CACHELINE_BYTES
        for line in range(lines_per_worker):
            yield testbed.node0.bus.load(
                base + line * CACHELINE_BYTES, CACHELINE_BYTES
            )

    start = sim.now
    procs = [sim.process(worker(i), name=f"w{i}") for i in range(workers)]

    def waiter():
        yield sim.all_of(procs)

    sim.run_process(waiter())
    elapsed = sim.now - start
    total_bytes = workers * loads_per_worker * CACHELINE_BYTES
    return total_bytes / elapsed


def _build(llc_config=None, bonded=False, fault=None):
    injectors = {0: fault} if fault else None
    testbed = Testbed(llc_config=llc_config, fault_injectors=injectors)
    attachment = testbed.attach(
        "node0", 2 * MIB, memory_host="node1", bonded=bonded
    )
    window = testbed.remote_window_range(attachment)
    return testbed, window


def frame_size():
    """Goodput (B/s) per LLC frame size in flits."""
    results = {}
    for flits in (5, 16, 32):
        testbed, window = _build(LlcConfig(flits_per_frame=flits))
        results[flits] = _measure_goodput(testbed, window)
    return {str(k): v for k, v in results.items()}


def credit_depth():
    """Goodput (B/s) per Rx ingress depth in slots."""
    results = {}
    for slots in (4, 32, 256):
        testbed, window = _build(LlcConfig(rx_queue_slots=slots))
        results[slots] = _measure_goodput(testbed, window)
    return {str(k): v for k, v in results.items()}


def loss():
    """Goodput and frames replayed per link drop probability."""
    results = {}
    for probability in (0.0, 0.01, 0.05):
        fault = (
            FaultInjector(drop_probability=probability)
            if probability else None
        )
        testbed, window = _build(fault=fault)
        goodput = _measure_goodput(testbed, window)
        llc = testbed.node1.device.llcs[0]
        results[probability] = (goodput, llc.replays_served
                                + testbed.node0.device.llcs[0].replays_served)
    return {
        str(k): {"goodput": v[0], "replays": v[1]}
        for k, v in results.items()
    }


def bonding():
    """Single vs bonded goodput with demand above one channel.

    Enough outstanding lines (128 workers ≈ 16 KB in flight) that the
    demand exceeds one channel's ~12 GB/s payload capacity — below
    that, goodput is latency-bound and bonding cannot help.
    """
    single_tb, single_win = _build(bonded=False)
    bonded_tb, bonded_win = _build(bonded=True)
    return {
        "single": _measure_goodput(
            single_tb, single_win, workers=128, loads_per_worker=24
        ),
        "bonded": _measure_goodput(
            bonded_tb, bonded_win, workers=128, loads_per_worker=24
        ),
    }


def hbm():
    """An HBM layer at the compute endpoint absorbs hot reads (§VII)."""
    testbed, window = _build()
    cache = testbed.node0.device.enable_hbm_cache(
        HbmCacheConfig(size_bytes=1 * MIB)
    )
    hot_lines = 16
    # Warm: first pass misses; subsequent passes hit in HBM.
    for _ in range(4):
        for line in range(hot_lines):
            testbed.node0.run_load(window.start + line * CACHELINE_BYTES)
    recorder = testbed.node0.device.compute.rtt
    return {
        "mean_ns": recorder.mean * 1e9,
        "p50_ns": recorder.percentile(50) * 1e9,
        "hit_ratio": cache.hit_ratio,
        "hits": cache.read_hits,
    }


def integrated_soc():
    """Bus-level RTT (ns) off-chip vs integrated in the SoC (§VII)."""
    results = {}
    for label, integrated in (("fpga", False), ("soc", True)):
        testbed = Testbed(spec=NodeSpec(integrated_soc=integrated))
        attachment = testbed.attach("node0", 2 * MIB, memory_host="node1")
        window = testbed.remote_window_range(attachment)
        # Measure at the *bus* level: the device-internal RTT recorder
        # sits behind the M1 port and would not see the compute-side
        # host serdes this projection removes. The duration is captured
        # inside the process (queue-drain time would include unrelated
        # trailing LLC timers).
        sim = testbed.sim

        def timed_load():
            start = sim.now
            yield testbed.node0.bus.load(window.start, 128)
            return sim.now - start

        samples = 16
        total = sum(sim.run_process(timed_load()) for _ in range(samples))
        results[label] = total / samples
    return {k: v * 1e9 for k, v in results.items()}


class _Frame:
    wire_bytes = 512


def fabric():
    """Circuit vs packet fabric: per-frame latency and path setup (§VII).

    Unloaded latency favours circuits; packet fabrics trade a per-hop
    forwarding cost for zero reconfiguration.
    """
    config = LinkConfig()
    results = {}

    # Circuit: one optical crossing, but 20 µs reconfiguration before
    # the path exists at all.
    sim = Simulator()
    circuit = CircuitSwitch(sim, ports=2, reconfiguration_s=20e-6)
    out = SerialLink(sim, config, name="c.out")
    circuit.attach_egress(1, out)
    circuit.connect(0, 1)
    sim.run(until=25e-6)  # wait out the dark window
    start = sim.now
    circuit.ingress_store(0).try_put((_Frame(), False))
    sim.run()
    results["circuit_latency_s"] = sim.now - start
    results["circuit_setup_s"] = circuit.reconfiguration_s

    # Packet: usable instantly, higher per-frame latency.
    sim = Simulator()
    packet = PacketSwitch(sim, ports=2)
    out = SerialLink(sim, config, name="p.out")
    packet.attach_egress(1, out)
    start = sim.now
    packet.ingress_store(0).try_put((Addressed(1, _Frame()), False))
    sim.run()
    results["packet_latency_s"] = sim.now - start
    results["packet_setup_s"] = 0.0
    return results


def numa():
    """Average access latency before vs after AutoNUMA migration."""
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    kernel = testbed.node0.kernel
    remote_node = attachment.plan.numa_node_id
    mapping = kernel.mmap(
        NUMA_MAP_BYTES, PagePolicy.BIND, nodes=[remote_node]
    )
    balancer = NumaBalancer(kernel, sample_period=1, min_samples=2)

    def mean_latency():
        total = 0.0
        for page in mapping.pages:
            total += kernel.topology.latency_s(0, page.node_id)
        return total / len(mapping.pages)

    before = mean_latency()
    # The CPU node hammers half the pages; the balancer should migrate
    # exactly those.
    hot = range(0, len(mapping.pages), 2)
    for _ in range(6):
        for index in hot:
            balancer.record_access(mapping, index, cpu_node=0)
    migrated = balancer.balance(mapping)
    after = mean_latency()
    return {"before_ns": before * 1e9, "after_ns": after * 1e9,
            "migrated": migrated}


def qos():
    """Requests per channel under 1:1 and 3:1 weights (§IV-A3)."""
    results = {}
    for label, weights in (("1:1", None), ("3:1", [3, 1])):
        testbed, window = _build(bonded=True)
        attachment_flow_id = (
            testbed.plane.attachments(token=testbed.admin_token)[0]
            .flow.network_id
        )
        if weights is not None:
            testbed.node0.device.routing.install_route(
                attachment_flow_id, [0, 1], weights=weights
            )
        _measure_goodput(testbed, window, workers=32, loads_per_worker=16)
        results[label] = list(testbed.node0.device.routing.per_channel_tx)
    return results


def packet_fanin():
    """Two flows converging on one donor over the packet fabric (§VII)."""
    rack = PacketRackTestbed(nodes=4, egress_queue_frames=8)
    # node1 and node2 both borrow from node3: their response traffic
    # shares node3's downlink... and more importantly both compute flows
    # contend on node3's uplink/egress.
    a = rack.attach("node1", 1 * MIB, memory_host="node3")
    b = rack.attach("node2", 1 * MIB, memory_host="node3")
    wa = rack.remote_window_range(a)
    wb = rack.remote_window_range(b)
    sim = rack.sim

    def worker(node, window, lines):
        for line in range(lines):
            yield rack.node(node).bus.load(
                window.start + line * CACHELINE_BYTES, 128
            )

    start = sim.now
    procs = [
        sim.process(worker("node1", wa, 64)),
        sim.process(worker("node2", wb, 64)),
    ]

    def waiter():
        yield sim.all_of(procs)

    sim.run_process(waiter())
    elapsed = sim.now - start
    return {
        "elapsed_us": elapsed * 1e6,
        "congestion_drops": rack.switch.frames_dropped_congestion,
        "forwarded": rack.switch.frames_forwarded,
    }
