"""Golden digests of the simulated datapath, plus a process budget.

Each scenario hashes what the simulation produced: the final
``sim.now``, the testbed's full metrics-registry snapshot and the bytes
read back. The kernel's event count is left out on purpose, so a change
that only removes zero-delay relay hops keeps every digest, while any
change to a timestamp, a counter or a byte breaks one.

The budget test pins how many simulation processes one remote load
spawns: the bus operation on the compute side and the served request on
the donor side, plus the ``run_load`` wrapper.
"""

import hashlib
import json

import pytest

from repro.mem import CACHELINE_BYTES, MIB
from repro.net.faults import FaultInjector
from repro.obs import MetricsRegistry
from repro.opencapi.transactions import reset_txn_ids
from repro.osmodel import PagePolicy
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRNG
from repro.testbed import RemoteBuffer, Testbed

GOLDEN = {
    "copy": (
        "923c50385e3defd20a88ce385b074adaac3c2cee01718609061c098137669f15"
    ),
    "lossy_copy": (
        "c63b9797240661db60767e77e66f52e52b7b207521641d588183f64d06d9864a"
    ),
    "pingpong": (
        "04235abc2f308f1583dd97bc431450d952874d3b626d5938c546de7ee9a5cc84"
    ),
}


def _digest(testbed, back):
    registry = MetricsRegistry()
    testbed.register_observability(registry)
    sha = hashlib.sha256()
    sha.update(json.dumps(testbed.sim.now).encode())
    sha.update(json.dumps(registry.snapshot(), sort_keys=True).encode())
    sha.update(back)
    return sha.hexdigest()


def _copy(seed, nbytes, bonded=False, drop_probability=0.0):
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
        "node0", 4 * MIB, memory_host="node1", bonded=bonded
    )
    buffer = RemoteBuffer.allocate(
        testbed.node0, nbytes, policy=PagePolicy.BIND,
        numa_nodes=[attachment.plan.numa_node_id],
    )
    data = rng.derive("data").bytes(nbytes)
    buffer.write(0, data)
    back = buffer.read(0, nbytes)
    testbed.run()
    assert back == data
    if bonded:
        assert min(testbed.node0.device.routing.per_channel_tx) > 0
    return _digest(testbed, back)


def _pingpong(seed, pairs):
    reset_txn_ids()
    rng = SeededRNG(seed)
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    window = testbed.remote_window_range(attachment)
    lines = rng.derive("lines").sample_indices(
        4 * MIB // CACHELINE_BYTES, pairs
    )
    data = rng.derive("data").bytes(pairs * CACHELINE_BYTES)
    node = testbed.node0
    back = bytearray()
    for index, line in enumerate(lines):
        address = window.start + int(line) * CACHELINE_BYTES
        payload = data[index * CACHELINE_BYTES:(index + 1) * CACHELINE_BYTES]
        node.run_store(address, payload)
        back += node.run_load(address, CACHELINE_BYTES)
    testbed.run()
    assert bytes(back) == data
    return _digest(testbed, bytes(back))


#: Seed 10 of the lossy copy exercises replay requests and timeout
#: recovery on both nodes.
SCENARIOS = {
    "copy": lambda: _copy(11, 256 * 1024),
    "lossy_copy": lambda: _copy(
        10, 256 * 1024, bonded=True, drop_probability=2e-3
    ),
    "pingpong": lambda: _pingpong(11, 256),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_datapath_outcome_matches_golden_digest(name):
    assert SCENARIOS[name]() == GOLDEN[name]


def test_remote_load_process_budget(monkeypatch):
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    address = testbed.remote_window_range(attachment).start
    testbed.node0.run_store(address, bytes(CACHELINE_BYTES))
    testbed.run()
    spawned = []
    original = Simulator.process

    def counting(self, generator, name=""):
        spawned.append(name or getattr(generator, "__name__", "?"))
        return original(self, generator, name=name)

    monkeypatch.setattr(Simulator, "process", counting)
    testbed.node0.run_load(address, CACHELINE_BYTES)
    assert len(spawned) <= 3, spawned
