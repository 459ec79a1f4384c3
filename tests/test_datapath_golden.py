"""The process and event budgets of the datapath.

One remote load spawns three simulation processes: the bus operation on
the compute side and the served request on the donor side, plus the
``run_load`` wrapper. The event budgets pin how many kernel events one
remote store+load and one 64 KiB copy dispatch, so a change that puts a
hop back (a relay event per frame, a process wake-up where nothing
waits) fails here even though no timestamp moves. The datapath's golden
digests are in the manifest (``test_golden.py``, producers ``datapath``
and ``ordering``).
"""

from repro.mem import CACHELINE_BYTES, MIB
from repro.osmodel import PagePolicy
from repro.sim.engine import Simulator
from repro.testbed import RemoteBuffer, Testbed


def test_remote_load_process_budget(monkeypatch):
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    address = testbed.remote_window_range(attachment).start
    testbed.node0.run_store(address, bytes(CACHELINE_BYTES))
    testbed.run()
    spawned = []
    original = Simulator.process
    original_after = Simulator.process_after

    def counting(self, generator, name=""):
        spawned.append(name or getattr(generator, "__name__", "?"))
        return original(self, generator, name=name)

    def counting_after(self, delay, generator, name=""):
        spawned.append(name or getattr(generator, "__name__", "?"))
        return original_after(self, delay, generator, name=name)

    monkeypatch.setattr(Simulator, "process", counting)
    monkeypatch.setattr(Simulator, "process_after", counting_after)
    testbed.node0.run_load(address, CACHELINE_BYTES)
    assert len(spawned) <= 3, spawned


def test_remote_store_load_event_budget():
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    address = testbed.remote_window_range(attachment).start
    testbed.run()
    before = testbed.sim.event_count
    testbed.node0.run_store(address, bytes(CACHELINE_BYTES))
    assert testbed.node0.run_load(address, CACHELINE_BYTES) == bytes(
        CACHELINE_BYTES
    )
    testbed.run()
    assert testbed.sim.event_count - before <= 46


def test_unbonded_copy_event_budget():
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    buffer = RemoteBuffer.allocate(
        testbed.node0, 64 * 1024, policy=PagePolicy.BIND,
        numa_nodes=[attachment.plan.numa_node_id],
    )
    testbed.run()
    data = bytes(range(256)) * 256
    before = testbed.sim.event_count
    buffer.write(0, data)
    assert buffer.read(0, len(data)) == data
    testbed.run()
    assert testbed.sim.event_count - before <= 4306
