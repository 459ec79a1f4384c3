"""The process budget of one remote load.

It pins how many simulation processes one remote load spawns: the bus
operation on the compute side and the served request on the donor side,
plus the ``run_load`` wrapper. The datapath's golden digests are in the
manifest (``test_golden.py``, producer ``datapath``).
"""

from repro.mem import CACHELINE_BYTES, MIB
from repro.sim.engine import Simulator
from repro.testbed import Testbed


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
