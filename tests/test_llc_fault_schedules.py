"""Every single-fault schedule of a small copy, checked exhaustively.

Seeded Bernoulli faults only sample the schedule space. A 2 KiB copy
sends few enough frames over the node0→node1 wire that every schedule
with one fault can be tried: one drop or one corruption at each frame
traversal index, on each channel the copy uses.

The enumeration is exhaustive. A fault at index ``i`` leaves traversals
``0..i-1`` as they were in the clean run. So any index at or past the
clean run's traversal count is never reached, and the replays a fault
causes need no extra indices. Each schedule asserts that its fault
landed.

After the simulator drains, every schedule must leave the protocol as
it found it (§IV-A4): the bytes read back are the bytes written, every
LLC holds its full ``rx_queue_slots`` credits, and no frame is still
retained. A hang surfaces as a ``SimulationError`` from the blocking
read or write.
"""

import pytest

from repro.mem import MIB
from repro.net import FaultInjector
from repro.opencapi.transactions import reset_txn_ids
from repro.osmodel import PagePolicy
from repro.testbed import RemoteBuffer, Testbed

COPY_BYTES = 2048
DATA = bytes(range(256)) * (COPY_BYTES // 256)


class FaultAtIndex(FaultInjector):
    """Faults exactly one traversal: the one numbered ``index``."""

    def __init__(self, index=-1, kind="drop"):
        super().__init__()
        self.index = index
        self.kind = kind

    def decide(self):
        if self.frames_seen == self.index:
            if self.kind == "drop":
                self.force_drop_next()
            else:
                self.force_corrupt_next()
        return super().decide()


def _copy(bonded, injectors):
    reset_txn_ids()
    testbed = Testbed(fault_injectors=injectors)
    attachment = testbed.attach(
        "node0", 4 * MIB, memory_host="node1", bonded=bonded
    )
    buffer = RemoteBuffer.allocate(
        testbed.node0, COPY_BYTES, policy=PagePolicy.BIND,
        numa_nodes=[attachment.plan.numa_node_id],
    )
    buffer.write(0, DATA)
    back = buffer.read(0, COPY_BYTES)
    testbed.run()
    return testbed, back


def _schedules(bonded):
    """``(channel, index, kind)`` for every single fault of the copy."""
    channels = (0, 1) if bonded else (0,)
    clean = {channel: FaultAtIndex() for channel in channels}
    _copy(bonded, clean)
    return [
        (channel, index, kind)
        for channel in channels
        for index in range(clean[channel].frames_seen)
        for kind in ("drop", "corrupt")
    ]


@pytest.mark.parametrize("bonded", [False, True], ids=["unbonded", "bonded"])
def test_every_single_fault_leaves_the_llc_whole(bonded):
    schedules = _schedules(bonded)
    assert schedules
    failures = []
    for channel, index, kind in schedules:
        injector = FaultAtIndex(index, kind)
        testbed, back = _copy(bonded, {channel: injector})
        assert injector.fault_count == 1, (channel, index, kind)
        llcs = [
            llc
            for node in (testbed.node0, testbed.node1)
            for llc in node.device.llcs
        ]
        state = {
            "bytes_ok": back == DATA,
            "credits": [llc.credits_available for llc in llcs],
            "retained": [llc.retention_depth for llc in llcs],
        }
        whole = (
            state["bytes_ok"]
            and all(
                llc.credits_available == llc.config.rx_queue_slots
                for llc in llcs
            )
            and not any(state["retained"])
        )
        if not whole:
            failures.append(((channel, index, kind), state))
    assert not failures, (
        f"{len(failures)} of {len(schedules)} schedules: {failures}"
    )
