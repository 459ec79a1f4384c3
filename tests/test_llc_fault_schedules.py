"""Every single-fault schedule of a small copy, checked exhaustively.

Seeded Bernoulli faults only sample the schedule space. A 2 KiB copy
sends few enough frames over the node0→node1 wire that every schedule
with one fault can be tried: one drop or one corruption at each frame
traversal index, on each channel the copy uses. ``llc_fault_pairs.py``
runs every ordered pair of faults the same way, outside tier-1.

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
KINDS = ("drop", "corrupt")


class FaultAtIndex(FaultInjector):
    """Faults the traversals a plan numbers: ``{index: kind}``."""

    def __init__(self, plan=None):
        super().__init__()
        self.plan = dict(plan or {})

    def decide(self):
        kind = self.plan.get(self.frames_seen)
        if kind == "drop":
            self.force_drop_next()
        elif kind == "corrupt":
            self.force_corrupt_next()
        return super().decide()


def channels(bonded):
    return (0, 1) if bonded else (0,)


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


def run_schedule(bonded, plans, observe=None):
    """Copy with ``{channel: plan}`` faults; assert every fault landed.

    Returns each channel's injector (its ``frames_seen`` counts that
    channel's traversals) and, if the LLCs are not whole afterwards,
    their state; ``None`` when they are. ``observe``, when given, is
    called with the drained testbed.
    """
    injectors = {
        channel: FaultAtIndex(plans.get(channel)) for channel in channels(bonded)
    }
    testbed, back = _copy(bonded, injectors)
    if observe is not None:
        observe(testbed)
    landed = sum(injector.fault_count for injector in injectors.values())
    assert landed == sum(len(plan) for plan in plans.values()), plans
    llcs = [
        llc
        for node in (testbed.node0, testbed.node1)
        for llc in node.device.llcs
    ]
    whole = (
        back == DATA
        and all(
            llc.credits_available == llc.config.rx_queue_slots
            for llc in llcs
        )
        and not any(llc.retention_depth for llc in llcs)
    )
    if whole:
        return injectors, None
    return injectors, {
        "bytes_ok": back == DATA,
        "credits": [llc.credits_available for llc in llcs],
        "retained": [llc.retention_depth for llc in llcs],
    }


def single_faults(bonded):
    """``(channel, index, kind)`` for every single fault of the copy."""
    clean, _ = run_schedule(bonded, {})
    return [
        (channel, index, kind)
        for channel in channels(bonded)
        for index in range(clean[channel].frames_seen)
        for kind in KINDS
    ]


@pytest.mark.parametrize("bonded", [False, True], ids=["unbonded", "bonded"])
def test_every_single_fault_leaves_the_llc_whole(bonded):
    schedules = single_faults(bonded)
    assert schedules
    failures = []
    for channel, index, kind in schedules:
        _, broken = run_schedule(bonded, {channel: {index: kind}})
        if broken:
            failures.append(((channel, index, kind), broken))
    assert not failures, (
        f"{len(failures)} of {len(schedules)} schedules: {failures}"
    )
