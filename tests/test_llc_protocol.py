"""Protocol-level tests of a bare LLC endpoint pair over one channel.

These bypass the device/routing layers entirely: transactions go in on
one side and must come out the other side exactly once, in order,
whatever the wire does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LlcConfig, LlcEndpoint, LlcError
from repro.net import DuplexChannel, FaultInjector, LinkConfig
from repro.opencapi import MemTransaction
from repro.sim import Simulator


def make_pair(config=None, faults_ab=None, faults_ba=None):
    sim = Simulator()
    channel = DuplexChannel(
        sim, LinkConfig(), faults_ab=faults_ab, faults_ba=faults_ba
    )
    a = LlcEndpoint(sim, channel.endpoint_view("a"), config, name="a")
    b = LlcEndpoint(sim, channel.endpoint_view("b"), config, name="b")
    return sim, a, b


def pump(sim, source, sink, count, payload_size=128):
    """Send ``count`` writes a→b; return the txn ids b received."""
    sent_ids = []

    def sender():
        for index in range(count):
            txn = MemTransaction.write(
                index * 128, bytes([index % 251]) * payload_size
            )
            sent_ids.append(txn.txn_id)
            waiting = source.submit(txn)
            if waiting is not None:
                yield waiting

    received = []
    sink.set_receiver(received.append)
    sim.process(sender(), name="sender")
    # Generous relative bound; LLC timers may extend past the traffic.
    sim.run(until=sim.now + 1.0)
    assert len(received) == count, "receiver did not get every transaction"
    return sent_ids, received


class TestCleanChannel:
    def test_in_order_exactly_once(self):
        sim, a, b = make_pair()
        sent, received = pump(sim, a, b, 40)
        assert [t.txn_id for t in received] == sent

    def test_payload_integrity(self):
        sim, a, b = make_pair()
        _sent, received = pump(sim, a, b, 20)
        for index, txn in enumerate(received):
            assert txn.data == bytes([index % 251]) * 128

    def test_no_replays_on_clean_wire(self):
        sim, a, b = make_pair()
        pump(sim, a, b, 30)
        assert a.replays_served == 0
        assert b.replays_requested == 0
        assert b.frames_corrupted == 0

    def test_nop_padding_counted(self):
        sim, a, b = make_pair()
        pump(sim, a, b, 3)  # 3 writes = 15 flits + padding
        assert a.nops_padded >= 1

    def test_retention_drains_after_acks(self):
        sim, a, b = make_pair()
        pump(sim, a, b, 25)
        sim.run(until=2.0)
        assert a.retention_depth == 0

    def test_credits_fully_restored(self):
        config = LlcConfig(rx_queue_slots=16)
        sim, a, b = make_pair(config)
        pump(sim, a, b, 50)
        sim.run(until=2.0)
        assert a.credits_available == 16


class TestLossyChannel:
    def test_single_drop_recovered(self):
        faults = FaultInjector()
        faults.force_drop_next()
        sim, a, b = make_pair(faults_ab=faults)
        sent, received = pump(sim, a, b, 10)
        assert [t.txn_id for t in received] == sent

    def test_burst_drop_recovered(self):
        faults = FaultInjector()
        faults.force_drop_next(3)
        sim, a, b = make_pair(faults_ab=faults)
        sent, received = pump(sim, a, b, 20)
        assert [t.txn_id for t in received] == sent

    def test_corruption_triggers_replay_request(self):
        faults = FaultInjector()
        faults.force_corrupt_next()
        sim, a, b = make_pair(faults_ab=faults)
        sent, received = pump(sim, a, b, 10)
        assert [t.txn_id for t in received] == sent
        assert b.frames_corrupted >= 1
        assert b.replays_requested >= 1
        assert a.replays_served >= 1

    def test_tail_loss_recovered_by_timer(self):
        # Drop the *last* frame: no later frame reveals the gap, so only
        # the Tx retention timeout can recover it.
        faults = FaultInjector()
        sim, a, b = make_pair(faults_ab=faults)
        # Send 5, then arrange the 6th (final) frame to drop.
        sent_ids = []

        def sender():
            for index in range(5):
                txn = MemTransaction.write(index * 128, bytes(128))
                sent_ids.append(txn.txn_id)
                waiting = a.submit(txn)
                if waiting is not None:
                    yield waiting
            yield 10e-6  # let earlier frames flush
            faults.force_drop_next()
            txn = MemTransaction.write(5 * 128, bytes(128))
            sent_ids.append(txn.txn_id)
            waiting = a.submit(txn)
            if waiting is not None:
                yield waiting

        received = []
        b.set_receiver(lambda txn: received.append(txn.txn_id))
        sim.process(sender())
        sim.run(until=1.0)
        assert received == sent_ids
        assert a.timeout_recoveries >= 1

    @settings(max_examples=12, deadline=None)
    @given(
        drop_p=st.floats(min_value=0.0, max_value=0.15),
        corrupt_p=st.floats(min_value=0.0, max_value=0.15),
        count=st.integers(min_value=5, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_exactly_once_in_order(
        self, drop_p, corrupt_p, count, seed
    ):
        """The LLC invariant: any loss/corruption pattern, the receiver
        sees exactly the sent sequence."""
        from repro.sim import SeededRNG

        faults = FaultInjector(
            rng=SeededRNG(seed),
            drop_probability=drop_p,
            corrupt_probability=corrupt_p,
        )
        sim, a, b = make_pair(faults_ab=faults)
        sent, received = pump(sim, a, b, count)
        assert [t.txn_id for t in received] == sent


class TestLinkBringUp:
    def test_reset_link_resynchronizes_ids(self):
        sim, a, b = make_pair()
        pump(sim, a, b, 8)
        assert a._next_frame_id > 0
        a.reset_link()
        b.reset_link()
        assert a._next_frame_id == 0 and b._expected_id == 0
        # Traffic flows cleanly after bring-up.
        sent, received = pump(sim, a, b, 8)
        assert [t.txn_id for t in received] == sent

    def test_reset_restores_credits_and_clears_retention(self):
        config = LlcConfig(rx_queue_slots=8)
        sim, a, b = make_pair(config)
        pump(sim, a, b, 12)
        a.reset_link()
        assert a.credits_available == 8
        assert a.retention_depth == 0

    def test_mismatched_ids_without_bringup_deadlock(self):
        """Demonstrates *why* bring-up exists: stale ids stall the link."""
        sim, a, b = make_pair()
        pump(sim, a, b, 5)
        # Simulate a circuit re-pointing: only the receiver is fresh.
        b.reset_link()
        a._credits.reset(a.config.rx_queue_slots)

        def sender():
            waiting = a.submit(MemTransaction.write(0, bytes(128)))
            if waiting is not None:
                yield waiting

        got = []
        b.set_receiver(got.append)
        sim.process(sender())
        sim.run(until=50e-6)
        # b expects frame 0 but a sends frame 5: b treats it as a future
        # frame and requests a replay of 0..4 that a cannot serve; the
        # transaction is stuck until a real bring-up happens.
        assert got == []


class TestReceiver:
    def test_accepting_without_a_receiver_is_an_error(self):
        sim, a, _b = make_pair()
        a.submit(MemTransaction.write(0, bytes(128)))
        with pytest.raises(LlcError, match="no receiver"):
            sim.run(until=1.0)

    def test_hand_over_returns_credits_to_the_sender(self):
        """Each transaction handed to the receiver frees its ingress
        slot: a sender with fewer credits than transactions stalls and
        resumes on the grants."""
        config = LlcConfig(rx_queue_slots=4)
        sim, a, b = make_pair(config)
        sent, received = pump(sim, a, b, 24)
        assert [t.txn_id for t in received] == sent
        assert a.credit_stalls >= 1


class TestFrameDigest:
    def test_burst_entry_digests_its_per_line_signature(self):
        """A burst-4 entry is covered like the four single-line headers
        the unbatched formulation would put on the wire."""
        from repro.core import Frame
        from repro.net import frame_digest_bytes

        burst = MemTransaction.read_burst(0x1000, 4)
        frame = Frame(frame_id=77, transactions=[burst])
        signature = [
            (burst.txn_id + line) * 131 + burst.command.value
            for line in range(4)
        ]
        assert frame.digest() == frame_digest_bytes(77, signature)
