"""Tail-loss recovery under sustained drop storms (§IV-A4 replay).

The LLC's replay protocol is only correct if its recovery counters
(``timeout_recoveries``, ``replays_served``) stay consistent with the
traffic counters — and if forced drops that land exactly across a
retention-timeout boundary neither lose nor duplicate a transaction.
"""

import pytest

from repro.core import LlcConfig, LlcEndpoint
from repro.net import DuplexChannel, FaultInjector, LinkConfig
from repro.opencapi import MemTransaction
from repro.sim import Simulator

REPLAY_TIMEOUT_S = 5e-6


def make_pair(faults_ab=None, faults_ba=None):
    sim = Simulator()
    config = LlcConfig(replay_timeout_s=REPLAY_TIMEOUT_S)
    channel = DuplexChannel(
        sim, LinkConfig(), faults_ab=faults_ab, faults_ba=faults_ba
    )
    a = LlcEndpoint(sim, channel.endpoint_view("a"), config, name="a")
    b = LlcEndpoint(sim, channel.endpoint_view("b"), config, name="b")
    return sim, a, b


def pump(sim, source, sink, count):
    sent_ids = []

    def sender():
        for index in range(count):
            txn = MemTransaction.write(
                index * 128, bytes([index % 251]) * 128
            )
            sent_ids.append(txn.txn_id)
            waiting = source.submit(txn)
            if waiting is not None:
                yield waiting

    received = []
    sink.set_receiver(received.append)
    sim.process(sender(), name="sender")
    sim.run(until=sim.now + 1.0)
    assert len(received) == count, "receiver did not get every transaction"
    return sent_ids, received


class TestDropStorm:
    def test_sustained_storm_exactly_once(self):
        """A storm of forced drops: every txn still lands exactly once."""
        injector = FaultInjector()
        sim, a, b = make_pair(faults_ab=injector)

        def storm():
            # Drop one frame every half replay-timeout for a sustained
            # window — replays themselves keep getting dropped.
            for _ in range(20):
                injector.force_drop_next(1)
                yield REPLAY_TIMEOUT_S / 2

        sim.process(storm(), name="storm")
        sent, received = pump(sim, a, b, 60)
        assert [t.txn_id for t in received] == sent
        assert injector.forced_drops_applied > 0
        # Every dropped data frame was recovered by some replay round
        # (receiver NACK or sender retention timeout — both funnel
        # through the sender's retransmit path).
        assert a.replays_served >= 1

    def test_counters_consistent_after_storm(self):
        injector = FaultInjector()
        sim, a, b = make_pair(faults_ab=injector)

        def storm():
            for _ in range(10):
                injector.force_drop_next(1)
                yield REPLAY_TIMEOUT_S / 2

        sim.process(storm(), name="storm")
        sent, received = pump(sim, a, b, 40)
        # No transaction lost or duplicated, whatever the wire did.
        assert a.txns_sent == 40
        assert b.txns_received == 40
        assert len({t.txn_id for t in received}) == 40
        # Replay accounting stays consistent: the number of replayed
        # frames is at least the number of frames the wire ate.
        assert a.replays_served >= 1
        # Retention drains once the storm ends (no immortal timers).
        sim.run(until=sim.now + 10 * REPLAY_TIMEOUT_S)

    def test_drop_across_retention_timeout_boundary(self):
        """Tail loss whose replay is *also* lost at the boundary.

        The last frame of the conversation is dropped — no following
        traffic exists to trigger a receiver-side replay request, so
        only the sender's retention timer can recover it. The first
        timeout replay (fired exactly one retention timeout after the
        send) is dropped too; the second timer round must deliver the
        transaction exactly once, not zero or two times.
        """
        injector = FaultInjector()
        sim, a, b = make_pair(faults_ab=injector)
        sent_ids = []
        received = []
        b.set_receiver(received.append)

        def sender():
            first = MemTransaction.write(0, b"x" * 128)
            sent_ids.append(first.txn_id)
            waiting = a.submit(first)
            if waiting is not None:
                yield waiting
            # Let the first frame deliver; the next one is the tail.
            yield 4 * REPLAY_TIMEOUT_S
            injector.force_drop_next(2)  # original + boundary replay
            tail = MemTransaction.write(128, b"y" * 128)
            sent_ids.append(tail.txn_id)
            waiting = a.submit(tail)
            if waiting is not None:
                yield waiting

        sim.process(sender(), name="sender")
        sim.run(until=sim.now + 1.0)
        assert len(received) == 2, "tail transaction never delivered"
        assert [t.txn_id for t in received] == sent_ids
        assert injector.forced_drops_applied == 2
        # Two timer rounds: one for the lost original, one for the
        # lost replay that crossed the retention-timeout boundary.
        assert a.timeout_recoveries >= 2
        assert a.txns_sent == b.txns_received == 2

    def test_both_directions_storm(self):
        """Drops on data *and* ack paths: still exactly once."""
        ab = FaultInjector()
        ba = FaultInjector()
        sim, a, b = make_pair(faults_ab=ab, faults_ba=ba)

        def storm():
            for _ in range(8):
                ab.force_drop_next(1)
                ba.force_drop_next(1)
                yield REPLAY_TIMEOUT_S / 2

        sim.process(storm(), name="storm")
        sent, received = pump(sim, a, b, 30)
        assert [t.txn_id for t in received] == sent
        assert a.txns_sent == 30
        assert b.txns_received == 30
