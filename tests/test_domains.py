"""Conservative domain synchronization (``repro.sim.domains``).

A toy ring-token program — cheap, message-heavy, and sensitive to
delivery order — exercises the coordinator's invariants directly:
inboxes must be delivered in ``(deliver_t, src, seq)`` order, in-flight
messages must drain past the horizon, and lookahead violations must
fail loudly rather than silently reorder time.
"""

import pytest

from repro.sim import DomainCoordinator, DomainMessage, Simulator, SyncError

LATENCY = 10.0


class RingProgram:
    """Pass counted tokens around the domain ring; log every delivery.

    Each domain starts ``tokens`` tokens at staggered times. A token
    carries a hop count; every delivery is recorded as ``(time, src,
    seq, hops)`` and the token forwarded until its hop budget is gone.
    The delivery log *is* the artifact, so any nondeterminism in
    routing or ordering shows up as a differing artifact.
    """

    def __init__(self, index, count, tokens=3, hops=5, latency=LATENCY):
        self.index = index
        self.count = count
        self.latency = latency
        self.sim = Simulator()
        self.seq = 0
        self.outbox = []
        self.log = []
        for token in range(tokens):
            self.sim.schedule_at(
                0.5 + token * 3.1 + index * 0.7, self._launch, token, hops
            )

    def _launch(self, token, hops):
        self._forward({"token": f"d{self.index}t{token}", "hops": hops})

    def _forward(self, payload):
        now = self.sim.now
        self.outbox.append(DomainMessage(
            src=self.index,
            dst=(self.index + 1) % self.count,
            send_t=now,
            deliver_t=now + self.latency,
            seq=self.seq,
            kind="token",
            payload=payload,
        ))
        self.seq += 1

    def _deliver(self, message):
        self.log.append((
            self.sim.now, message.src, message.seq,
            message.payload["hops"],
        ))
        if message.payload["hops"] > 1:
            self._forward({
                "token": message.payload["token"],
                "hops": message.payload["hops"] - 1,
            })

    def advance(self, window_end, inbox):
        self.outbox = []
        for message in inbox:
            self.sim.schedule_at(message.deliver_t, self._deliver, message)
        self.sim.run(until=window_end)
        return self.outbox

    def finalize(self):
        return {"index": self.index, "log": self.log, "sent": self.seq}


class BadLatencyProgram:
    """Emits a message faster than the lookahead allows."""

    def __init__(self, index, count):
        self.index = index
        self.count = count
        self.sent = False

    def advance(self, window_end, inbox):
        if self.index == 0 and not self.sent:
            self.sent = True
            return [DomainMessage(0, 1 % self.count, 1.0, 2.0, 0, "fast")]
        return []

    def finalize(self):
        return {}


def ring_programs(count, **kwargs):
    return [RingProgram(index, count, **kwargs) for index in range(count)]


def run_ring(count, **kwargs):
    coordinator = DomainCoordinator(
        ring_programs(count, **kwargs),
        lookahead=LATENCY,
        horizon=60.0,
    )
    return coordinator.run()


class TestCoordinatorSerial:
    def test_tokens_travel_the_ring(self):
        result = run_ring(3)
        artifacts = result["artifacts"]
        assert [a["index"] for a in artifacts] == [0, 1, 2]
        # 3 domains x 3 tokens x 5 hops = 45 deliveries in total.
        assert sum(len(a["log"]) for a in artifacts) == 45
        assert result["messages"] == 45
        assert result["rounds"] >= 6  # horizon 60 / lookahead 10

    def test_single_domain_no_messages(self):
        result = run_ring(1)
        # dst == src: a 1-ring forwards to itself.
        assert result["artifacts"][0]["sent"] > 0

    def test_delivery_sorted_by_time_src_seq(self):
        result = run_ring(4)
        for artifact in result["artifacts"]:
            keys = [(t, src, seq) for t, src, seq, _ in artifact["log"]]
            assert keys == sorted(keys)

    def test_drain_runs_past_horizon(self):
        # Tokens launched near the horizon still finish their hops.
        coordinator = DomainCoordinator(
            ring_programs(2, tokens=1, hops=8),
            lookahead=LATENCY,
            horizon=1.0,
        )
        result = coordinator.run()
        assert sum(len(a["log"]) for a in result["artifacts"]) == 2 * 8

    def test_validation_rejects_fast_messages(self):
        coordinator = DomainCoordinator(
            [BadLatencyProgram(index, 2) for index in range(2)],
            lookahead=LATENCY,
            horizon=30.0,
        )
        with pytest.raises(SyncError, match="latency"):
            coordinator.run()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DomainCoordinator([], lookahead=1.0, horizon=1.0)
        with pytest.raises(ValueError):
            DomainCoordinator(ring_programs(1), lookahead=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            DomainCoordinator(ring_programs(1), lookahead=1.0, horizon=-1.0)


class TestDomainMessage:
    def test_sort_key_and_pickle_round_trip(self):
        import pickle

        message = DomainMessage(1, 0, 3.0, 13.0, 7, "x", {"a": 1})
        assert message.sort_key() == (13.0, 1, 7)
        clone = pickle.loads(pickle.dumps(message))
        assert clone.sort_key() == message.sort_key()
        assert clone.payload == {"a": 1} and clone.kind == "x"
