"""Point-to-point link model: bonded serdes lanes with in-order delivery.

The prototype's network channels each drive "4x bonded GTY transceivers
at 25Gbit/sec (100Gbit/sec)" using the Xilinx Aurora 64B/66B datalink
layer (§V). This module models one such channel as a unidirectional
serializing pipe: frames occupy the wire back to back for
``size / rate`` seconds each, cross two serdes PHYs and the cable, and
pop out at the receiver in order. Fault injection happens on the wire.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from ..obs import trace as _trace
from ..sim.engine import Simulator
from ..sim.resources import Store
from ..sim.stats import RunningStats
from .faults import FaultInjector

__all__ = [
    "LinkConfig",
    "SerialLink",
    "DuplexChannel",
    "AURORA_OVERHEAD",
    "SERDES_CROSSING_S",
]

#: Aurora 64B/66B line coding overhead (64 payload bits per 66 wire bits).
AURORA_OVERHEAD = 66.0 / 64.0

#: One serdes (PHY) crossing. The 950 ns RTT budget counts six serdes
#: crossings end-to-end; two of them belong to each network traversal.
SERDES_CROSSING_S = 55e-9


class LinkConfig:
    """Static parameters of one unidirectional channel.

    The derived rates are precomputed once here: ``serialization_time``
    sits on the per-frame hot path of every link, and walking the
    ``payload_bits_per_s`` -> ``raw_bits_per_s`` property chain on each
    frame costs two Python calls and three float ops per frame for
    values that never change after construction. The properties remain
    as thin reads of the precomputed fields; the instance is treated as
    immutable (construct a new config to change a parameter).
    """

    def __init__(
        self,
        lanes: int = 4,
        lane_gbps: float = 25.0,
        cable_propagation_s: float = 15e-9,
        serdes_crossing_s: float = SERDES_CROSSING_S,
        coding_overhead: float = AURORA_OVERHEAD,
    ):
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1: {lanes}")
        if lane_gbps <= 0:
            raise ValueError(f"lane_gbps must be > 0: {lane_gbps}")
        self.lanes = lanes
        self.lane_gbps = lane_gbps
        self.cable_propagation_s = cable_propagation_s
        self.serdes_crossing_s = serdes_crossing_s
        self.coding_overhead = coding_overhead
        # Same arithmetic as the former property chain, so precomputed
        # values (and every downstream timestamp) stay bit-identical.
        self._raw_bits_per_s = lanes * lane_gbps * 1e9
        self._payload_bits_per_s = self._raw_bits_per_s / coding_overhead
        self._flight_latency_s = serdes_crossing_s + cable_propagation_s

    @property
    def raw_bits_per_s(self) -> float:
        return self._raw_bits_per_s

    @property
    def payload_bits_per_s(self) -> float:
        """Line rate available to payload after 64B/66B coding."""
        return self._payload_bits_per_s

    @property
    def flight_latency_s(self) -> float:
        """Per-frame fixed latency: one serdes crossing + the cable.

        The paper's RTT budget counts "two [serdes crossings] for the
        network" — one per direction (§V)."""
        return self._flight_latency_s

    def serialization_time(self, payload_bytes: int) -> float:
        return payload_bytes * 8 / self._payload_bits_per_s


class SerialLink:
    """One direction of a network channel.

    :meth:`send` serializes a frame the moment it is sent: frames occupy
    the wire back to back in send order (this is what makes LLC frame
    ids monotonic on the wire), and each one reaches the far end a
    flight latency after its last bit leaves. Dropped frames vanish.

    Delivery is one timed event per frame: :meth:`send` schedules
    ``sink(payload, corrupted)`` at the arrival time plus
    ``sink_delay_s``, the receiver's own fixed latency. By default the
    sink puts ``(payload, corrupted)`` into the ``rx`` store with no
    extra delay; an LLC installs its frame handler with its pipeline
    latency (:meth:`connect_sink`), so a frame crosses the wire and the
    receiving pipeline in one event. ``frames_delivered`` and
    ``bytes_delivered`` count the frames that survived the fault
    decision and have reached the far end by ``sim.now``, so a snapshot
    taken mid-run leaves out frames still queued or in flight.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[LinkConfig] = None,
        faults: Optional[FaultInjector] = None,
        name: str = "link",
        rx_store: Optional[Store] = None,
    ):
        self.sim = sim
        self.config = config or LinkConfig()
        self.faults = faults
        self.name = name
        #: Default delivery target; pass ``rx_store`` to terminate the
        #: link on a foreign queue (e.g. a circuit switch's port ingress).
        self.rx: Store = rx_store if rx_store is not None else Store(
            sim, name=f"{name}.rx")
        self.sink: Callable[[Any, bool], Any] = self._put_rx
        self.sink_delay_s = 0.0
        self.bytes_sent = 0
        self.frames_sent = 0
        self._bytes_landed = 0
        self._frames_landed = 0
        #: (arrival time, size) of surviving frames not yet counted as
        #: delivered, in arrival order (frames land in send order).
        self._in_flight: Deque[Tuple[float, int]] = deque()
        self.queue_delay = RunningStats(f"{name}.queue_delay")
        self._busy_until = 0.0

    def send(self, payload: Any, size_bytes: int,
             pre_corrupted: bool = False) -> None:
        """Serialize one frame behind those already on the wire.

        ``pre_corrupted`` propagates upstream damage through multi-hop
        paths (a switch re-transmitting a frame it received corrupted).
        """
        if size_bytes <= 0:
            raise ValueError(f"frame size must be > 0: {size_bytes}")
        self.frames_sent += 1
        self.bytes_sent += size_bytes
        # The wire occupancy is computed analytically instead of slept
        # through: the cursor accumulates with one float addition per
        # frame, in send order, and the fault injector decides per frame
        # in that same order.
        now = self.sim.now
        ser_start = self._busy_until
        if ser_start < now:
            ser_start = now
        ser_end = ser_start + size_bytes * 8 / self.config.payload_bits_per_s
        self._busy_until = ser_end
        self.queue_delay.add(ser_start - now)
        if _trace.ENABLED:
            _trace.span(
                "link.serialize", ser_start, ser_end, self.name,
                bytes=size_bytes,
            )
        decision = self.faults.decide() if self.faults else None
        if decision is not None and decision.drop:
            if _trace.ENABLED:
                _trace.instant(
                    "link.drop", ser_start, self.name, bytes=size_bytes
                )
            return
        corrupted = pre_corrupted or bool(
            decision is not None and decision.corrupt
        )
        if corrupted and _trace.ENABLED:
            _trace.instant(
                "link.corrupt", ser_start, self.name, bytes=size_bytes
            )
        arrival = ser_end + self.config.flight_latency_s
        # Count what has landed since the last send, so the record holds
        # only the frames still on their way.
        self._settle()
        self._in_flight.append((arrival, size_bytes))
        self.sim.schedule_at(
            arrival + self.sink_delay_s, self.sink, payload, corrupted
        )

    def connect_sink(
        self, sink: Callable[[Any, bool], Any], delay_s: float = 0.0
    ) -> None:
        """Deliver every frame to ``sink(payload, corrupted)``,
        ``delay_s`` after it arrives."""
        self.sink = sink
        self.sink_delay_s = delay_s

    def _put_rx(self, payload: Any, corrupted: bool) -> None:
        self.rx.put((payload, corrupted))

    # -- observability ------------------------------------------------------------
    def _settle(self) -> None:
        now = self.sim.now
        in_flight = self._in_flight
        while in_flight and in_flight[0][0] <= now:
            self._frames_landed += 1
            self._bytes_landed += in_flight.popleft()[1]

    @property
    def frames_delivered(self) -> int:
        """Surviving frames that have reached the far end by now."""
        self._settle()
        return self._frames_landed

    @property
    def bytes_delivered(self) -> int:
        """Bytes of the frames counted by :attr:`frames_delivered`."""
        self._settle()
        return self._bytes_landed

    def utilization(self, window_s: float) -> float:
        """Mean payload utilization over elapsed time ``window_s``."""
        if window_s <= 0:
            return 0.0
        return (self.bytes_delivered * 8 / self.config.payload_bits_per_s) / window_s

    def register_metrics(self, registry, **labels) -> None:
        """Pull collector: traffic volume, queueing, live utilization."""

        def collect(reg):
            base = dict(link=self.name, **labels)
            reg.gauge("link.bytes_sent", **base).set(self.bytes_sent)
            reg.gauge("link.bytes_delivered", **base).set(self.bytes_delivered)
            reg.gauge("link.frames_sent", **base).set(self.frames_sent)
            reg.gauge("link.frames_delivered", **base).set(
                self.frames_delivered
            )
            if self.queue_delay.count:
                reg.gauge("link.queue_delay_mean_s", **base).set(
                    self.queue_delay.mean
                )
            reg.gauge("link.utilization", **base).set(
                self.utilization(self.sim.now)
            )
            if self.faults is not None:
                self.faults.collect_into(reg, link=self.name, **labels)

        registry.add_collector(collect)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SerialLink({self.name!r}, {self.config.lanes}x"
            f"{self.config.lane_gbps}G, sent={self.frames_sent})"
        )


class DuplexChannel:
    """A bidirectional network channel: two mirrored serial links.

    ``a_to_b``/``b_to_a`` are the two directions; endpoints hold opposite
    perspectives via :meth:`endpoint_view`.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[LinkConfig] = None,
        faults_ab: Optional[FaultInjector] = None,
        faults_ba: Optional[FaultInjector] = None,
        name: str = "channel",
    ):
        self.sim = sim
        self.name = name
        self.config = config or LinkConfig()
        self.a_to_b = SerialLink(sim, self.config, faults_ab, name=f"{name}.ab")
        self.b_to_a = SerialLink(sim, self.config, faults_ba, name=f"{name}.ba")

    def endpoint_view(self, side: str) -> "ChannelEndpointView":
        if side == "a":
            return ChannelEndpointView(self.a_to_b, self.b_to_a)
        if side == "b":
            return ChannelEndpointView(self.b_to_a, self.a_to_b)
        raise ValueError(f"side must be 'a' or 'b', got {side!r}")


class ChannelEndpointView:
    """One endpoint's view of a duplex channel: my tx link + my rx store."""

    def __init__(self, tx_link: SerialLink, rx_link: SerialLink):
        self.tx_link = tx_link
        self.rx_link = rx_link

    def send(self, payload: Any, size_bytes: int):
        return self.tx_link.send(payload, size_bytes)

    @property
    def rx(self) -> Store:
        return self.rx_link.rx
