"""Packet-switched fabric — the other §VII network option.

"With a packet-based network … a node could access all other nodes in
the rack with no need for reconfiguration, although packet networks
come with congestion issues as network links are shared between many
connections."

The model is a store-and-forward output-queued switch: every frame is
received completely, looks up its egress by destination port, queues at
that egress, and is re-serialized onto the output fibre. No circuits,
no reconfiguration — but congestion: frames from many ingress ports
contend for the same egress queue, and a bounded queue drops on
overflow (the LLC replay protocol turns drops into retransmissions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from ..errors import ReproError
from ..sim.engine import Simulator
from ..sim.resources import Store
from ..sim.stats import RunningStats
from .link import SerialLink

__all__ = ["PacketSwitch", "PacketSwitchError", "Addressed"]


class PacketSwitchError(ReproError, RuntimeError):
    """Invalid port wiring or addressing."""

    code = "switch/packet-session"


@dataclass
class Addressed:
    """Wrapper tagging a payload with its destination port."""

    destination_port: int
    payload: Any

    @property
    def wire_bytes(self) -> int:
        size = getattr(self.payload, "wire_bytes", None)
        if size is not None:
            return size
        try:
            # Raw buffer payloads (bytes / bytearray / memoryview)
            # serialize at their actual length, so zero-copy slices
            # keep honest wire footprints.
            return memoryview(self.payload).nbytes
        except TypeError:
            return 64


class PacketSwitch:
    """Output-queued, store-and-forward packet switch.

    Ingress links deliver :class:`Addressed` frames into
    ``ingress_store(port)``; the switch forwards the inner payload onto
    the destination port's egress link after the forwarding latency.
    Egress queues are bounded — overflow drops the frame (and counts
    it), modelling congestion loss that upper layers must absorb.
    """

    def __init__(
        self,
        sim: Simulator,
        ports: int,
        forwarding_latency_s: float = 300e-9,
        egress_queue_frames: int = 64,
        name: str = "psw",
    ):
        if ports < 2:
            raise PacketSwitchError(f"need >= 2 ports, got {ports}")
        self.sim = sim
        self.name = name
        self.forwarding_latency_s = forwarding_latency_s
        self._ingress = [
            Store(sim, name=f"{name}.p{i}.in") for i in range(ports)
        ]
        self._egress_queues = [
            Store(sim, capacity=egress_queue_frames, name=f"{name}.p{i}.q")
            for i in range(ports)
        ]
        self._egress_links: List[Optional[SerialLink]] = [None] * ports
        self.frames_forwarded = 0
        self.frames_dropped_congestion = 0
        self.frames_unroutable = 0
        self.queue_depth = RunningStats(f"{name}.queue_depth")
        for port in range(ports):
            sim.process(self._ingress_worker(port), name=f"{name}.in{port}")
            sim.process(self._egress_worker(port), name=f"{name}.out{port}")

    @property
    def port_count(self) -> int:
        return len(self._ingress)

    # -- wiring --------------------------------------------------------------------
    def ingress_store(self, port: int) -> Store:
        return self._ingress[self._check(port)]

    def attach_egress(self, port: int, link: SerialLink) -> None:
        self._egress_links[self._check(port)] = link

    # -- data plane -----------------------------------------------------------------
    def _ingress_worker(self, port: int) -> Generator:
        while True:
            frame, corrupted = yield self._ingress[port].get()
            if not isinstance(frame, Addressed):
                self.frames_unroutable += 1
                continue
            destination = frame.destination_port
            if not 0 <= destination < self.port_count:
                self.frames_unroutable += 1
                continue
            yield self.forwarding_latency_s
            queue = self._egress_queues[destination]
            self.queue_depth.add(len(queue))
            if not queue.try_put((frame, corrupted)):
                self.frames_dropped_congestion += 1

    def _egress_worker(self, port: int) -> Generator:
        while True:
            frame, corrupted = yield self._egress_queues[port].get()
            link = self._egress_links[port]
            if link is None:
                self.frames_unroutable += 1
                continue
            self.frames_forwarded += 1
            link.send(
                frame.payload, frame.wire_bytes, pre_corrupted=corrupted
            )

    def _check(self, port: int) -> int:
        if not 0 <= port < self.port_count:
            raise PacketSwitchError(
                f"{self.name}: no port {port} (have {self.port_count})"
            )
        return port
