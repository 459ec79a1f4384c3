"""Circuit switch model for rack-scale multipoint topologies.

The paper argues (§VII) that at rack scale "at most one switching layer"
keeps RTT acceptable, and weighs circuit-switched optical fabrics
against packet networks. This switch models the circuit-switched
option: point-to-point light paths between ports, configured by the
control plane, with a fixed per-crossing latency and a reconfiguration
penalty during which affected circuits are dark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

from ..errors import ReproError
from ..sim.engine import Simulator
from ..sim.resources import Store
from .link import SerialLink

__all__ = ["CircuitSwitch", "SwitchError", "SwitchPort"]


class SwitchError(ReproError, RuntimeError):
    """Invalid port wiring or circuit configuration."""

    code = "switch/circuit"


@dataclass
class SwitchPort:
    """One switch port: an ingress store the attached link delivers into,
    and an egress link the switch forwards onto."""

    index: int
    ingress: Store
    egress: Optional[SerialLink] = None


class CircuitSwitch:
    """A crossbar of circuits between ports.

    Circuits are unidirectional (configure both directions for a duplex
    path). A frame arriving on a port with no circuit is counted and
    discarded — exactly what dark fibre does.
    """

    def __init__(
        self,
        sim: Simulator,
        ports: int,
        crossing_latency_s: float = 30e-9,
        reconfiguration_s: float = 20e-6,
        name: str = "switch",
    ):
        if ports < 2:
            raise SwitchError(f"need >= 2 ports, got {ports}")
        self.sim = sim
        self.name = name
        self.crossing_latency_s = crossing_latency_s
        self.reconfiguration_s = reconfiguration_s
        self.ports = [
            SwitchPort(i, Store(sim, name=f"{name}.p{i}.in"))
            for i in range(ports)
        ]
        self._circuits: Dict[int, int] = {}
        self._dark_until: Dict[int, float] = {}
        self.frames_forwarded = 0
        self.frames_discarded = 0
        self.reconfigurations = 0
        for port in self.ports:
            sim.process(self._forwarder(port), name=f"{name}.fwd{port.index}")

    # -- wiring --------------------------------------------------------------------
    def attach_egress(self, port_index: int, link: SerialLink) -> None:
        self._port(port_index).egress = link

    def ingress_store(self, port_index: int) -> Store:
        """Where an incoming link should deliver its frames."""
        return self._port(port_index).ingress

    # -- circuit management (control-plane facing) --------------------------------
    def connect(self, ingress_port: int, egress_port: int) -> None:
        """Establish a circuit; takes ``reconfiguration_s`` to settle."""
        self._port(ingress_port)
        self._port(egress_port)
        if egress_port in self._circuits.values():
            for src, dst in self._circuits.items():
                if dst == egress_port and src != ingress_port:
                    raise SwitchError(
                        f"egress port {egress_port} already in circuit "
                        f"from {src}"
                    )
        self._circuits[ingress_port] = egress_port
        self._dark_until[ingress_port] = self.sim.now + self.reconfiguration_s
        self.reconfigurations += 1

    def disconnect(self, ingress_port: int) -> None:
        self._circuits.pop(ingress_port, None)
        self._dark_until.pop(ingress_port, None)

    def circuit_for(self, ingress_port: int) -> Optional[int]:
        return self._circuits.get(ingress_port)

    # -- data plane --------------------------------------------------------------
    def _forwarder(self, port: SwitchPort) -> Generator:
        while True:
            payload, corrupted = yield port.ingress.get()
            egress_index = self._circuits.get(port.index)
            if egress_index is None:
                self.frames_discarded += 1
                continue
            if self.sim.now < self._dark_until.get(port.index, 0.0):
                self.frames_discarded += 1
                continue
            egress = self._port(egress_index).egress
            if egress is None:
                self.frames_discarded += 1
                continue
            yield self.crossing_latency_s
            self.frames_forwarded += 1
            size = getattr(payload, "wire_bytes", 64)
            egress.send(payload, size, pre_corrupted=corrupted)

    def _port(self, index: int) -> SwitchPort:
        try:
            return self.ports[index]
        except IndexError:
            raise SwitchError(f"no port {index} on {self.name}") from None
