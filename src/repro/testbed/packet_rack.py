"""Rack-scale disaggregation over a *packet-switched* fabric — §VII.

The alternative to :class:`~repro.testbed.rack.RackTestbed`'s circuit
switch: "with a packet-based network … a node could access all other
nodes in the rack with no need for reconfiguration, although packet
networks come with congestion issues as network links are shared
between many connections."

Every node uplink wraps its LLC frames in :class:`Addressed` envelopes;
the store-and-forward switch routes them by destination port with no
light-path setup. Congestion is real: flows converging on one node
share its downlink and the switch's bounded egress queue (drops are
absorbed by the LLC replay protocol).

One modelling caveat, faithful to the current LLC design: each LLC
channel is a point-to-point session (frame ids are per-channel), so a
channel is still *logically pinned* to one peer at a time — the fabric
removes the optical reconfiguration delay and the physical circuit
exclusivity, not the session pinning. True any-to-any sharing of one
channel would need per-peer LLC sessions (future work, as in the
paper).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..control.orchestrator import ControlPlane
from ..control.security import Role
from ..core.llc import LlcConfig
from ..net.link import ChannelEndpointView, LinkConfig, SerialLink
from ..net.packet import Addressed, PacketSwitch, PacketSwitchError
from ..sim.engine import Simulator
from .base import TestbedBase
from .node import Ac922Node, NodeSpec

__all__ = ["PacketRackTestbed", "AddressedUplink", "PacketFabricDriver"]


class AddressedUplink:
    """Tx-side adapter: wraps LLC frames for the packet fabric.

    Presents the :class:`SerialLink` send interface the LLC expects and
    stamps each frame with the currently-pinned destination port.
    """

    def __init__(self, link: SerialLink):
        self.link = link
        self.destination_port: Optional[int] = None
        self.frames_unpinned = 0

    def send(self, payload, size_bytes: int,
             pre_corrupted: bool = False) -> None:
        if self.destination_port is None:
            # No session pinned: the frame has nowhere to go (parallels
            # dark fibre on the circuit fabric).
            self.frames_unpinned += 1
            return
        self.link.send(
            Addressed(self.destination_port, payload),
            size_bytes,
            pre_corrupted=pre_corrupted,
        )


class PacketFabricDriver:
    """Control-plane driver pinning LLC sessions over the packet fabric.

    Same interface as :class:`~repro.control.switching.SwitchDriver`
    (the orchestrator is agnostic), but "connect" just sets destination
    ports on the two uplinks — there is no optical path to program and
    no reconfiguration blackout.
    """

    def __init__(
        self,
        name: str,
        uplinks: Dict[int, AddressedUplink],
        on_circuit_up: Optional[Callable[[int, int], None]] = None,
        on_circuit_down: Optional[Callable[[int, int], None]] = None,
    ):
        self.name = name
        self.uplinks = uplinks
        self.on_circuit_up = on_circuit_up
        self.on_circuit_down = on_circuit_down
        self._refs: Dict[Tuple[int, int], int] = {}

    def _canonical(self, a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def connect(self, port_a: int, port_b: int) -> None:
        key = self._canonical(port_a, port_b)
        if self._refs.get(key, 0) > 0:
            self._refs[key] += 1
            return
        for (existing_a, existing_b), refs in self._refs.items():
            if refs > 0 and {existing_a, existing_b} & {port_a, port_b}:
                raise PacketSwitchError(
                    f"{self.name}: session conflict — ({port_a},{port_b}) "
                    f"vs existing ({existing_a},{existing_b})"
                )
        self.uplinks[port_a].destination_port = port_b
        self.uplinks[port_b].destination_port = port_a
        self._refs[key] = 1
        if self.on_circuit_up is not None:
            self.on_circuit_up(port_a, port_b)

    def disconnect(self, port_a: int, port_b: int) -> None:
        key = self._canonical(port_a, port_b)
        refs = self._refs.get(key, 0)
        if refs <= 0:
            raise PacketSwitchError(
                f"{self.name}: session ({port_a},{port_b}) not pinned"
            )
        if refs == 1:
            self.uplinks[port_a].destination_port = None
            self.uplinks[port_b].destination_port = None
            del self._refs[key]
            if self.on_circuit_down is not None:
                self.on_circuit_down(port_a, port_b)
        else:
            self._refs[key] = refs - 1

    def circuits(self) -> List[Tuple[int, int]]:
        return sorted(key for key, refs in self._refs.items() if refs > 0)


class PacketRackTestbed(TestbedBase):
    """N nodes on a store-and-forward packet switch, one control plane."""

    SWITCH_NAME = "psw0"

    def __init__(
        self,
        nodes: int = 4,
        channels_per_node: int = 2,
        spec: Optional[NodeSpec] = None,
        llc_config: Optional[LlcConfig] = None,
        link_config: Optional[LinkConfig] = None,
        forwarding_latency_s: float = 300e-9,
        egress_queue_frames: int = 64,
    ):
        if nodes < 2:
            raise ValueError(f"need >= 2 nodes, got {nodes}")
        self.sim = Simulator()
        self.spec = spec or NodeSpec()
        link_config = link_config or LinkConfig()
        self.channels_per_node = channels_per_node

        self.switch = PacketSwitch(
            self.sim,
            ports=nodes * channels_per_node,
            forwarding_latency_s=forwarding_latency_s,
            egress_queue_frames=egress_queue_frames,
            name=self.SWITCH_NAME,
        )
        self.nodes: List[Ac922Node] = []
        self.uplinks: Dict[int, AddressedUplink] = {}
        self._node_links: Dict[str, List[SerialLink]] = {}
        self.plane = ControlPlane()
        # Control events share the datapath's sim-time timeline.
        self.plane.clock = lambda: self.sim.now

        for index in range(nodes):
            node = Ac922Node(self.sim, f"node{index}", self.spec, llc_config)
            self.nodes.append(node)
            self._node_links[node.hostname] = []
            for channel in range(channels_per_node):
                port = index * channels_per_node + channel
                raw_up = SerialLink(
                    self.sim,
                    link_config,
                    name=f"node{index}.c{channel}.up",
                    rx_store=self.switch.ingress_store(port),
                )
                uplink = AddressedUplink(raw_up)
                self.uplinks[port] = uplink
                down = SerialLink(
                    self.sim,
                    link_config,
                    name=f"node{index}.c{channel}.down",
                )
                self.switch.attach_egress(port, down)
                node.device.connect_channel(ChannelEndpointView(uplink, down))
                self._node_links[node.hostname].extend((raw_up, down))

        driver = PacketFabricDriver(
            self.SWITCH_NAME,
            self.uplinks,
            on_circuit_up=self._sync_session_llcs,
            on_circuit_down=self._sync_session_llcs,
        )
        for node in self.nodes:
            self.plane.register_host(
                node.agent,
                transceivers=channels_per_node,
                donor_capacity_bytes=node.spec.dram_bytes // 2,
            )
        self.plane.add_switch(
            self.SWITCH_NAME, nodes * channels_per_node, driver=driver
        )
        for index in range(nodes):
            for channel in range(channels_per_node):
                port = index * channels_per_node + channel
                self.plane.add_switch_cable(
                    f"node{index}", channel, self.SWITCH_NAME, port
                )
        self.driver = driver
        self.admin_token = self.plane.acl.issue_token(Role.ADMIN)

    def _sync_session_llcs(self, port_a: int, port_b: int) -> None:
        """Link bring-up on a fresh session (§IV-A4 frame-id agreement)."""
        for port in (port_a, port_b):
            node_index, channel = divmod(port, self.channels_per_node)
            self.nodes[node_index].device.llcs[channel].reset_link()

    # -- topology hooks -----------------------------------------------------------
    # (No _settle_after_attach override: there is no reconfiguration
    # blackout — the packet fabric is usable immediately.)

    def _register_network(self, registry) -> None:
        for links in self._node_links.values():
            for link in links:
                link.register_metrics(registry)

    def links_of(self, hostname: str) -> List[SerialLink]:
        self.node(hostname)  # KeyError on unknown host
        return list(self._node_links[hostname])
