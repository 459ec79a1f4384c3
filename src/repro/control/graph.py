"""Control-plane system-state graph — paper §IV-C.

"The system state is modeled as an undirected graph whose nodes are
compute and memory endpoints, transceivers associated with each
endpoint and switch ports. The edges of the graph are instead the
possible physical links between nodes."

The production prototype keeps this in Janusgraph; here two plain
dicts on :class:`StateGraph` play that role (same model, embedded
instead of distributed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ReproError

__all__ = ["NodeKind", "StateGraph", "GraphError"]


class GraphError(ReproError, RuntimeError):
    """Inconsistent wiring or unknown graph elements."""

    code = "graph/inconsistent"


class NodeKind(enum.Enum):
    COMPUTE_ENDPOINT = "compute"
    MEMORY_ENDPOINT = "memory"
    TRANSCEIVER = "transceiver"
    SWITCH_PORT = "switch_port"


class StateGraph:
    """Typed facade over the undirected state graph.

    Node keys are strings: ``"<host>/cep"``, ``"<host>/mep"``,
    ``"<host>/x<N>"`` (transceivers) and ``"<switch>/p<N>"`` (switch
    ports). Transceiver and switch-port nodes carry a ``capacity``
    attribute — how many concurrent flows they can carry — and a
    ``reserved`` counter maintained by the planner.

    ``nodes`` (node -> attributes) and ``adj`` (node -> neighbor ->
    edge attributes, neighbors in the order their edges were added) are
    for reading: wiring changes go through ``add_host``/``add_switch``/
    ``add_cable`` so that ``topology_version`` moves with them. A node
    or edge added again keeps its place and has its attributes updated.

    ``topology_version`` counts wiring changes (hosts, switches,
    cables); reservations leave it alone. Anything derived from the
    wiring alone may be cached against it.
    """

    def __init__(self):
        self.nodes: Dict[str, Dict] = {}
        self.adj: Dict[str, Dict[str, Dict]] = {}
        self.topology_version = 0
        self._hosts: Tuple[str, ...] = ()
        self._hosts_version = -1

    # -- graph primitives ------------------------------------------------------------
    def _add_node(self, node: str, **attrs) -> None:
        if node in self.nodes:
            self.nodes[node].update(attrs)
        else:
            self.nodes[node] = attrs
            self.adj[node] = {}

    def _add_edge(self, a: str, b: str, **attrs) -> None:
        data = self.adj[a].get(b)
        if data is None:
            # One attribute dict shared by both directions.
            self.adj[a][b] = self.adj[b][a] = attrs
        else:
            data.update(attrs)

    # -- node registration -----------------------------------------------------------
    def add_host(
        self,
        host: str,
        transceivers: int,
        channel_capacity: int = 64,
        donor_capacity_bytes: int = 0,
    ) -> None:
        """Register one host: endpoints + its transceiver fan-out."""
        cep, mep = self.cep(host), self.mep(host)
        if cep in self.nodes:
            raise GraphError(f"host {host!r} already registered")
        self._add_node(cep, kind=NodeKind.COMPUTE_ENDPOINT, host=host)
        self._add_node(
            mep,
            kind=NodeKind.MEMORY_ENDPOINT,
            host=host,
            donor_capacity=donor_capacity_bytes,
            donor_used=0,
        )
        for index in range(transceivers):
            xcvr = self.xcvr(host, index)
            self._add_node(
                xcvr,
                kind=NodeKind.TRANSCEIVER,
                host=host,
                channel=index,
                capacity=channel_capacity,
                reserved=0,
            )
            # Internal links: both endpoint roles can reach every local
            # transceiver.
            self._add_edge(cep, xcvr, internal=True)
            self._add_edge(mep, xcvr, internal=True)
        self.topology_version += 1

    def add_switch(self, switch: str, ports: int, port_capacity: int = 64) -> None:
        for index in range(ports):
            port = self.switch_port(switch, index)
            self._add_node(
                port,
                kind=NodeKind.SWITCH_PORT,
                switch=switch,
                port=index,
                capacity=port_capacity,
                reserved=0,
            )
        # Any-to-any inside the switch fabric.
        for a in range(ports):
            for b in range(a + 1, ports):
                self._add_edge(
                    self.switch_port(switch, a),
                    self.switch_port(switch, b),
                    internal=True,
                )
        self.topology_version += 1

    def add_cable(self, end_a: str, end_b: str) -> None:
        """A physical link between two transceivers / switch ports."""
        for end in (end_a, end_b):
            if end not in self.nodes:
                raise GraphError(f"unknown graph node {end!r}")
            kind = self.nodes[end]["kind"]
            if kind not in (NodeKind.TRANSCEIVER, NodeKind.SWITCH_PORT):
                raise GraphError(f"cannot cable a {kind.value} node")
        self._add_edge(end_a, end_b, internal=False)
        self.topology_version += 1

    # -- naming helpers ----------------------------------------------------------------
    @staticmethod
    def cep(host: str) -> str:
        return f"{host}/cep"

    @staticmethod
    def mep(host: str) -> str:
        return f"{host}/mep"

    @staticmethod
    def xcvr(host: str, index: int) -> str:
        return f"{host}/x{index}"

    @staticmethod
    def switch_port(switch: str, index: int) -> str:
        return f"{switch}/p{index}"

    # -- queries --------------------------------------------------------------------------
    def hosts(self) -> List[str]:
        if self._hosts_version != self.topology_version:
            self._hosts = tuple(sorted(
                {
                    data["host"]
                    for _node, data in self.nodes.items()
                    if data["kind"] is NodeKind.COMPUTE_ENDPOINT
                }
            ))
            self._hosts_version = self.topology_version
        return list(self._hosts)

    def node_attr(self, node: str, key: str):
        try:
            return self.nodes[node][key]
        except KeyError:
            raise GraphError(f"node {node!r} has no attribute {key!r}") from None

    def transceivers(self, host: str) -> List[str]:
        return sorted(
            node
            for node, data in self.nodes.items()
            if data["kind"] is NodeKind.TRANSCEIVER and data.get("host") == host
        )

    def free_capacity(self, node: str) -> int:
        data = self.nodes[node]
        return data["capacity"] - data["reserved"]

    # -- reservations -------------------------------------------------------------------
    def reserve(self, nodes: Iterable[str]) -> None:
        nodes = list(nodes)
        for node in nodes:
            if self.free_capacity(node) < 1:
                raise GraphError(f"{node}: no free capacity")
        for node in nodes:
            self.nodes[node]["reserved"] += 1

    def release(self, nodes: Iterable[str]) -> None:
        for node in nodes:
            data = self.nodes[node]
            if data["reserved"] <= 0:
                raise GraphError(f"{node}: release without reservation")
            data["reserved"] -= 1

    # -- donor capacity accounting ----------------------------------------------------------
    def reserve_donor_memory(self, host: str, size: int) -> None:
        data = self.nodes[self.mep(host)]
        if data["donor_used"] + size > data["donor_capacity"]:
            raise GraphError(
                f"{host}: donor capacity exhausted "
                f"({data['donor_used'] + size} > {data['donor_capacity']})"
            )
        data["donor_used"] += size

    def release_donor_memory(self, host: str, size: int) -> None:
        data = self.nodes[self.mep(host)]
        if data["donor_used"] < size:
            raise GraphError(f"{host}: donor release underflow")
        data["donor_used"] -= size

    def donor_free(self, host: str) -> int:
        data = self.nodes[self.mep(host)]
        return data["donor_capacity"] - data["donor_used"]

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-able dump for the REST API's GET /state."""
        return {
            node: {
                "kind": data["kind"].value,
                **{
                    key: value
                    for key, value in data.items()
                    if key != "kind"
                },
            }
            for node, data in sorted(self.nodes.items())
        }
