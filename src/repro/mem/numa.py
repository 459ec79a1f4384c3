"""NUMA topology: nodes, distances and the latency they imply.

ThymesisFlow surfaces disaggregated memory to Linux as a **CPU-less NUMA
node** whose distance encodes the compute↔memory-stealing RTT (§IV-B).
This module models the ACPI SLIT-style distance matrix and converts
distances to access latencies, so both the OS policies (allocation,
migration) and the performance model agree on cost.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["NumaNode", "NumaTopology", "LOCAL_DISTANCE"]

#: Linux convention: distance from a node to itself.
LOCAL_DISTANCE = 10


@dataclass
class NumaNode:
    """One NUMA node: optional CPUs plus a memory capacity.

    Disaggregated memory nodes have ``cpu_count == 0`` ("CPU-less").
    ``base_latency_s`` is the unloaded access latency from a CPU on this
    node's *socket group* to this node's memory; for CPU-less nodes it is
    the latency observed from the attaching socket.
    """

    node_id: int
    memory_bytes: int
    cpu_count: int = 0
    base_latency_s: float = 85e-9
    label: str = ""

    free_bytes: int = field(init=False)

    def __post_init__(self):
        if self.memory_bytes < 0:
            raise ValueError(f"negative memory: {self.memory_bytes}")
        if self.cpu_count < 0:
            raise ValueError(f"negative cpu count: {self.cpu_count}")
        self.free_bytes = self.memory_bytes

    @property
    def is_cpuless(self) -> bool:
        return self.cpu_count == 0

    def reserve(self, size: int) -> None:
        if size > self.free_bytes:
            raise ValueError(
                f"node {self.node_id}: cannot reserve {size} "
                f"(free {self.free_bytes})"
            )
        self.free_bytes -= size

    def release(self, size: int) -> None:
        if self.free_bytes + size > self.memory_bytes:
            raise ValueError(f"node {self.node_id}: release over capacity")
        self.free_bytes += size

    def resize(self, new_memory_bytes: int) -> None:
        """Grow/shrink capacity (hotplug adds memory to a node).

        A node in a :class:`NumaTopology` is resized through
        :meth:`NumaTopology.resize`.
        """
        used = self.memory_bytes - self.free_bytes
        if new_memory_bytes < used:
            raise ValueError(
                f"node {self.node_id}: cannot shrink below used ({used})"
            )
        self.memory_bytes = new_memory_bytes
        self.free_bytes = new_memory_bytes - used


class NumaTopology:
    """A set of NUMA nodes plus a symmetric distance matrix.

    Distances follow the Linux convention (self = 10); latency between a
    CPU node and a memory node scales linearly with distance relative to
    the memory node's base latency at LOCAL_DISTANCE. Encoding the
    measured ThymesisFlow RTT as a distance is exactly what the
    prototype's hotplug path does.
    """

    def __init__(self):
        self._nodes: Dict[int, NumaNode] = {}
        self._distance: Dict[Tuple[int, int], int] = {}
        #: Node ids, the ids of nodes with CPUs and the ids of nodes
        #: with memory, kept sorted as nodes come, go and resize: detach
        #: keeps emptied CPU-less nodes, so filtering every node on each
        #: query would grow with attach history.
        self._ids: List[int] = []
        self._cpu_ids: List[int] = []
        self._memory_ids: List[int] = []

    # -- construction -----------------------------------------------------------
    def add_node(self, node: NumaNode) -> NumaNode:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        self._distance[(node.node_id, node.node_id)] = LOCAL_DISTANCE
        insort(self._ids, node.node_id)
        if not node.is_cpuless:
            insort(self._cpu_ids, node.node_id)
        if node.memory_bytes > 0:
            insort(self._memory_ids, node.node_id)
        return node

    def remove_node(self, node_id: int) -> NumaNode:
        node = self._nodes.pop(node_id)
        self._ids.remove(node_id)
        if node_id in self._cpu_ids:
            self._cpu_ids.remove(node_id)
        if node.memory_bytes > 0:
            self._memory_ids.remove(node_id)
        self._distance = {
            key: value
            for key, value in self._distance.items()
            if node_id not in key
        }
        return node

    def resize(self, node_id: int, new_memory_bytes: int) -> None:
        """Grow/shrink a node's capacity (memory hotplug).

        Resizes of a node in a topology go through here, so that the
        memory-node queries see the node gain or lose its memory.
        """
        node = self._nodes[node_id]
        had_memory = node.memory_bytes > 0
        node.resize(new_memory_bytes)
        if had_memory and new_memory_bytes == 0:
            self._memory_ids.remove(node_id)
        elif not had_memory and new_memory_bytes > 0:
            insort(self._memory_ids, node_id)

    def set_distance(self, a: int, b: int, distance: int) -> None:
        if a not in self._nodes or b not in self._nodes:
            raise KeyError(f"unknown node in pair ({a}, {b})")
        if distance < LOCAL_DISTANCE:
            raise ValueError(
                f"distance {distance} below LOCAL_DISTANCE ({LOCAL_DISTANCE})"
            )
        self._distance[(a, b)] = distance
        self._distance[(b, a)] = distance

    # -- queries ---------------------------------------------------------------
    def node(self, node_id: int) -> NumaNode:
        return self._nodes[node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    @property
    def node_ids(self) -> List[int]:
        return list(self._ids)

    @property
    def nodes(self) -> List[NumaNode]:
        return [self._nodes[i] for i in self._ids]

    def cpu_nodes(self) -> List[NumaNode]:
        return [self._nodes[i] for i in self._cpu_ids]

    def memory_nodes(self) -> List[NumaNode]:
        return [self._nodes[i] for i in self._memory_ids]

    def distance(self, a: int, b: int) -> int:
        try:
            return self._distance[(a, b)]
        except KeyError:
            raise KeyError(f"no distance set between nodes {a} and {b}") from None

    def latency_s(self, cpu_node: int, memory_node: int) -> float:
        """Unloaded access latency from a CPU on one node to memory on another."""
        target = self.node(memory_node)
        return target.base_latency_s * (
            self.distance(cpu_node, memory_node) / LOCAL_DISTANCE
        )

    def distance_for_latency(
        self, cpu_node: int, memory_node: int, latency_s: float
    ) -> int:
        """Inverse mapping: pick the SLIT distance that encodes a latency.

        Used at hotplug time to derive the new CPU-less node's distance
        from the measured compute↔donor RTT.
        """
        target = self.node(memory_node)
        if target.base_latency_s <= 0:
            raise ValueError("memory node has no base latency")
        distance = round(LOCAL_DISTANCE * latency_s / target.base_latency_s)
        return max(LOCAL_DISTANCE, distance)

    def nodes_by_distance(self, from_node: int) -> List[NumaNode]:
        """Memory nodes sorted nearest-first from ``from_node``."""
        reachable = [
            node
            for node in self.memory_nodes()
            if (from_node, node.node_id) in self._distance
        ]
        return sorted(
            reachable, key=lambda n: self.distance(from_node, n.node_id)
        )

    def total_memory(self) -> int:
        return sum(n.memory_bytes for n in self.nodes)

    def total_free(self) -> int:
        return sum(n.free_bytes for n in self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NumaTopology(nodes={self.node_ids})"
