"""A Linux-kernel memory-management facade for one host.

Ties together the sparse section model, the page allocator and the
host's NUMA topology, and implements the two §IV-B mechanisms the
prototype relies on:

* **memory hotplug** — probe + online/offline of section-aligned ranges
  at runtime ("originally designed to plug and unplug local physical
  memory modules");
* **dynamically created CPU-less NUMA nodes** — each disaggregated
  attachment lands in a fresh node whose SLIT distance reflects the
  measured compute↔donor RTT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..mem.address import AddressError, AddressRange, DEFAULT_SECTION_BYTES
from ..mem.numa import LOCAL_DISTANCE, NumaNode, NumaTopology
from .pages import (
    DEFAULT_PAGE_BYTES,
    OutOfMemory,
    Page,
    PageAllocator,
    PagePolicy,
)
from .sections import MemorySection, SectionState, SparseMemoryModel

__all__ = ["LinuxKernel", "Mapping", "HotplugError"]


class HotplugError(RuntimeError):
    """Invalid hotplug transition (mirrors -EBUSY/-EINVAL from sysfs)."""


@dataclass
class Mapping:
    """A process memory mapping: an ordered list of page frames."""

    mapping_id: int
    pages: List[Page]
    policy: PagePolicy
    nodes: Sequence[int]
    page_bytes: int

    @property
    def size(self) -> int:
        return len(self.pages) * self.page_bytes

    def page_for_offset(self, offset: int) -> Page:
        index = offset // self.page_bytes
        if not 0 <= index < len(self.pages):
            raise AddressError(
                f"offset {offset:#x} outside mapping of {self.size:#x} bytes"
            )
        return self.pages[index]

    def address_for_offset(self, offset: int) -> int:
        page = self.page_for_offset(offset)
        return page.address + (offset % self.page_bytes)

    def node_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for page in self.pages:
            histogram[page.node_id] = histogram.get(page.node_id, 0) + 1
        return histogram


class LinuxKernel:
    """Memory management state of one host."""

    def __init__(
        self,
        hostname: str = "node",
        section_bytes: int = DEFAULT_SECTION_BYTES,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ):
        if section_bytes % page_bytes:
            raise AddressError(
                "section_bytes must be a multiple of page_bytes"
            )
        self.hostname = hostname
        self.section_bytes = section_bytes
        self.page_bytes = page_bytes
        #: Copies page content between physical addresses during NUMA
        #: migration. Installed by the platform (it knows how to reach
        #: both local DRAM and ThymesisFlow windows); None = bookkeeping
        #: only (fine for pure-accounting simulations).
        self.page_copier: Optional[Callable[[int, int, int], None]] = None
        self.topology = NumaTopology()
        self.sparse = SparseMemoryModel(section_bytes)
        self.pages = PageAllocator(page_bytes)
        self._mappings: Dict[int, Mapping] = {}
        self._next_mapping_id = 1
        self._pinned: List[AddressRange] = []
        self.hotplug_events: List[str] = []

    # -- boot-time memory ---------------------------------------------------------
    def add_boot_memory(
        self,
        node_id: int,
        physical: AddressRange,
        cpu_count: int = 0,
        base_latency_s: float = 85e-9,
        distances: Optional[Dict[int, int]] = None,
    ) -> NumaNode:
        """Register a boot-time NUMA node backed by ``physical``."""
        node = self.topology.add_node(
            NumaNode(
                node_id,
                memory_bytes=physical.size,
                cpu_count=cpu_count,
                base_latency_s=base_latency_s,
                label=f"{self.hostname}/node{node_id}",
            )
        )
        for other, distance in (distances or {}).items():
            self.topology.set_distance(node_id, other, distance)
        self.sparse.probe_online(physical.start, physical.size, node_id)
        self.pages.add_range(node_id, physical)
        return node

    # -- dynamic NUMA nodes ---------------------------------------------------------
    def create_cpuless_node(
        self,
        node_id: int,
        base_latency_s: float,
        distances: Dict[int, int],
    ) -> NumaNode:
        """Create the CPU-less node hosting a disaggregated attachment.

        ``distances`` maps existing node ids to SLIT distances,
        "reflecting the respective transaction RTT delay between compute
        and memory-stealing endpoints".
        """
        node = self.topology.add_node(
            NumaNode(
                node_id,
                memory_bytes=0,
                cpu_count=0,
                base_latency_s=base_latency_s,
                label=f"{self.hostname}/remote{node_id}",
            )
        )
        for other, distance in distances.items():
            self.topology.set_distance(node_id, other, distance)
        self.hotplug_events.append(f"node{node_id}: created (cpu-less)")
        return node

    def remove_node(self, node_id: int) -> None:
        if self.sparse.online_sections(node_id):
            raise HotplugError(
                f"node {node_id} still has online sections"
            )
        self.topology.remove_node(node_id)
        self.hotplug_events.append(f"node{node_id}: removed")

    # -- hotplug ----------------------------------------------------------------------
    def hotplug_probe(self, start: int, size: int) -> List[MemorySection]:
        """Probe new backing (``/sys/devices/system/memory/probe``)."""
        sections = self.sparse.probe(start, size)
        self.hotplug_events.append(
            f"probe [{start:#x}, +{size:#x}): {len(sections)} sections"
        )
        return sections

    def hotplug_online(
        self, section_indices: Sequence[int], node_id: int
    ) -> int:
        """Online probed sections into a NUMA node; returns bytes added."""
        if node_id not in self.topology:
            raise HotplugError(f"NUMA node {node_id} does not exist")
        added = 0
        for index in section_indices:
            section = self.sparse.online(index, node_id)
            self.pages.add_range(node_id, section.range)
            added += section.range.size
        node = self.topology.node(node_id)
        self.topology.resize(node_id, node.memory_bytes + added)
        self.hotplug_events.append(
            f"online {list(section_indices)} -> node{node_id}"
        )
        return added

    def hotplug_offline(self, section_indices: Sequence[int]) -> int:
        """Offline sections (fails -EBUSY style if pages are in use)."""
        removed = 0
        for index in section_indices:
            section = self.sparse.section(index)
            node_id = section.numa_node
            if node_id is None:
                raise HotplugError(f"section {index} not online")
            if self._allocated_in(node_id, section.range):
                raise HotplugError(
                    f"section {index} busy: allocated pages present "
                    "(migrate first)"
                )
            self.sparse.begin_offline(index)
            captured = self.pages.drain_range(node_id, section.range)
            expected = self.section_bytes // self.page_bytes
            if len(captured) != expected:
                raise HotplugError(
                    f"section {index}: drained {len(captured)} pages, "
                    f"expected {expected}"
                )
            self.sparse.finish_offline(index)
            node = self.topology.node(node_id)
            self.topology.resize(
                node_id, node.memory_bytes - section.range.size
            )
            removed += section.range.size
        self.hotplug_events.append(f"offline {list(section_indices)}")
        return removed

    def hotplug_remove(self, section_indices: Sequence[int]) -> None:
        for index in section_indices:
            self.sparse.remove(index)
        self.hotplug_events.append(f"remove {list(section_indices)}")

    # -- process mappings ---------------------------------------------------------------
    def mmap(
        self,
        size: int,
        policy: PagePolicy = PagePolicy.LOCAL,
        nodes: Optional[Sequence[int]] = None,
        cpu_node: Optional[int] = None,
    ) -> Mapping:
        """Allocate an anonymous mapping of ``size`` bytes (page-rounded).

        For LOCAL/PREFERRED, ``cpu_node`` (default: first CPU node)
        determines the distance-sorted fallback order.
        """
        if size <= 0:
            raise AddressError(f"mapping size must be > 0: {size}")
        count = -(-size // self.page_bytes)
        if cpu_node is None:
            cpu_nodes = self.topology.cpu_nodes()
            cpu_node = cpu_nodes[0].node_id if cpu_nodes else 0
        if nodes is None:
            nodes = [cpu_node]
        fallback = [
            n.node_id
            for n in self.topology.nodes_by_distance(cpu_node)
            if n.node_id not in nodes
        ]
        pages = self.pages.allocate(
            count, policy=policy, nodes=nodes, fallback_order=fallback
        )
        mapping = Mapping(
            mapping_id=self._next_mapping_id,
            pages=pages,
            policy=policy,
            nodes=tuple(nodes),
            page_bytes=self.page_bytes,
        )
        self._next_mapping_id += 1
        self._mappings[mapping.mapping_id] = mapping
        return mapping

    def munmap(self, mapping: Mapping) -> None:
        if self._mappings.pop(mapping.mapping_id, None) is None:
            raise AddressError(f"mapping {mapping.mapping_id} unknown")
        self.pages.free(mapping.pages)
        mapping.pages = []

    def migrate_page(self, mapping: Mapping, page_index: int,
                     target_node: int) -> bool:
        """Move one mapped page to ``target_node`` (NUMA balancing).

        The page's *content* moves with it when a page copier is
        installed — migration must be invisible to the application.
        """
        page = mapping.pages[page_index]
        if page.node_id == target_node:
            return False
        replacement = self.pages.move_page(page, target_node)
        if replacement is None:
            return False
        if self.page_copier is not None:
            self.page_copier(
                page.address, replacement.address, self.page_bytes
            )
        mapping.pages[page_index] = replacement
        return True

    # -- pinned donor memory ----------------------------------------------------------
    def pin_contiguous(self, size: int, node_id: int) -> AddressRange:
        """Allocate + pin a physically-contiguous cacheline-aligned range.

        This is what the memory-stealing process does before registering
        its PASID: the donated region must be one consecutive effective
        range per section (§IV-A1).
        """
        if size % self.page_bytes:
            size = (size // self.page_bytes + 1) * self.page_bytes
        pinned = self.pages.take_contiguous(node_id, size // self.page_bytes)
        self._pinned.append(pinned)
        return pinned

    def unpin(self, pinned: AddressRange) -> None:
        try:
            self._pinned.remove(pinned)
        except ValueError:
            raise AddressError(f"range {pinned!r} was not pinned") from None
        self.pages.release_contiguous(pinned)

    @property
    def pinned_ranges(self) -> List[AddressRange]:
        return list(self._pinned)

    # -- internals ------------------------------------------------------------------------
    def _allocated_in(self, node_id: int, physical: AddressRange) -> bool:
        return self.pages.has_allocated_in(node_id, physical)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LinuxKernel({self.hostname!r}, nodes={self.topology.node_ids}, "
            f"sections={len(self.sparse)})"
        )
