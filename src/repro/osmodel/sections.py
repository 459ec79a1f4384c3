"""Linux sparse-memory-model sections — paper §IV-A1 / §IV-B.

"The Linux kernel divides the physical address space assigned to the
main system memory into fixed-size aligned sections. Each memory
section is independently handled by the kernel, and can be 'hotplugged'
at runtime to expand the available system memory."

Sections are the currency the whole stack trades in: the RMMU has one
table entry per section, the agent hotplugs one section at a time, and
the control plane allocates donor memory in section multiples.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional

from ..mem.address import AddressError, AddressRange, DEFAULT_SECTION_BYTES

__all__ = ["SectionState", "MemorySection", "SparseMemoryModel"]


class SectionState(enum.Enum):
    """Lifecycle of a hotpluggable section."""

    ABSENT = "absent"          #: no backing present at this index
    OFFLINE = "offline"        #: probed (backing present) but not usable
    ONLINE = "online"          #: part of a zone; pages allocatable
    GOING_OFFLINE = "going_offline"  #: being evacuated for removal


class MemorySection:
    """One sparse-memory section; its ``range`` is built on demand."""

    __slots__ = ("index", "section_bytes", "state", "numa_node")

    def __init__(
        self,
        index: int,
        section_bytes: int,
        state: SectionState = SectionState.OFFLINE,
        numa_node: Optional[int] = None,
    ):
        self.index = index
        self.section_bytes = section_bytes
        self.state = state
        self.numa_node = numa_node

    @property
    def range(self) -> AddressRange:
        return AddressRange(
            self.index * self.section_bytes, self.section_bytes
        )

    @property
    def online(self) -> bool:
        return self.state is SectionState.ONLINE

    def __repr__(self) -> str:
        return (
            f"MemorySection({self.index}, {self.range!r}, "
            f"{self.state.value}, numa_node={self.numa_node})"
        )


class SparseMemoryModel:
    """Tracks the sections of one host's physical address space.

    The model is sparse in both senses: only probed indices exist, and
    the physical address space may have arbitrary holes (the firmware
    places DRAM, MMIO windows and ThymesisFlow windows wherever it
    likes).
    """

    def __init__(self, section_bytes: int = DEFAULT_SECTION_BYTES):
        if section_bytes <= 0 or (section_bytes & (section_bytes - 1)) != 0:
            raise AddressError(
                f"section_bytes must be a power of two: {section_bytes}"
            )
        self.section_bytes = section_bytes
        self._sections: Dict[int, MemorySection] = {}

    # -- index arithmetic ---------------------------------------------------------
    def index_of(self, address: int) -> int:
        if address < 0:
            raise AddressError(f"negative address: {address:#x}")
        return address // self.section_bytes

    def range_of(self, index: int) -> AddressRange:
        return AddressRange(index * self.section_bytes, self.section_bytes)

    # -- probing (creating sections) -------------------------------------------------
    def probe(self, start: int, size: int) -> List[MemorySection]:
        """Register backing for ``[start, start+size)``; returns sections.

        Both bounds must be section-aligned, exactly like
        ``/sys/devices/system/memory/probe``.
        """
        return self._create(start, size, SectionState.OFFLINE, None)

    def probe_online(
        self, start: int, size: int, numa_node: int
    ) -> List[MemorySection]:
        """:meth:`probe` and :meth:`online` every new section, in one pass.

        Boot memory takes this path: its sections come up online.
        """
        return self._create(start, size, SectionState.ONLINE, numa_node)

    def _create(
        self,
        start: int,
        size: int,
        state: SectionState,
        numa_node: Optional[int],
    ) -> List[MemorySection]:
        if start % self.section_bytes or size % self.section_bytes:
            raise AddressError(
                f"probe [{start:#x}, +{size:#x}) not aligned to "
                f"{self.section_bytes:#x}-byte sections"
            )
        if size <= 0:
            raise AddressError(f"probe size must be > 0: {size}")
        first = self.index_of(start)
        indices = range(first, first + size // self.section_bytes)
        if not self._sections.keys().isdisjoint(indices):
            index = next(i for i in indices if i in self._sections)
            raise AddressError(f"section {index} already present")
        created = [
            MemorySection(index, self.section_bytes, state, numa_node)
            for index in indices
        ]
        self._sections.update(zip(indices, created))
        return created

    def remove(self, index: int) -> MemorySection:
        """Remove an offline section entirely (hot-remove)."""
        section = self.section(index)
        if section.state is not SectionState.OFFLINE:
            raise AddressError(
                f"section {index} must be OFFLINE to remove "
                f"(is {section.state.value})"
            )
        return self._sections.pop(index)

    # -- state transitions ------------------------------------------------------------
    def online(self, index: int, numa_node: int) -> MemorySection:
        section = self.section(index)
        if section.state is not SectionState.OFFLINE:
            raise AddressError(
                f"section {index} must be OFFLINE to online "
                f"(is {section.state.value})"
            )
        section.state = SectionState.ONLINE
        section.numa_node = numa_node
        return section

    def begin_offline(self, index: int) -> MemorySection:
        section = self.section(index)
        if section.state is not SectionState.ONLINE:
            raise AddressError(
                f"section {index} must be ONLINE to offline "
                f"(is {section.state.value})"
            )
        section.state = SectionState.GOING_OFFLINE
        return section

    def finish_offline(self, index: int) -> MemorySection:
        section = self.section(index)
        if section.state is not SectionState.GOING_OFFLINE:
            raise AddressError(
                f"section {index} not GOING_OFFLINE "
                f"(is {section.state.value})"
            )
        section.state = SectionState.OFFLINE
        section.numa_node = None
        return section

    # -- queries ----------------------------------------------------------------------
    def section(self, index: int) -> MemorySection:
        try:
            return self._sections[index]
        except KeyError:
            raise AddressError(f"no section at index {index}") from None

    def section_at(self, address: int) -> MemorySection:
        return self.section(self.index_of(address))

    def present(self, index: int) -> bool:
        return index in self._sections

    def sections(self) -> Iterator[MemorySection]:
        for index in sorted(self._sections):
            yield self._sections[index]

    def online_sections(
        self, numa_node: Optional[int] = None
    ) -> List[MemorySection]:
        return [
            s
            for s in self.sections()
            if s.online and (numa_node is None or s.numa_node == numa_node)
        ]

    def total_online_bytes(self, numa_node: Optional[int] = None) -> int:
        return len(self.online_sections(numa_node)) * self.section_bytes

    def __len__(self) -> int:
        return len(self._sections)
