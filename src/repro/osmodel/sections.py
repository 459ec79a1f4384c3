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
from typing import Dict, Iterator, List, Optional, Tuple

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

    Boot memory (:meth:`probe_online`) is kept as runs of online
    sections, and a section of a run becomes a :class:`MemorySection`
    only when it is first accessed: a node boots hundreds of sections
    that nothing but the queries below ever looks at. Every present
    index is in exactly one place, ``_sections`` or a run.
    """

    def __init__(self, section_bytes: int = DEFAULT_SECTION_BYTES):
        if section_bytes <= 0 or (section_bytes & (section_bytes - 1)) != 0:
            raise AddressError(
                f"section_bytes must be a power of two: {section_bytes}"
            )
        self.section_bytes = section_bytes
        self._sections: Dict[int, MemorySection] = {}
        #: Untouched boot sections as ``(first, end, numa_node)`` runs
        #: of online indices ``first..end-1``; a node has a handful.
        self._runs: List[Tuple[int, int, int]] = []

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

    def probe_online(self, start: int, size: int, numa_node: int) -> int:
        """:meth:`probe` and :meth:`online` every new section, in one pass.

        Boot memory takes this path: its sections come up online, as one
        run that is materialized section by section on access. Returns
        the number of sections added.
        """
        indices = self._new_indices(start, size)
        self._runs.append((indices.start, indices.stop, numa_node))
        return len(indices)

    def _create(
        self,
        start: int,
        size: int,
        state: SectionState,
        numa_node: Optional[int],
    ) -> List[MemorySection]:
        indices = self._new_indices(start, size)
        created = [
            MemorySection(index, self.section_bytes, state, numa_node)
            for index in indices
        ]
        self._sections.update(zip(indices, created))
        return created

    def _new_indices(self, start: int, size: int) -> range:
        """The indices a probe of ``[start, start+size)`` adds; raises
        unless it is section-aligned and nothing there is present."""
        if start % self.section_bytes or size % self.section_bytes:
            raise AddressError(
                f"probe [{start:#x}, +{size:#x}) not aligned to "
                f"{self.section_bytes:#x}-byte sections"
            )
        if size <= 0:
            raise AddressError(f"probe size must be > 0: {size}")
        first = self.index_of(start)
        indices = range(first, first + size // self.section_bytes)
        clashes = [i for i in indices if i in self._sections]
        clashes += [
            max(run_first, indices.start)
            for run_first, run_end, _node in self._runs
            if run_first < indices.stop and indices.start < run_end
        ]
        if clashes:
            raise AddressError(f"section {min(clashes)} already present")
        return indices

    def _run_of(self, index: int) -> int:
        """Position in ``_runs`` of the run holding ``index``, or -1."""
        for position, (first, end, _node) in enumerate(self._runs):
            if first <= index < end:
                return position
        return -1

    def _materialize(self, index: int) -> Optional[MemorySection]:
        """Turn ``index`` of a boot run into an object; None if absent."""
        position = self._run_of(index)
        if position < 0:
            return None
        first, end, numa_node = self._runs[position]
        tail = [(index + 1, end, numa_node)] if index + 1 < end else []
        head = [(first, index, numa_node)] if first < index else []
        self._runs[position:position + 1] = head + tail
        section = MemorySection(
            index, self.section_bytes, SectionState.ONLINE, numa_node
        )
        self._sections[index] = section
        return section

    def _materialize_all(self) -> None:
        for first, end, numa_node in self._runs:
            for index in range(first, end):
                self._sections[index] = MemorySection(
                    index, self.section_bytes, SectionState.ONLINE, numa_node
                )
        self._runs = []

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
        section = self._sections.get(index)
        if section is None:
            section = self._materialize(index)
            if section is None:
                raise AddressError(f"no section at index {index}")
        return section

    def section_at(self, address: int) -> MemorySection:
        return self.section(self.index_of(address))

    def present(self, index: int) -> bool:
        return index in self._sections or self._run_of(index) >= 0

    def sections(self) -> Iterator[MemorySection]:
        self._materialize_all()
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
        count = sum(
            1
            for s in self._sections.values()
            if s.online and (numa_node is None or s.numa_node == numa_node)
        )
        count += sum(
            end - first
            for first, end, node in self._runs
            if numa_node is None or node == numa_node
        )
        return count * self.section_bytes

    def __len__(self) -> int:
        return len(self._sections) + sum(
            end - first for first, end, _node in self._runs
        )
