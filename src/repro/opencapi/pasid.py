"""Process Address Space ID registry.

The memory-stealing process pins donor memory and registers its PASID
with the endpoint hardware so the device may master cache-coherent
transactions into that (and only that) address range — OpenCAPI C1 mode
(paper §IV-A2). This module models the registry and its access checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..mem.address import AddressRange

__all__ = ["PasidEntry", "PasidRegistry", "PasidError"]


class PasidError(PermissionError):
    """Raised when a device access fails the PASID window check."""


@dataclass
class PasidEntry:
    """One registered process address space: PASID + pinned windows."""

    pasid: int
    owner: str
    windows: List[AddressRange] = field(default_factory=list)

    def permits(self, address: int, size: int) -> bool:
        if address < 0 or size <= 0:
            AddressRange(address, size)  # raises the AddressError
        end = address + size
        for window in self.windows:
            if window.start <= address and end <= window.start + window.size:
                return True
        return False


class PasidRegistry:
    """Allocates PASIDs and validates device-mastered accesses."""

    def __init__(self, max_entries: int = 512):
        self.max_entries = max_entries
        self._entries: Dict[int, PasidEntry] = {}
        self._next = itertools.count(1)

    def register(self, owner: str) -> PasidEntry:
        if len(self._entries) >= self.max_entries:
            raise PasidError(
                f"PASID table full ({self.max_entries} entries)"
            )
        pasid = next(self._next)
        entry = PasidEntry(pasid=pasid, owner=owner)
        self._entries[pasid] = entry
        return entry

    def add_window(self, pasid: int, window: AddressRange) -> None:
        """Pin a memory window under a PASID (donor reservation)."""
        self.lookup(pasid).windows.append(window)

    def remove_window(self, pasid: int, window: AddressRange) -> None:
        entry = self.lookup(pasid)
        try:
            entry.windows.remove(window)
        except ValueError:
            raise PasidError(
                f"window {window!r} not pinned under PASID {pasid}"
            ) from None

    def unregister(self, pasid: int) -> None:
        if pasid not in self._entries:
            raise PasidError(f"unknown PASID {pasid}")
        del self._entries[pasid]

    def lookup(self, pasid: int) -> PasidEntry:
        try:
            return self._entries[pasid]
        except KeyError:
            raise PasidError(f"unknown PASID {pasid}") from None

    def check_access(self, pasid: Optional[int], address: int, size: int) -> None:
        """Raise :class:`PasidError` unless the access is authorized."""
        if pasid is None:
            raise PasidError("device access without a PASID")
        entry = self.lookup(pasid)
        if not entry.permits(address, size):
            raise PasidError(
                f"PASID {pasid} ({entry.owner}) may not access "
                f"[{address:#x}, {address + size:#x})"
            )

    def __len__(self) -> int:
        return len(self._entries)
