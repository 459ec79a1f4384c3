"""Page-frame allocation with NUMA policies.

Models the slice of the Linux memory manager the evaluation exercises:
per-node free lists fed by online sections, and the mempolicy modes the
paper's configurations map to —

* ``local``  → all allocations from the CPU's node (the *local* and
  *single/bonding-disaggregated* configs, which bind to one node),
* ``interleave`` → round-robin across a node set ("the Linux kernel is
  alternating on a 50/50 basis pages from the two NUMA nodes", §VI-C),
* ``preferred`` → try one node, fall back by distance,
* ``bind`` → restricted node set, allocation fails when exhausted.

Each node's free list is an ordered deque of ``(first_pfn, count)``
runs. Read head to tail and expanded, the runs are the per-frame free
order: allocation takes from the head, ``free`` puts a frame back at
the head and onlining or unpinning appends at the tail. Onlining a node
is one run, not one entry per frame, so bring-up and contiguous pinning
cost O(runs), not O(page frames), while every PFN handed out stays the
one a per-frame list would hand out.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..mem.address import AddressError, AddressRange

__all__ = ["PagePolicy", "Page", "PageAllocator", "OutOfMemory"]

#: ppc64 kernels use 64 KiB base pages.
DEFAULT_PAGE_BYTES = 64 * 1024

#: ``count`` consecutive free frames starting at ``first_pfn``.
Run = Tuple[int, int]


class OutOfMemory(MemoryError):
    """Allocation could not be satisfied under the active policy."""


class PagePolicy(enum.Enum):
    LOCAL = "local"
    INTERLEAVE = "interleave"
    PREFERRED = "preferred"
    BIND = "bind"


@dataclass(frozen=True)
class Page:
    """One allocated page frame."""

    pfn: int
    address: int
    node_id: int
    page_bytes: int

    @property
    def range(self) -> AddressRange:
        return AddressRange(self.address, self.page_bytes)


def _append_run(runs: Deque[Run], first: int, count: int) -> None:
    """Append a run at the tail, merging it into the tail run."""
    if runs:
        tail_first, tail_count = runs[-1]
        if tail_first + tail_count == first:
            runs[-1] = (tail_first, tail_count + count)
            return
    runs.append((first, count))


def _split_runs(
    runs: Deque[Run], lo: int, hi: int
) -> Tuple[Deque[Run], List[Run]]:
    """Cut PFNs ``[lo, hi)`` out of ``runs``, keeping the order of both.

    Returns the runs left and the runs cut out.
    """
    kept: Deque[Run] = deque()
    cut: List[Run] = []
    for first, count in runs:
        end = first + count
        inner_lo, inner_hi = max(first, lo), min(end, hi)
        if inner_lo >= inner_hi:
            _append_run(kept, first, count)
            continue
        if first < inner_lo:
            _append_run(kept, first, inner_lo - first)
        cut.append((inner_lo, inner_hi - inner_lo))
        if inner_hi < end:
            _append_run(kept, inner_hi, end - inner_hi)
    return kept, cut


def _lowest_fit(runs: Deque[Run], count: int) -> Optional[int]:
    """First PFN of the lowest-addressed ``count`` consecutive free frames."""
    start = end = -1
    for first, length in sorted(runs):
        if first != end:
            start = first
        end = first + length
        if end - start >= count:
            return start
    return None


class PageAllocator:
    """Per-node free lists over section-backed physical ranges."""

    def __init__(self, page_bytes: int = DEFAULT_PAGE_BYTES):
        if page_bytes <= 0 or (page_bytes & (page_bytes - 1)) != 0:
            raise AddressError(
                f"page_bytes must be a power of two: {page_bytes}"
            )
        self.page_bytes = page_bytes
        self._free: Dict[int, Deque[Run]] = {}
        self._allocated: Dict[int, set] = {}
        self._interleave_next = 0
        self.allocated_pages: Dict[int, int] = {}
        #: Pinned runs by first PFN: ``(node_id, count)``. Their frames
        #: count as allocated without being listed one by one.
        self._pinned_runs: Dict[int, Tuple[int, int]] = {}

    # -- feeding the allocator ------------------------------------------------------
    def add_range(self, node_id: int, physical: AddressRange) -> int:
        """Online a physical range into a node; returns pages added."""
        if physical.size % self.page_bytes:
            raise AddressError(
                f"range size {physical.size:#x} not a multiple of the "
                f"{self.page_bytes:#x}-byte page size"
            )
        free = self._free.setdefault(node_id, deque())
        count = physical.size // self.page_bytes
        _append_run(free, physical.start // self.page_bytes, count)
        self.allocated_pages.setdefault(node_id, 0)
        return count

    def drain_range(self, node_id: int, physical: AddressRange) -> List[int]:
        """Pull every *free* page in the range off the free list.

        Used when offlining sections; returns the PFNs captured. Pages
        still allocated inside the range must be migrated first — the
        caller (hotplug) is responsible for that ordering.
        """
        # Frames whose first byte lies in the range.
        lo = -(-physical.start // self.page_bytes)
        hi = -(-physical.end // self.page_bytes)
        kept, cut = _split_runs(self._free.get(node_id, deque()), lo, hi)
        self._free[node_id] = kept
        return [pfn for first, count in cut
                for pfn in range(first, first + count)]

    # -- allocation -------------------------------------------------------------------
    def allocate(
        self,
        count: int,
        policy: PagePolicy = PagePolicy.LOCAL,
        nodes: Optional[Sequence[int]] = None,
        fallback_order: Optional[Sequence[int]] = None,
    ) -> List[Page]:
        """Allocate ``count`` pages under ``policy``.

        ``nodes`` is the policy node set (the local node for LOCAL, the
        interleave set for INTERLEAVE, the preferred node first for
        PREFERRED, the binding for BIND). ``fallback_order`` lists other
        nodes to try, nearest first, for LOCAL/PREFERRED.
        """
        if count < 0:
            raise AddressError(f"negative page count: {count}")
        if not nodes:
            raise AddressError("policy needs at least one node")
        pages: List[Page] = []
        try:
            if policy is PagePolicy.INTERLEAVE:
                for i in range(count):
                    pages.append(self._take_interleaved(nodes))
            elif policy is PagePolicy.BIND:
                for _ in range(count):
                    pages.append(self._take_first_available(nodes))
            else:  # LOCAL and PREFERRED share try-then-fallback shape
                order = list(nodes) + list(fallback_order or [])
                for _ in range(count):
                    pages.append(self._take_first_available(order))
        except OutOfMemory:
            self.free(pages)
            raise
        return pages

    def free(self, pages: Sequence[Page]) -> None:
        for page in pages:
            free = self._free.setdefault(page.node_id, deque())
            pfn = page.pfn
            if free and free[0][0] == pfn + 1:
                free[0] = (pfn, free[0][1] + 1)
            else:
                free.appendleft((pfn, 1))
            self._allocated.get(page.node_id, set()).discard(pfn)
            self.allocated_pages[page.node_id] -= 1

    # -- internals ------------------------------------------------------------------
    def _take_interleaved(self, nodes: Sequence[int]) -> Page:
        attempts = len(nodes)
        while attempts:
            node = nodes[self._interleave_next % len(nodes)]
            self._interleave_next += 1
            page = self._try_take(node)
            if page is not None:
                return page
            attempts -= 1
        raise OutOfMemory(f"interleave set {list(nodes)} exhausted")

    def _take_first_available(self, order: Sequence[int]) -> Page:
        for node in order:
            page = self._try_take(node)
            if page is not None:
                return page
        raise OutOfMemory(f"nodes {list(order)} exhausted")

    def _try_take(self, node_id: int) -> Optional[Page]:
        free = self._free.get(node_id)
        if not free:
            return None
        pfn, count = free[0]
        if count == 1:
            free.popleft()
        else:
            free[0] = (pfn + 1, count - 1)
        self.allocated_pages[node_id] = self.allocated_pages.get(node_id, 0) + 1
        self._allocated.setdefault(node_id, set()).add(pfn)
        return Page(
            pfn=pfn,
            address=pfn * self.page_bytes,
            node_id=node_id,
            page_bytes=self.page_bytes,
        )

    # -- migration support ------------------------------------------------------------
    def move_page(self, page: Page, target_node: int) -> Optional[Page]:
        """Allocate a frame on ``target_node`` and retire ``page``.

        Returns the replacement page, or None when the target is full
        (the kernel keeps the page where it is in that case). The caller
        copies content and updates its own mappings.
        """
        replacement = self._try_take(target_node)
        if replacement is None:
            return None
        self.free([page])
        return replacement

    # -- contiguous pinning (donor-side memory stealing) --------------------------------
    def take_contiguous(self, node_id: int, count: int) -> AddressRange:
        """Carve a run of ``count`` consecutive free frames off a node.

        Takes the lowest-addressed such run. Returns the pinned physical
        range; raises :class:`OutOfMemory` when no sufficiently long run
        exists (fragmentation).
        """
        if count < 1:
            raise AddressError(f"count must be >= 1: {count}")
        free = self._free.get(node_id)
        available = self.free_pages(node_id)
        if available < count:
            raise OutOfMemory(
                f"node {node_id}: {available} free pages, "
                f"need {count} contiguous"
            )
        base = _lowest_fit(free, count)
        if base is None:
            raise OutOfMemory(
                f"node {node_id}: no contiguous run of {count} pages"
            )
        self._free[node_id], _ = _split_runs(free, base, base + count)
        self.allocated_pages[node_id] = (
            self.allocated_pages.get(node_id, 0) + count
        )
        self._pinned_runs[base] = (node_id, count)
        return AddressRange(base * self.page_bytes, count * self.page_bytes)

    def release_contiguous(self, pinned: AddressRange) -> None:
        base = pinned.start // self.page_bytes
        try:
            node_id, count = self._pinned_runs.pop(base)
        except KeyError:
            raise AddressError(f"range {pinned!r} was not pinned") from None
        _append_run(self._free.setdefault(node_id, deque()), base, count)
        self.allocated_pages[node_id] -= count

    # -- accounting -------------------------------------------------------------------
    def has_allocated_in(self, node_id: int, physical: AddressRange) -> bool:
        """True when any allocated frame lies inside ``physical``."""
        first = physical.start // self.page_bytes
        last = (physical.end - 1) // self.page_bytes
        for base, (pinned_node, count) in self._pinned_runs.items():
            if pinned_node == node_id and base <= last and first < base + count:
                return True
        allocated = self._allocated.get(node_id, set())
        if len(allocated) < (last - first + 1):
            return any(first <= pfn <= last for pfn in allocated)
        return any(pfn in allocated for pfn in range(first, last + 1))

    def free_pages(self, node_id: int) -> int:
        return sum(count for _, count in self._free.get(node_id, ()))

    def nodes(self) -> List[int]:
        return sorted(self._free)
