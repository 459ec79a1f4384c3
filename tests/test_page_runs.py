"""The run-based page allocator against a per-frame reference.

``PageAllocator`` keeps each node's free list as ``(first_pfn, count)``
runs. :class:`ReferenceAllocator` below is the per-frame allocator it
replaced, kept as the oracle: on any sequence of operations both must
hand out the same pages and ranges, raise the same errors and, after
every step, hold the same free order once the runs are expanded.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import MIB, AddressError, AddressRange
from repro.mem.numa import NumaNode, NumaTopology
from repro.osmodel import OutOfMemory, PageAllocator, PagePolicy
from repro.osmodel.pages import Page
from repro.testbed import Testbed

PAGE = 4096
NODES = (0, 1, 2)


class ReferenceAllocator:
    """One deque entry per free frame: the allocator before runs."""

    def __init__(self, page_bytes):
        self.page_bytes = page_bytes
        self._free = {}
        self._allocated = {}
        self._interleave_next = 0
        self.allocated_pages = {}
        self._pinned_runs = {}

    def add_range(self, node_id, physical):
        if physical.size % self.page_bytes:
            raise AddressError(
                f"range size {physical.size:#x} not a multiple of the "
                f"{self.page_bytes:#x}-byte page size"
            )
        free = self._free.setdefault(node_id, deque())
        first_pfn = physical.start // self.page_bytes
        count = physical.size // self.page_bytes
        for pfn in range(first_pfn, first_pfn + count):
            free.append(pfn)
        self.allocated_pages.setdefault(node_id, 0)
        return count

    def drain_range(self, node_id, physical):
        free = self._free.get(node_id, deque())
        captured, kept = [], deque()
        for pfn in free:
            if physical.contains(pfn * self.page_bytes):
                captured.append(pfn)
            else:
                kept.append(pfn)
        self._free[node_id] = kept
        return captured

    def allocate(self, count, policy=PagePolicy.LOCAL, nodes=None,
                 fallback_order=None):
        if count < 0:
            raise AddressError(f"negative page count: {count}")
        if not nodes:
            raise AddressError("policy needs at least one node")
        pages = []
        try:
            if policy is PagePolicy.INTERLEAVE:
                for _ in range(count):
                    pages.append(self._take_interleaved(nodes))
            elif policy is PagePolicy.BIND:
                for _ in range(count):
                    pages.append(self._take_first_available(nodes))
            else:
                order = list(nodes) + list(fallback_order or [])
                for _ in range(count):
                    pages.append(self._take_first_available(order))
        except OutOfMemory:
            self.free(pages)
            raise
        return pages

    def free(self, pages):
        for page in pages:
            self._free.setdefault(page.node_id, deque()).appendleft(page.pfn)
            self._allocated.get(page.node_id, set()).discard(page.pfn)
            self.allocated_pages[page.node_id] -= 1

    def _take_interleaved(self, nodes):
        attempts = len(nodes)
        while attempts:
            node = nodes[self._interleave_next % len(nodes)]
            self._interleave_next += 1
            page = self._try_take(node)
            if page is not None:
                return page
            attempts -= 1
        raise OutOfMemory(f"interleave set {list(nodes)} exhausted")

    def _take_first_available(self, order):
        for node in order:
            page = self._try_take(node)
            if page is not None:
                return page
        raise OutOfMemory(f"nodes {list(order)} exhausted")

    def _try_take(self, node_id):
        free = self._free.get(node_id)
        if not free:
            return None
        pfn = free.popleft()
        self.allocated_pages[node_id] = self.allocated_pages.get(node_id, 0) + 1
        self._allocated.setdefault(node_id, set()).add(pfn)
        return Page(pfn=pfn, address=pfn * self.page_bytes, node_id=node_id,
                    page_bytes=self.page_bytes)

    def move_page(self, page, target_node):
        replacement = self._try_take(target_node)
        if replacement is None:
            return None
        self.free([page])
        return replacement

    def take_contiguous(self, node_id, count):
        if count < 1:
            raise AddressError(f"count must be >= 1: {count}")
        free = self._free.get(node_id)
        if not free or len(free) < count:
            raise OutOfMemory(
                f"node {node_id}: {0 if not free else len(free)} free pages, "
                f"need {count} contiguous"
            )
        ordered = sorted(free)
        run_start = 0
        for i in range(1, len(ordered) + 1):
            if i == len(ordered) or ordered[i] != ordered[i - 1] + 1:
                if i - run_start >= count:
                    chosen = set(ordered[run_start:run_start + count])
                    self._free[node_id] = deque(
                        pfn for pfn in free if pfn not in chosen
                    )
                    self._allocated.setdefault(node_id, set()).update(chosen)
                    self.allocated_pages[node_id] = (
                        self.allocated_pages.get(node_id, 0) + count
                    )
                    base = ordered[run_start]
                    self._pinned_runs[base] = (node_id, count)
                    return AddressRange(
                        base * self.page_bytes, count * self.page_bytes
                    )
                run_start = i
        raise OutOfMemory(f"node {node_id}: no contiguous run of {count} pages")

    def release_contiguous(self, pinned):
        base = pinned.start // self.page_bytes
        try:
            node_id, count = self._pinned_runs.pop(base)
        except KeyError:
            raise AddressError(f"range {pinned!r} was not pinned") from None
        free = self._free.setdefault(node_id, deque())
        allocated = self._allocated.setdefault(node_id, set())
        for pfn in range(base, base + count):
            allocated.discard(pfn)
            free.append(pfn)
        self.allocated_pages[node_id] -= count

    def has_allocated_in(self, node_id, physical):
        allocated = self._allocated.get(node_id, set())
        first = physical.start // self.page_bytes
        last = (physical.end - 1) // self.page_bytes
        return any(first <= pfn <= last for pfn in allocated)

    def free_pages(self, node_id):
        return len(self._free.get(node_id, ()))

    def nodes(self):
        return sorted(self._free)


def _outcome(call):
    """A call's result, or its exception's type and message."""
    try:
        return ("ok", call())
    except (AddressError, OutOfMemory) as error:
        return ("error", type(error), str(error))


def runs_of(allocator, node):
    """A node's free list as ``(first_pfn, count)`` runs, head first."""
    return list(allocator._free[node])


def _expand(runs):
    return [pfn for first, count in runs for pfn in range(first, first + count)]


def _assert_same_state(runs, reference):
    assert runs.nodes() == reference.nodes()
    for node in reference.nodes():
        assert _expand(runs_of(runs, node)) == list(reference._free[node])
        assert runs.free_pages(node) == reference.free_pages(node)
    assert runs.allocated_pages == reference.allocated_pages


node_ids = st.sampled_from(NODES)
#: Policy node lists may name a node that never got memory.
node_lists = st.lists(st.sampled_from(NODES + (3,)), max_size=3)
#: Mostly page-aligned range bounds, sometimes not.
offsets = st.sampled_from((0, 0, 0, 1, PAGE // 2))
OPERATIONS = (
    "add", "allocate", "free", "move", "take", "release", "drain", "query",
)


class TestMatchesPerFrameReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_operation_sequences(self, data):
        runs = PageAllocator(PAGE)
        reference = ReferenceAllocator(PAGE)
        held, pinned = [], []
        cursor = 0  # first PFN never fed to either allocator
        for _ in range(data.draw(st.integers(1, 40), label="steps")):
            op = data.draw(st.sampled_from(OPERATIONS), label="op")
            if op == "add":
                node = data.draw(node_ids)
                first = cursor + data.draw(st.integers(0, 3))
                count = data.draw(st.integers(1, 12))
                size = count * PAGE + data.draw(st.sampled_from((0, 0, 0, 1)))
                cursor = first + count
                physical = AddressRange(first * PAGE, size)
                calls = [lambda a=a: a.add_range(node, physical)
                         for a in (runs, reference)]
            elif op == "allocate":
                args = (
                    data.draw(st.integers(-1, 12)),
                    data.draw(st.sampled_from(list(PagePolicy))),
                    data.draw(node_lists),
                    data.draw(node_lists),
                )
                calls = [lambda a=a: a.allocate(*args)
                         for a in (runs, reference)]
            elif op == "free":
                if not held:
                    continue
                picks = data.draw(st.lists(
                    st.integers(0, len(held) - 1), unique=True, max_size=6
                ))
                pages = [held[i] for i in picks]
                held = [p for i, p in enumerate(held) if i not in picks]
                calls = [lambda a=a: a.free(pages) for a in (runs, reference)]
            elif op == "move":
                if not held:
                    continue
                index = data.draw(st.integers(0, len(held) - 1))
                target = data.draw(node_ids)
                page = held[index]
                calls = [lambda a=a: a.move_page(page, target)
                         for a in (runs, reference)]
            elif op == "take":
                node = data.draw(node_ids)
                count = data.draw(st.integers(0, 30))
                calls = [lambda a=a: a.take_contiguous(node, count)
                         for a in (runs, reference)]
            elif op == "release":
                if pinned and data.draw(st.booleans()):
                    physical = pinned.pop(
                        data.draw(st.integers(0, len(pinned) - 1))
                    )
                else:  # never pinned
                    physical = AddressRange((cursor + 1) * PAGE, PAGE)
                calls = [lambda a=a: a.release_contiguous(physical)
                         for a in (runs, reference)]
            else:  # drain and query take any byte range, aligned or not
                node = data.draw(node_ids)
                physical = AddressRange(
                    data.draw(st.integers(0, cursor + 2)) * PAGE
                    + data.draw(offsets),
                    data.draw(st.integers(1, 20)) * PAGE - data.draw(offsets),
                )
                method = "drain_range" if op == "drain" else "has_allocated_in"
                calls = [lambda a=a: getattr(a, method)(node, physical)
                         for a in (runs, reference)]
            got, expected = (_outcome(call) for call in calls)
            assert got == expected, op
            if expected[0] == "ok":
                if op == "allocate":
                    held.extend(expected[1])
                elif op == "move" and expected[1] is not None:
                    held[index] = expected[1]
                elif op == "take":
                    pinned.append(expected[1])
            _assert_same_state(runs, reference)


class TestRuns:
    def test_online_ranges_merge_into_one_run(self):
        allocator = PageAllocator(PAGE)
        for index in range(4):
            allocator.add_range(0, AddressRange(index * 4 * PAGE, 4 * PAGE))
        assert runs_of(allocator, 0) == [(0, 16)]

    def test_freed_neighbour_merges_into_the_head_run(self):
        allocator = PageAllocator(PAGE)
        allocator.add_range(0, AddressRange(0, 8 * PAGE))
        pages = allocator.allocate(2, nodes=[0])
        allocator.free([pages[1]])
        assert runs_of(allocator, 0) == [(1, 7)]
        allocator.free([pages[0]])
        assert runs_of(allocator, 0) == [(0, 8)]

    def test_take_contiguous_picks_the_lowest_address_fit(self):
        allocator = PageAllocator(PAGE)
        allocator.add_range(0, AddressRange(20 * PAGE, 4 * PAGE))
        allocator.add_range(0, AddressRange(2 * PAGE, 2 * PAGE))
        allocator.add_range(0, AddressRange(10 * PAGE, 3 * PAGE))
        allocator.add_range(0, AddressRange(4 * PAGE, 1 * PAGE))
        pinned = allocator.take_contiguous(0, 3)
        assert pinned == AddressRange(2 * PAGE, 3 * PAGE)
        assert runs_of(allocator, 0) == [(20, 4), (10, 3)]
        # The pinned frames count as allocated, first and last included.
        assert allocator.has_allocated_in(0, AddressRange(0, 3 * PAGE))
        assert allocator.has_allocated_in(0, AddressRange(4 * PAGE, PAGE))
        assert not allocator.has_allocated_in(0, AddressRange(5 * PAGE, PAGE))
        allocator.release_contiguous(pinned)
        assert not allocator.has_allocated_in(0, AddressRange(0, 30 * PAGE))
        assert runs_of(allocator, 0) == [(20, 4), (10, 3), (2, 3)]

    def test_fragmentation_still_raises(self):
        allocator = PageAllocator(PAGE)
        allocator.add_range(0, AddressRange(0, 2 * PAGE))
        allocator.add_range(0, AddressRange(3 * PAGE, 2 * PAGE))
        with pytest.raises(OutOfMemory, match="no contiguous run of 3 pages"):
            allocator.take_contiguous(0, 3)


class TestBringUpStaysCompact:
    """Bring-up is one run per node; attach history does not fragment."""

    def test_free_lists_stay_at_most_two_runs(self):
        testbed = Testbed()
        kernels = [node.kernel for node in testbed.nodes]
        for kernel in kernels:
            for node_id in kernel.pages.nodes():
                assert len(runs_of(kernel.pages, node_id)) == 1
        for _ in range(100):
            attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
            testbed.detach(attachment)
            for kernel in kernels:
                for node_id in kernel.pages.nodes():
                    assert len(runs_of(kernel.pages, node_id)) <= 2


class TestTopologyOrder:
    def test_ids_and_cpu_nodes_follow_adds_and_removes(self):
        topology = NumaTopology()
        for node_id, cpus in ((5, 0), (1, 4), (3, 0), (0, 8)):
            topology.add_node(NumaNode(node_id, memory_bytes=MIB,
                                       cpu_count=cpus))
        assert topology.node_ids == [0, 1, 3, 5]
        assert [n.node_id for n in topology.cpu_nodes()] == [0, 1]
        topology.remove_node(1)
        topology.remove_node(5)
        assert topology.node_ids == [0, 3]
        assert [n.node_id for n in topology.nodes] == [0, 3]
        assert [n.node_id for n in topology.cpu_nodes()] == [0]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["add", "resize", "remove", "distance"]),
            st.integers(0, 2),
            st.integers(0, 2),
            st.sampled_from([0, 0, MIB, 2 * MIB]),
        ),
        max_size=30,
    ))
    def test_memory_queries_match_naive_filter(self, ops):
        topology = NumaTopology()
        for op, node_id, other, size in ops:
            present = node_id in topology
            if op == "add" and not present:
                topology.add_node(NumaNode(node_id, memory_bytes=size,
                                           cpu_count=other % 2))
            elif op == "resize" and present:
                topology.resize(node_id, size)
            elif op == "remove" and present:
                topology.remove_node(node_id)
            elif op == "distance" and present and other in topology:
                # Any SLIT distance from 10 up; vary it with the draw.
                distance = 10 + other + 7 * (size // MIB)
                topology.set_distance(node_id, other, distance)
            naive = [n for n in topology.nodes if n.memory_bytes > 0]
            assert topology.memory_nodes() == naive
            for source in topology.node_ids:
                reachable = [
                    n for n in naive
                    if (source, n.node_id) in topology._distance
                ]
                assert topology.nodes_by_distance(source) == sorted(
                    reachable,
                    key=lambda n: topology.distance(source, n.node_id),
                )

    def test_attach_history_leaves_memory_nodes_at_boot(self):
        testbed = Testbed()
        topologies = [node.kernel.topology for node in testbed.nodes]
        boot = [[n.node_id for n in t.memory_nodes()] for t in topologies]
        for _ in range(200):
            attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
            testbed.detach(attachment)
        assert [
            [n.node_id for n in t.memory_nodes()] for t in topologies
        ] == boot
        # The emptied CPU-less nodes are kept: the memory queries no
        # longer walk them.
        assert len(topologies[0].node_ids) > len(boot[0])
