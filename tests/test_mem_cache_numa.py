"""Tests for cache models, DRAM device timing and NUMA topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    CACHELINE_BYTES,
    LOCAL_DISTANCE,
    AccessProfile,
    AddressRange,
    AmatModel,
    CacheConfig,
    CacheHierarchy,
    DramDevice,
    DramTiming,
    NumaNode,
    NumaTopology,
    SetAssociativeCache,
    power9_hierarchy,
)
from repro.sim import Simulator


def tiny_cache(size=1024, ways=2, line=64):
    return SetAssociativeCache(CacheConfig("test", size, ways=ways, line_bytes=line))


class TestSetAssociativeCache:
    def test_first_access_misses_second_hits(self):
        cache = tiny_cache()
        assert cache.access(0x100) is False
        assert cache.access(0x100) is True

    def test_same_line_different_bytes_hit(self):
        cache = tiny_cache(line=64)
        cache.access(0x100)
        assert cache.access(0x13F) is True
        assert cache.access(0x140) is False

    def test_lru_eviction_order(self):
        # 2-way cache: two tags fit per set; a third evicts the LRU one.
        cache = tiny_cache(size=128, ways=2, line=64)  # 1 set only... no: 128/64/2=1 set
        a, b, c = 0x000, 0x040 + 0x00, 0x080
        # All three map to set 0 in a single-set cache.
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a is now MRU, b is LRU
        cache.access(c)  # evicts b
        assert cache.access(a) is True
        assert cache.access(b) is False

    def test_dirty_eviction_tracking(self):
        cache = tiny_cache(size=128, ways=1, line=64)  # direct-mapped, 2 sets
        cache.access(0x000, write=True)
        cache.access(0x080)  # same set as 0x000, evicts dirty line
        assert cache.dirty_evictions == 1

    def test_invalidate(self):
        cache = tiny_cache()
        cache.access(0x100)
        assert cache.invalidate(0x100) is True
        assert cache.invalidate(0x100) is False
        assert cache.access(0x100) is False

    def test_flush_counts_dirty_lines(self):
        cache = tiny_cache()
        cache.access(0x000, write=True)
        cache.access(0x100, write=False)
        assert cache.flush() == 1
        assert cache.occupancy == 0

    def test_hit_ratio(self):
        cache = tiny_cache()
        cache.access(0x0)
        cache.access(0x0)
        cache.access(0x0)
        assert cache.hit_ratio == pytest.approx(2 / 3)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 100, ways=3, line_bytes=64)

    @settings(max_examples=30, deadline=None)
    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=200
        )
    )
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = tiny_cache(size=512, ways=2, line=64)
        capacity_lines = 512 // 64
        for address in addresses:
            cache.access(address)
        assert cache.occupancy <= capacity_lines
        assert cache.hits + cache.misses == len(addresses)


class TestCacheHierarchy:
    def test_miss_walks_all_levels(self):
        hierarchy = power9_hierarchy()
        level = hierarchy.access(0x1234)
        assert level == 3  # missed L1, L2, L3 -> memory
        assert hierarchy.access(0x1234) == 0  # now in L1

    def test_hit_latency_accumulates(self):
        hierarchy = power9_hierarchy()
        memory_latency = 100e-9
        # A memory access pays all lookup latencies plus the memory latency.
        total = hierarchy.hit_latency(3, memory_latency)
        assert total == pytest.approx(1e-9 + 4e-9 + 12e-9 + 100e-9)

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])


class TestAmatModel:
    def test_local_profile_ignores_remote_latency(self):
        model = AmatModel(local_memory_latency_s=85e-9)
        profile = AccessProfile(remote_fraction=0.0)
        assert model.miss_penalty(profile, 950e-9) == pytest.approx(85e-9)

    def test_fully_remote_profile(self):
        model = AmatModel()
        profile = AccessProfile(remote_fraction=1.0)
        assert model.miss_penalty(profile, 950e-9) == pytest.approx(950e-9)

    def test_interleaved_is_mean_of_local_and_remote(self):
        model = AmatModel(local_memory_latency_s=100e-9)
        profile = AccessProfile(remote_fraction=0.5)
        assert model.miss_penalty(profile, 900e-9) == pytest.approx(500e-9)

    def test_amat_scales_with_miss_ratio(self):
        model = AmatModel(llc_hit_latency_s=10e-9, local_memory_latency_s=100e-9)
        low = AccessProfile(llc_miss_ratio=0.01)
        high = AccessProfile(llc_miss_ratio=0.10)
        assert model.amat(high, 0) > model.amat(low, 0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            AccessProfile(llc_miss_ratio=1.5)
        with pytest.raises(ValueError):
            AccessProfile(remote_fraction=-0.1)

    def test_with_remote_fraction_copies(self):
        base = AccessProfile(remote_fraction=0.0, llc_miss_ratio=0.05)
        remote = base.with_remote_fraction(1.0)
        assert remote.remote_fraction == 1.0
        assert remote.llc_miss_ratio == 0.05
        assert base.remote_fraction == 0.0


class TestDramDevice:
    def make_dram(self, sim, latency=100e-9):
        timing = DramTiming(
            access_latency_s=latency,
            bandwidth_bytes_per_s=128e9,
            banks=2,
        )
        return DramDevice(sim, AddressRange(0, 1 << 20), timing=timing)

    def test_functional_read_after_write(self):
        sim = Simulator()
        dram = self.make_dram(sim)

        def proc():
            yield from dram.write(0x100, b"W" * CACHELINE_BYTES)
            data = yield from dram.read(0x100, CACHELINE_BYTES)
            return data

        assert sim.run_process(proc()) == b"W" * CACHELINE_BYTES

    def test_access_takes_latency_plus_transfer(self):
        sim = Simulator()
        dram = self.make_dram(sim, latency=100e-9)

        def proc():
            yield from dram.read(0, CACHELINE_BYTES)
            return sim.now

        elapsed = sim.run_process(proc())
        expected = 100e-9 + CACHELINE_BYTES / 128e9
        assert elapsed == pytest.approx(expected)

    def test_bank_contention_serializes_excess_requests(self):
        sim = Simulator()
        dram = self.make_dram(sim, latency=100e-9)  # 2 banks

        def issue_three():
            procs = [
                sim.process(dram.read(i * 128, 128)) for i in range(3)
            ]
            yield sim.all_of(procs)
            return sim.now

        elapsed = sim.run_process(issue_three())
        one_access = 100e-9 + 128 / 128e9
        # Third request waits for a bank: total ≈ 2 serialized accesses.
        assert elapsed == pytest.approx(2 * one_access, rel=0.01)

    def test_latency_stats_recorded(self):
        sim = Simulator()
        dram = self.make_dram(sim)

        def proc():
            yield from dram.read(0, 128)
            yield from dram.write(0, b"x" * 128)

        sim.run_process(proc())
        assert dram.reads == 1
        assert dram.writes == 1
        assert dram.read_latency.count == 1

    def test_invalid_timing_rejected(self):
        with pytest.raises(ValueError):
            DramTiming(access_latency_s=-1)
        with pytest.raises(ValueError):
            DramTiming(banks=0)


class TestNumaTopology:
    def build(self):
        topo = NumaTopology()
        topo.add_node(NumaNode(0, memory_bytes=1 << 30, cpu_count=16))
        topo.add_node(NumaNode(1, memory_bytes=1 << 30, cpu_count=16))
        topo.set_distance(0, 1, 20)
        return topo

    def test_self_distance_is_local(self):
        topo = self.build()
        assert topo.distance(0, 0) == LOCAL_DISTANCE

    def test_distance_is_symmetric(self):
        topo = self.build()
        assert topo.distance(0, 1) == topo.distance(1, 0) == 20

    def test_latency_scales_with_distance(self):
        topo = self.build()
        local = topo.latency_s(0, 0)
        remote = topo.latency_s(0, 1)
        assert remote == pytest.approx(2 * local)

    def test_cpuless_node_classification(self):
        topo = self.build()
        topo.add_node(NumaNode(2, memory_bytes=1 << 30, cpu_count=0,
                               base_latency_s=950e-9))
        assert topo.node(2).is_cpuless
        assert [n.node_id for n in topo.cpu_nodes()] == [0, 1]

    def test_distance_for_latency_roundtrip(self):
        topo = self.build()
        topo.add_node(NumaNode(2, memory_bytes=1 << 30, cpu_count=0,
                               base_latency_s=85e-9))
        distance = topo.distance_for_latency(0, 2, 950e-9)
        topo.set_distance(0, 2, distance)
        assert topo.latency_s(0, 2) == pytest.approx(950e-9, rel=0.06)

    def test_nodes_by_distance_sorted(self):
        topo = self.build()
        topo.add_node(NumaNode(2, memory_bytes=1 << 30, cpu_count=0))
        topo.set_distance(0, 2, 80)
        ordered = [n.node_id for n in topo.nodes_by_distance(0)]
        assert ordered == [0, 1, 2]

    def test_reserve_release(self):
        node = NumaNode(0, memory_bytes=1000)
        node.reserve(400)
        assert node.free_bytes == 600
        node.release(400)
        assert node.free_bytes == 1000
        with pytest.raises(ValueError):
            node.reserve(2000)
        with pytest.raises(ValueError):
            node.release(1)

    def test_resize_protects_used_memory(self):
        node = NumaNode(0, memory_bytes=1000)
        node.reserve(800)
        with pytest.raises(ValueError):
            node.resize(500)
        node.resize(2000)
        assert node.free_bytes == 1200

    def test_duplicate_node_rejected(self):
        topo = self.build()
        with pytest.raises(ValueError):
            topo.add_node(NumaNode(0, memory_bytes=1))

    def test_remove_node_clears_distances(self):
        topo = self.build()
        topo.remove_node(1)
        assert 1 not in topo
        with pytest.raises(KeyError):
            topo.distance(0, 1)

    def test_below_local_distance_rejected(self):
        topo = self.build()
        with pytest.raises(ValueError):
            topo.set_distance(0, 1, 5)

    def test_totals(self):
        topo = self.build()
        assert topo.total_memory() == 2 << 30
        topo.node(0).reserve(1 << 20)
        assert topo.total_free() == (2 << 30) - (1 << 20)
