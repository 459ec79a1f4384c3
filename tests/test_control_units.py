"""Unit tests for the control-plane pieces in isolation: state graph,
path planner, and the agent's attach/detach mechanics."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    GraphError,
    NoPathError,
    NodeKind,
    PathPlanner,
    StateGraph,
)
from repro.core import ThymesisFlowDevice
from repro.mem import AddressRange, MIB
from repro.opencapi import PasidRegistry
from repro.osmodel import AgentError, AttachPlan, LinuxKernel, ThymesisFlowAgent
from repro.sim import Simulator


def two_host_graph(transceivers=2, donor=1 << 30):
    state = StateGraph()
    state.add_host("a", transceivers=transceivers, donor_capacity_bytes=donor)
    state.add_host("b", transceivers=transceivers, donor_capacity_bytes=donor)
    for channel in range(transceivers):
        state.add_cable(state.xcvr("a", channel), state.xcvr("b", channel))
    return state


def packet_rack_graph(capacity=2):
    """4 hosts x 2 transceivers on an 8-port switch, plus one direct cable.

    Small capacities make reservations exhaust ports and transceivers,
    so the free-capacity filter and the load-spreading sort both bite.
    """
    state = StateGraph()
    hosts = [f"node{i}" for i in range(4)]
    for host in hosts:
        state.add_host(host, transceivers=2, channel_capacity=capacity,
                       donor_capacity_bytes=1 << 30)
    state.add_switch("sw", ports=8, port_capacity=capacity)
    for index, host in enumerate(hosts):
        for channel in range(2):
            state.add_cable(state.xcvr(host, channel),
                            state.switch_port("sw", index * 2 + channel))
    state.add_cable(state.xcvr("node0", 0), state.xcvr("node1", 0))
    return state, hosts


def oracle_graph(state):
    """An ``nx.Graph`` with ``state``'s nodes, edges and attributes, and
    every node's neighbors in the same order.

    networkx orders a node's neighbors by when their edges were added,
    so the edges go in in an order that every node's neighbor list
    agrees with: repeatedly add an edge that is next in line at both of
    its ends.
    """
    graph = nx.Graph()
    graph.add_nodes_from(state.nodes.items())
    queues = {node: list(neighbors) for node, neighbors in state.adj.items()}
    heads = dict.fromkeys(queues, 0)

    def next_neighbor(node):
        queue = queues[node]
        return queue[heads[node]] if heads[node] < len(queue) else None

    added = True
    while added:
        added = False
        for node in queues:
            other = next_neighbor(node)
            while other is not None and next_neighbor(other) == node:
                graph.add_edge(node, other, **state.adj[node][other])
                heads[node] += 1
                if other != node:
                    heads[other] += 1
                added = True
                other = next_neighbor(node)
    for node in state.nodes:
        assert list(graph.adj[node]) == list(state.adj[node]), node
    return graph


def reference_candidate_paths(state, compute_host, memory_host):
    """The uncached enumeration: every call walks the whole graph."""
    graph = oracle_graph(state)
    endpoints = (NodeKind.COMPUTE_ENDPOINT, NodeKind.MEMORY_ENDPOINT)
    usable = []
    for path in nx.all_simple_paths(graph, state.cep(compute_host),
                                    state.mep(memory_host), cutoff=6):
        middle = path[1:-1]
        if any(graph.nodes[node]["kind"] in endpoints for node in middle):
            continue
        if all(state.free_capacity(node) > 0 for node in middle):
            usable.append(path)
    usable.sort(key=lambda p: (
        len(p), -min(state.free_capacity(n) for n in p[1:-1])
    ))
    return [tuple(path) for path in usable]


def reference_node_paths(candidates, channels):
    """Disjoint best-first pick over ``candidates``; None if too few."""
    chosen, used = [], set()
    for path in candidates:
        middle = set(path[1:-1])
        if middle & used:
            continue
        chosen.append(path)
        used |= middle
        if len(chosen) == channels:
            return tuple(chosen)
    return None


@st.composite
def wirings(draw):
    """A small random rack: hosts, switches, cables between any two
    transceivers or switch ports (repeats included) and a few
    reservations."""
    state = StateGraph()
    capacities = st.integers(1, 3)
    hosts = [f"h{index}" for index in range(draw(st.integers(2, 4)))]
    for host in hosts:
        state.add_host(host, transceivers=draw(st.integers(1, 3)),
                       channel_capacity=draw(capacities))
    for index in range(draw(st.integers(0, 2))):
        state.add_switch(f"sw{index}", ports=draw(st.integers(2, 4)),
                         port_capacity=draw(capacities))
    cableable = [
        node for node, data in state.nodes.items()
        if data["kind"] in (NodeKind.TRANSCEIVER, NodeKind.SWITCH_PORT)
    ]
    ends = st.sampled_from(cableable)
    cables = st.tuples(ends, ends).filter(lambda pair: pair[0] != pair[1])
    for end_a, end_b in draw(st.lists(cables, max_size=10)):
        state.add_cable(end_a, end_b)
    for node in draw(st.lists(ends, max_size=4)):
        if state.free_capacity(node) > 0:
            state.reserve([node])
    return state, hosts


class TestStateGraph:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["node", "edge"]),
            st.sampled_from("abcde"),
            st.sampled_from("abcde"),
            st.dictionaries(st.sampled_from("xyz"), st.integers(0, 3),
                            max_size=2),
        ),
        max_size=20,
    ))
    def test_primitives_match_networkx(self, ops):
        """Nodes, neighbors and attributes in the order networkx keeps
        them, re-adds included."""
        state, graph = StateGraph(), nx.Graph()
        for op, a, b, attrs in ops:
            if op == "node":
                state._add_node(a, **attrs)
                graph.add_node(a, **attrs)
            elif a in state.nodes and b in state.nodes:
                state._add_edge(a, b, **attrs)
                graph.add_edge(a, b, **attrs)
        assert list(state.nodes.items()) == list(graph.nodes(data=True))
        assert list(state.adj) == list(graph.adj)
        for node in graph:
            assert list(state.adj[node].items()) == list(
                graph.adj[node].items()
            )

    def test_host_registration_creates_nodes(self):
        state = two_host_graph()
        snapshot = state.snapshot()
        assert snapshot["a/cep"]["kind"] == "compute"
        assert snapshot["a/mep"]["kind"] == "memory"
        assert snapshot["a/x0"]["kind"] == "transceiver"

    def test_duplicate_host_rejected(self):
        state = two_host_graph()
        with pytest.raises(GraphError):
            state.add_host("a", transceivers=1)

    def test_cable_requires_cableable_endpoints(self):
        state = two_host_graph()
        with pytest.raises(GraphError):
            state.add_cable(state.cep("a"), state.xcvr("b", 0))
        with pytest.raises(GraphError):
            state.add_cable("ghost/x0", state.xcvr("b", 0))

    def test_reservation_capacity(self):
        state = StateGraph()
        state.add_host("a", transceivers=1, channel_capacity=2)
        xcvr = state.xcvr("a", 0)
        state.reserve([xcvr])
        state.reserve([xcvr])
        with pytest.raises(GraphError):
            state.reserve([xcvr])
        state.release([xcvr])
        state.reserve([xcvr])

    def test_release_without_reserve_rejected(self):
        state = two_host_graph()
        with pytest.raises(GraphError):
            state.release([state.xcvr("a", 0)])

    def test_donor_accounting(self):
        state = two_host_graph(donor=1000)
        state.reserve_donor_memory("b", 800)
        assert state.donor_free("b") == 200
        with pytest.raises(GraphError):
            state.reserve_donor_memory("b", 300)
        state.release_donor_memory("b", 800)
        assert state.donor_free("b") == 1000

    def test_hosts_listing(self):
        state = two_host_graph()
        assert state.hosts() == ["a", "b"]

    def test_hosts_listing_follows_wiring(self):
        state = two_host_graph()
        listed = state.hosts()
        listed.append("ghost")
        state.add_host("0", transceivers=1)
        assert state.hosts() == ["0", "a", "b"]

    def test_only_wiring_moves_topology_version(self):
        state = two_host_graph()
        version = state.topology_version
        state.reserve([state.xcvr("a", 0)])
        state.reserve_donor_memory("b", 10)
        assert state.topology_version == version
        state.add_switch("sw", ports=2)
        state.add_cable(state.xcvr("a", 1), state.switch_port("sw", 0))
        assert state.topology_version == version + 2


class TestPathPlanner:
    def test_direct_path_found(self):
        state = two_host_graph()
        planner = PathPlanner(state)
        path = planner.plan("a", "b")
        assert path.compute_host == "a"
        assert path.channel_indices in ((0,), (1,))
        assert path.hop_count == 2  # two transceivers, no switch

    def test_bonded_paths_are_disjoint(self):
        state = two_host_graph()
        planner = PathPlanner(state)
        path = planner.plan("a", "b", channels=2)
        assert sorted(path.channel_indices) == [0, 1]
        assert len(set(path.reserved_nodes)) == len(path.reserved_nodes)

    def test_bonding_impossible_with_one_cable(self):
        state = StateGraph()
        state.add_host("a", transceivers=2)
        state.add_host("b", transceivers=2)
        state.add_cable(state.xcvr("a", 0), state.xcvr("b", 0))
        planner = PathPlanner(state)
        with pytest.raises(NoPathError):
            planner.plan("a", "b", channels=2)

    def test_exhausted_capacity_blocks_planning(self):
        state = StateGraph()
        state.add_host("a", transceivers=1, channel_capacity=1)
        state.add_host("b", transceivers=1, channel_capacity=1,
                       donor_capacity_bytes=1 << 30)
        state.add_cable(state.xcvr("a", 0), state.xcvr("b", 0))
        planner = PathPlanner(state)
        first = planner.plan("a", "b")
        with pytest.raises(NoPathError):
            planner.plan("a", "b")
        planner.release(first)
        planner.plan("a", "b")

    def test_path_through_switch(self):
        state = StateGraph()
        state.add_host("a", transceivers=1)
        state.add_host("b", transceivers=1, donor_capacity_bytes=1 << 30)
        state.add_switch("sw", ports=4)
        state.add_cable(state.xcvr("a", 0), state.switch_port("sw", 0))
        state.add_cable(state.xcvr("b", 0), state.switch_port("sw", 2))
        planner = PathPlanner(state)
        path = planner.plan("a", "b")
        assert path.hop_count == 4  # xcvr, port, port, xcvr
        assert any("sw/p" in node for node in path.reserved_nodes)

    def test_direct_path_preferred_over_switch(self):
        state = two_host_graph()
        state.add_switch("sw", ports=4)
        state.add_cable(state.xcvr("a", 1), state.switch_port("sw", 0))
        state.add_cable(state.xcvr("b", 1), state.switch_port("sw", 1))
        planner = PathPlanner(state)
        # Remove the direct cable on channel 1 so channel 0 is direct and
        # channel 1 goes through the switch; shortest wins.
        path = planner.plan("a", "b")
        assert path.hop_count == 2

    def test_same_host_rejected(self):
        planner = PathPlanner(two_host_graph())
        with pytest.raises(GraphError):
            planner.plan("a", "a")

    def test_unknown_host_rejected(self):
        planner = PathPlanner(two_host_graph())
        with pytest.raises(NoPathError):
            planner.plan("a", "ghost")

    def test_pick_donor_prefers_most_free(self):
        state = StateGraph()
        state.add_host("a", transceivers=2)
        state.add_host("b", transceivers=2, donor_capacity_bytes=100)
        state.add_host("c", transceivers=2, donor_capacity_bytes=500)
        state.add_cable(state.xcvr("a", 0), state.xcvr("b", 0))
        state.add_cable(state.xcvr("a", 1), state.xcvr("c", 0))
        planner = PathPlanner(state)
        assert planner.pick_donor("a", 50) == "c"
        assert planner.pick_donor("a", 50, exclude=("c",)) == "b"
        with pytest.raises(NoPathError):
            planner.pick_donor("a", 10_000)

    def test_pick_donor_skips_donor_without_free_path(self):
        state = StateGraph()
        state.add_host("a", transceivers=2, channel_capacity=1)
        state.add_host("b", transceivers=1, donor_capacity_bytes=100)
        state.add_host("c", transceivers=1, donor_capacity_bytes=500)
        state.add_cable(state.xcvr("a", 0), state.xcvr("b", 0))
        state.add_cable(state.xcvr("a", 1), state.xcvr("c", 0))
        planner = PathPlanner(state)
        held = planner.plan("a", "c")
        assert planner.pick_donor("a", 50) == "b"
        planner.release(held)
        assert planner.pick_donor("a", 50) == "c"

    def test_candidate_paths_are_fresh_lists_of_tuples(self):
        state, _hosts = packet_rack_graph()
        planner = PathPlanner(state)
        first = planner.candidate_paths("node0", "node1")
        assert all(isinstance(path, tuple) for path in first)
        expected = list(first)
        first.clear()
        assert planner.candidate_paths("node0", "node1") == expected

    def test_new_cable_invalidates_cached_paths(self):
        state = StateGraph()
        for host in ("a", "b"):
            state.add_host(host, transceivers=3,
                           donor_capacity_bytes=1 << 30)
        state.add_switch("sw", ports=4)
        for index, host in enumerate(("a", "b")):
            for channel in range(2):
                state.add_cable(state.xcvr(host, channel),
                                state.switch_port("sw", index * 2 + channel))
        planner = PathPlanner(state)
        before = planner.candidate_paths("a", "b")
        assert min(len(path) for path in before) == 6  # via the switch
        state.add_cable(state.xcvr("a", 2), state.xcvr("b", 2))
        after = planner.candidate_paths("a", "b")
        assert after[0] == ("a/cep", "a/x2", "b/x2", "b/mep")
        assert after[1:] == before
        assert planner.plan("a", "b").hop_count == 2

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["plan", "release", "candidates"]),
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(1, 2),
        ),
        max_size=14,
    ))
    def test_cache_matches_uncached_enumeration(self, steps):
        state, hosts = packet_rack_graph()
        planner = PathPlanner(state)
        held = []
        for op, a, b, channels in steps:
            compute, memory = hosts[a], hosts[(a + 1 + b % 3) % 4]
            expected = reference_candidate_paths(state, compute, memory)
            if op == "release":
                if held:
                    planner.release(held.pop(b % len(held)))
            elif op == "candidates":
                assert planner.candidate_paths(compute, memory) == expected
            else:
                node_paths = reference_node_paths(expected, channels)
                if node_paths is None:
                    with pytest.raises(NoPathError):
                        planner.plan(compute, memory, channels=channels)
                    continue
                planned = planner.plan(compute, memory, channels=channels)
                assert planned.node_paths == node_paths
                assert planned.reserved_nodes == tuple(
                    node for path in node_paths for node in path[1:-1]
                )
                assert planned.hop_count == max(
                    len(path) - 2 for path in node_paths
                )
                held.append(planned)

    @settings(max_examples=40, deadline=None)
    @given(wirings())
    def test_candidates_match_networkx_on_random_wirings(self, wiring):
        state, hosts = wiring
        planner = PathPlanner(state)
        for compute in hosts:
            for memory in hosts:
                if compute != memory:
                    assert planner.candidate_paths(compute, memory) == (
                        reference_candidate_paths(state, compute, memory)
                    )


class TestAgentMechanics:
    def make_agent(self):
        sim = Simulator()
        kernel = LinuxKernel("host", section_bytes=1 * MIB)
        kernel.add_boot_memory(0, AddressRange(0, 64 * MIB), cpu_count=8)
        device = ThymesisFlowDevice(sim, section_bytes=1 * MIB)
        from repro.opencapi import SystemBus

        bus = SystemBus(sim)
        pasids = PasidRegistry()
        device.attach_compute(bus, AddressRange(0x1_0000_0000, 16 * MIB))
        device.enable_memory_role(bus, pasids)
        return ThymesisFlowAgent("host", kernel, device, pasids)

    def plan(self, sections=(0, 1), network_id=3):
        return AttachPlan(
            section_indices=list(sections),
            donor_effective_base=0x100000,
            wire_network_id=network_id,
            channels=[0],
            numa_node_id=50,
            numa_distance=112,
            remote_latency_s=950e-9,
        )

    def test_steal_rounds_to_sections(self):
        agent = self.make_agent()
        grant = agent.steal_memory(100)  # rounds up to 1 MiB
        assert grant.size == 1 * MIB
        assert agent.kernel.pinned_ranges[0].size == 1 * MIB

    def test_steal_registers_pasid_window(self):
        agent = self.make_agent()
        grant = agent.steal_memory(1 * MIB)
        agent.pasids.check_access(grant.pasid, grant.effective_base, 128)

    def test_release_grant_cleans_up(self):
        agent = self.make_agent()
        grant = agent.steal_memory(1 * MIB)
        agent.release_grant(grant)
        assert agent.kernel.pinned_ranges == []
        with pytest.raises(Exception):
            agent.release_grant(grant)

    def test_attach_requires_channel(self):
        agent = self.make_agent()
        # No channels connected: programming the route must fail and the
        # datapath stays unconfigured.
        with pytest.raises(Exception):
            agent.attach_remote_memory(self.plan())

    def test_attach_programs_rmmu_and_kernel(self):
        agent = self.make_agent()
        self._connect_channel(agent)
        attached = agent.attach_remote_memory(self.plan())
        assert attached == 2 * MIB
        assert agent.device.rmmu.installed_sections() == [0, 1]
        assert 50 in agent.kernel.topology
        assert agent.kernel.topology.node(50).memory_bytes == 2 * MIB

    def test_detach_reverses_attach(self):
        agent = self.make_agent()
        self._connect_channel(agent)
        plan = self.plan()
        agent.attach_remote_memory(plan)
        removed = agent.detach_remote_memory(plan)
        assert removed == 2 * MIB
        assert agent.device.rmmu.installed_sections() == []
        assert agent.kernel.topology.node(50).memory_bytes == 0

    def test_section_size_mismatch_detected(self):
        sim = Simulator()
        kernel = LinuxKernel("host", section_bytes=2 * MIB)
        kernel.add_boot_memory(0, AddressRange(0, 64 * MIB), cpu_count=8)
        device = ThymesisFlowDevice(sim, section_bytes=1 * MIB)
        from repro.opencapi import SystemBus

        bus = SystemBus(sim)
        device.attach_compute(bus, AddressRange(0x1_0000_0000, 16 * MIB))
        device.enable_memory_role(bus, PasidRegistry())
        agent = ThymesisFlowAgent("host", kernel, device, PasidRegistry())
        self._connect_channel(agent)
        with pytest.raises(AgentError, match="disagree"):
            agent.attach_remote_memory(self.plan())

    @staticmethod
    def _connect_channel(agent):
        from repro.net import DuplexChannel

        channel = DuplexChannel(agent.device.sim)
        agent.device.connect_channel(channel.endpoint_view("a"))
