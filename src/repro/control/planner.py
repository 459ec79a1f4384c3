"""Path planning over the control-plane state graph.

"For each disaggregated memory allocation request, the control plane
traverses the graph looking for the best available path connecting the
compute and memory stealing endpoints involved. Once a suitable path is
found and its resources are reserved, the control plane generates the
suitable configurations and pushes them to the appropriate agents."
(§IV-C)

Paths are ranked by hop count (fewer switch crossings = lower RTT) and
then by how loaded their transceivers are, which spreads flows across
channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .graph import GraphError, NodeKind, StateGraph

__all__ = ["PathPlanner", "PlannedPath", "NoPathError"]

_ENDPOINT_KINDS = (NodeKind.COMPUTE_ENDPOINT, NodeKind.MEMORY_ENDPOINT)

#: Longest path considered, in edges.
_MAX_HOPS = 6


def _endpoint_free_paths(
    state: StateGraph, source: str, target: str
) -> Tuple[Tuple[str, ...], ...]:
    """Simple source→target paths of at most ``_MAX_HOPS`` edges that
    do not tunnel through any other endpoint.

    A depth-first walk with neighbors in adjacency order, so the paths
    come out in the order networkx's ``all_simple_paths`` would yield
    them; a branch is cut where it enters another endpoint rather than
    enumerated and filtered afterwards.
    """
    nodes, adjacency = state.nodes, state.adj
    paths = []
    path = [source]

    def extend(node: str) -> None:
        for neighbor in adjacency[node]:
            if neighbor == target:
                paths.append((*path, target))
            elif (
                len(path) < _MAX_HOPS
                and neighbor not in path
                and nodes[neighbor]["kind"] not in _ENDPOINT_KINDS
            ):
                path.append(neighbor)
                extend(neighbor)
                path.pop()

    extend(source)
    return tuple(paths)


class NoPathError(GraphError):
    """No usable path between the requested endpoints."""

    code = "graph/no-path"


@dataclass(frozen=True)
class PlannedPath:
    """A reserved route between a compute and a memory endpoint.

    ``channel_indices`` are the compute-side transceiver (channel)
    numbers the flow will use — what the agent programs into the route
    table. ``reserved_nodes`` is everything the planner reserved, for
    symmetric release.
    """

    compute_host: str
    memory_host: str
    channel_indices: Tuple[int, ...]
    reserved_nodes: Tuple[str, ...]
    hop_count: int
    #: Full cep→…→mep node sequences, one per planned channel. Used by
    #: the orchestrator to program intermediate switching layers.
    node_paths: Tuple[Tuple[str, ...], ...] = ()

    @property
    def bonded(self) -> bool:
        return len(self.channel_indices) > 1


class PathPlanner:
    """Finds and reserves channel paths between endpoint pairs."""

    def __init__(self, state: StateGraph):
        self.state = state
        #: (cep, mep) -> endpoint-free simple paths in DFS order, valid
        #: for ``_wired_version`` of the state graph's wiring.
        self._wired: Dict[Tuple[str, str], Tuple[Tuple[str, ...], ...]] = {}
        self._wired_version = -1

    # -- path discovery ---------------------------------------------------------------
    def _wired_paths(
        self, compute_host: str, memory_host: str
    ) -> Tuple[Tuple[str, ...], ...]:
        """Every simple cep→mep path the wiring allows, capacity aside.

        The wiring only changes when the state graph's
        ``topology_version`` moves, so the enumeration is cached per
        endpoint pair and dropped on the next version.
        """
        nodes = self.state.nodes
        source = self.state.cep(compute_host)
        target = self.state.mep(memory_host)
        if source not in nodes or target not in nodes:
            raise NoPathError(
                f"unknown endpoint(s): {compute_host!r} / {memory_host!r}"
            )
        if self._wired_version != self.state.topology_version:
            self._wired.clear()
            self._wired_version = self.state.topology_version
        key = (source, target)
        paths = self._wired.get(key)
        if paths is None:
            paths = self._wired[key] = _endpoint_free_paths(
                self.state, source, target
            )
        return paths

    def _spare(self, path: Tuple[str, ...]) -> int:
        """Free capacity of the path's most loaded node (0 = unusable)."""
        return min(map(self.state.free_capacity, path[1:-1]))

    def candidate_paths(
        self, compute_host: str, memory_host: str
    ) -> List[Tuple[str, ...]]:
        """All simple cep→mep paths with free capacity, best first."""
        ranked = []
        for path in self._wired_paths(compute_host, memory_host):
            spare = self._spare(path)
            if spare > 0:
                ranked.append((len(path), -spare, path))
        # Stable on the rank alone: ties keep depth-first order.
        ranked.sort(key=itemgetter(0, 1))
        return [path for _hops, _spare, path in ranked]

    # -- reservation -------------------------------------------------------------------
    def plan(
        self,
        compute_host: str,
        memory_host: str,
        channels: int = 1,
    ) -> PlannedPath:
        """Reserve ``channels`` disjoint paths (2 = bonding).

        Raises :class:`NoPathError` when fewer than ``channels`` disjoint
        usable paths exist.
        """
        if channels < 1:
            raise GraphError(f"channels must be >= 1: {channels}")
        if compute_host == memory_host:
            raise GraphError("compute and memory host must differ")
        chosen: List[Tuple[str, ...]] = []
        used_transceivers: set = set()
        for path in self.candidate_paths(compute_host, memory_host):
            middle = set(path[1:-1])
            if middle & used_transceivers:
                continue  # bonded channels must be physically disjoint
            chosen.append(path)
            used_transceivers |= middle
            if len(chosen) == channels:
                break
        if len(chosen) < channels:
            raise NoPathError(
                f"only {len(chosen)} disjoint path(s) from "
                f"{compute_host} to {memory_host}, need {channels}"
            )
        reserved: List[str] = []
        channel_indices: List[int] = []
        for path in chosen:
            middle = path[1:-1]
            self.state.reserve(middle)
            reserved.extend(middle)
            first_xcvr = middle[0]
            channel_indices.append(
                self.state.node_attr(first_xcvr, "channel")
            )
        return PlannedPath(
            compute_host=compute_host,
            memory_host=memory_host,
            channel_indices=tuple(channel_indices),
            reserved_nodes=tuple(reserved),
            hop_count=max(len(path) - 2 for path in chosen),
            node_paths=tuple(chosen),
        )

    def release(self, planned: PlannedPath) -> None:
        self.state.release(planned.reserved_nodes)

    # -- capacity headroom --------------------------------------------------------------
    def capacity_headroom(self) -> Tuple[int, int]:
        """Cluster-wide donor capacity as ``(free_bytes, total_bytes)``.

        The admission side of QoS: best-effort attaches are denied when
        granting them would leave less free donor capacity than the
        reserve fraction kept for guaranteed tenants (see
        :meth:`~repro.control.orchestrator.ControlPlane.attach`).
        """
        free = 0
        total = 0
        for host in self.state.hosts():
            free += self.state.donor_free(host)
            total += self.state.node_attr(
                self.state.mep(host), "donor_capacity"
            )
        return free, total

    # -- donor selection ----------------------------------------------------------------
    def pick_donor(
        self, compute_host: str, size: int, exclude: Tuple[str, ...] = ()
    ) -> str:
        """Choose the donor with the most free memory that is reachable."""
        best: Optional[Tuple[int, str]] = None
        for host in self.state.hosts():
            if host == compute_host or host in exclude:
                continue
            free = self.state.donor_free(host)
            if free < size:
                continue
            if not any(
                self._spare(path) > 0
                for path in self._wired_paths(compute_host, host)
            ):
                continue  # unreachable: no path with free capacity
            if best is None or free > best[0]:
                best = (free, host)
        if best is None:
            raise NoPathError(
                f"no reachable donor with {size} bytes free for "
                f"{compute_host}"
            )
        return best[1]
