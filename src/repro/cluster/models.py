"""Fixed vs. disaggregated datacentre models — paper §II / Fig. 1.

* :class:`FixedDatacentre` — "12555 servers, matching the configuration
  of the Google trace": each server bundles 1.0 CPU + 1.0 memory; a
  task must fit both resources on one server.
* :class:`DisaggregatedDatacentre` — "12555 compute and 12555 memory
  modules, with the total available memory spread evenly among the
  latter. … each module connects to the data-centre interconnect via 16
  links … a fully connected topology enables any permutation of
  point-to-point connections". A task takes CPU from one compute module
  and memory from one or more memory modules, consuming one link per
  compute↔memory pairing.

Both use an online best-fit allocator without overcommitment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .trace import TaskRequest

__all__ = [
    "Placement",
    "FixedDatacentre",
    "DisaggregatedDatacentre",
    "AllocationFailure",
    "best_fit",
]


class AllocationFailure(RuntimeError):
    """The model could not place a task (capacity or connectivity)."""


#: The four Fig. 1 percentages: stranded CPU, stranded memory, CPU units
#: off and memory units off.
Utilization = Tuple[float, float, float, float]


def best_fit(feasible: np.ndarray, slack: np.ndarray) -> Optional[int]:
    """The feasible index with the least (finite) slack, lowest on ties,
    or None when no index is feasible."""
    masked = np.where(feasible, slack, np.inf)
    if not masked.size:
        return None
    index = masked.argmin()
    if masked[index] == np.inf:
        return None
    return int(index)


@dataclass
class Placement:
    """Where a task landed; the handle used to free it later."""

    task: TaskRequest
    compute_unit: int
    memory_shares: List[Tuple[int, float]]  # (unit index, amount)


class FixedDatacentre:
    """Conventional servers: CPU and memory welded together."""

    def __init__(self, servers: int = 12_555):
        if servers < 1:
            raise ValueError(f"servers must be >= 1: {servers}")
        self.servers = servers
        self.cpu_free = np.ones(servers)
        self.mem_free = np.ones(servers)
        self.tasks_on = np.zeros(servers, dtype=np.int64)
        self._servers_off = servers  # kept equal to (tasks_on == 0).sum()

    # -- best-fit placement -----------------------------------------------------------
    def allocate(self, task: TaskRequest) -> Placement:
        """Best fit: the feasible server with least total slack left."""
        feasible = (self.cpu_free >= task.cpu) & (self.mem_free >= task.memory)
        slack = (self.cpu_free - task.cpu) + (self.mem_free - task.memory)
        best_index = best_fit(feasible, slack)
        if best_index is None:
            raise AllocationFailure(
                f"task {task.task_id}: no server fits "
                f"(cpu={task.cpu:.3f}, mem={task.memory:.3f})"
            )
        self.cpu_free[best_index] -= task.cpu
        self.mem_free[best_index] -= task.memory
        self.tasks_on[best_index] += 1
        if self.tasks_on[best_index] == 1:
            self._servers_off -= 1
        return Placement(task, best_index, [(best_index, task.memory)])

    def release(self, placement: Placement) -> None:
        index = placement.compute_unit
        self.cpu_free[index] += placement.task.cpu
        self.mem_free[index] += placement.task.memory
        self.tasks_on[index] -= 1
        if self.tasks_on[index] == 0:
            self._servers_off += 1

    # -- metrics inputs -----------------------------------------------------------------
    def servers_off(self) -> int:
        """Completely unused servers (could be switched off)."""
        return self._servers_off

    def stranded_cpu(self) -> float:
        """CPU capacity locked inside powered-on servers but unused."""
        on = self.tasks_on > 0
        return float(self.cpu_free[on].sum())

    def stranded_memory(self) -> float:
        on = self.tasks_on > 0
        return float(self.mem_free[on].sum())

    def utilization(self) -> Utilization:
        """Fig. 1's four percentages; a server is both CPU and memory."""
        servers = self.servers
        off = self._servers_off / servers * 100.0
        return (self.stranded_cpu() / servers * 100.0,
                self.stranded_memory() / servers * 100.0, off, off)


class DisaggregatedDatacentre:
    """Compute and memory modules composed over a full-mesh fabric."""

    def __init__(
        self,
        compute_modules: int = 12_555,
        memory_modules: int = 12_555,
        links_per_module: int = 16,
    ):
        self.compute_modules = compute_modules
        self.memory_modules = memory_modules
        self.links_per_module = links_per_module
        self.cpu_free = np.ones(compute_modules)
        self.mem_free = np.ones(memory_modules)
        self.compute_tasks = np.zeros(compute_modules, dtype=np.int64)
        self.memory_users = np.zeros(memory_modules, dtype=np.int64)
        # Kept equal to (compute_tasks == 0).sum() and
        # (memory_users == 0).sum().
        self._compute_off = compute_modules
        self._memory_off = memory_modules
        self.compute_links_free = np.full(compute_modules, links_per_module,
                                          dtype=np.int64)
        self.memory_links_free = np.full(memory_modules, links_per_module,
                                         dtype=np.int64)

    # -- placement ---------------------------------------------------------------------
    def allocate(self, task: TaskRequest) -> Placement:
        compute = self._best_fit_compute(task)
        shares = self._place_memory(task, compute)
        self.cpu_free[compute] -= task.cpu
        self.compute_tasks[compute] += 1
        if self.compute_tasks[compute] == 1:
            self._compute_off -= 1
        for unit, amount in shares:
            self.mem_free[unit] -= amount
            self.memory_users[unit] += 1
            if self.memory_users[unit] == 1:
                self._memory_off -= 1
            self.memory_links_free[unit] -= 1
            self.compute_links_free[compute] -= 1
        return Placement(task, compute, shares)

    def release(self, placement: Placement) -> None:
        compute = placement.compute_unit
        self.cpu_free[compute] += placement.task.cpu
        self.compute_tasks[compute] -= 1
        if self.compute_tasks[compute] == 0:
            self._compute_off += 1
        for unit, amount in placement.memory_shares:
            self.mem_free[unit] += amount
            self.memory_users[unit] -= 1
            if self.memory_users[unit] == 0:
                self._memory_off += 1
            self.memory_links_free[unit] += 1
            self.compute_links_free[compute] += 1

    def _best_fit_compute(self, task: TaskRequest) -> int:
        feasible = (self.cpu_free >= task.cpu) & (self.compute_links_free >= 1)
        compute = best_fit(feasible, self.cpu_free - task.cpu)
        if compute is None:
            raise AllocationFailure(
                f"task {task.task_id}: no compute module fits "
                f"cpu={task.cpu:.3f}"
            )
        return compute

    def _place_memory(
        self, task: TaskRequest, compute: int
    ) -> List[Tuple[int, float]]:
        """Best-fit on one module; split across modules when needed."""
        # Single-module best fit first (uses one link).
        feasible = (self.mem_free >= task.memory) & (self.memory_links_free >= 1)
        unit = best_fit(feasible, self.mem_free - task.memory)
        if unit is not None:
            return [(unit, task.memory)]
        # Split: largest-remaining-first until satisfied, bounded by the
        # compute module's free links.
        remaining = task.memory
        shares: List[Tuple[int, float]] = []
        usable = (self.memory_links_free >= 1) & (self.mem_free > 0)
        order = np.argsort(-self.mem_free)
        links_budget = int(self.compute_links_free[compute])
        for index in order:
            if remaining <= 1e-12 or len(shares) >= links_budget:
                break
            if not usable[index]:
                continue
            amount = float(min(self.mem_free[index], remaining))
            shares.append((int(index), amount))
            remaining -= amount
        if remaining > 1e-12:
            raise AllocationFailure(
                f"task {task.task_id}: cannot assemble "
                f"{task.memory:.3f} memory across modules"
            )
        return shares

    # -- metrics inputs -----------------------------------------------------------------
    def stranded_cpu(self) -> float:
        on = self.compute_tasks > 0
        return float(self.cpu_free[on].sum())

    def stranded_memory(self) -> float:
        on = self.memory_users > 0
        return float(self.mem_free[on].sum())

    def compute_off(self) -> int:
        return self._compute_off

    def memory_off(self) -> int:
        return self._memory_off

    def utilization(self) -> Utilization:
        """Fig. 1's four percentages over the compute and memory pools."""
        compute, memory = self.compute_modules, self.memory_modules
        return (self.stranded_cpu() / compute * 100.0,
                self.stranded_memory() / memory * 100.0,
                self._compute_off / compute * 100.0,
                self._memory_off / memory * 100.0)
