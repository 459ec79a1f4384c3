"""Shared-resource primitives built on the simulation kernel.

These are the queueing building blocks used throughout the stack:

* :class:`Resource` — a counted semaphore (e.g. DRAM banks, thread-pool
  worker slots).
* :class:`Store` — a FIFO buffer of items with optional capacity, the
  canonical model for ingress/egress queues between pipeline stages.
* :class:`CreditPool` — explicit credit accounting used by the LLC
  backpressure scheme (credits granted by the Rx side, consumed by Tx).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from .engine import Signal, SimulationError, Simulator

__all__ = ["Resource", "Store", "CreditPool"]


class Resource:
    """Counted semaphore with FIFO granting.

    Usage inside a process::

        yield resource.acquire()
        try:
            ... hold the resource ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[tuple] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self, count: int = 1) -> Signal:
        """Waitable that fires when ``count`` slots are granted at once.

        Multi-slot acquires (burst DRAM accesses holding one bank per
        cacheline) queue FIFO behind earlier waiters like everything
        else, so a wide request cannot starve behind a stream of narrow
        ones nor vice versa.
        """
        grant = Signal(name=f"{self.name}.grant", oneshot=True)
        if self.try_acquire(count):
            grant.fire()
        else:
            self._waiters.append((grant, count))
        return grant

    def try_acquire(self, count: int = 1) -> bool:
        """Take ``count`` slots now if :meth:`acquire` would grant them
        at once; False (and nothing taken) otherwise."""
        if count < 1 or count > self.capacity:
            raise SimulationError(
                f"{self.name}: cannot acquire {count} of {self.capacity}"
            )
        if not self._waiters and self.in_use + count <= self.capacity:
            self.in_use += count
            return True
        return False

    def release(self, count: int = 1) -> None:
        if count < 1 or self.in_use < count:
            raise SimulationError(f"{self.name}: release without acquire")
        self.in_use -= count
        while self._waiters:
            grant, needed = self._waiters[0]
            if self.in_use + needed > self.capacity:
                break
            self._waiters.popleft()
            self.in_use += needed
            grant.fire()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Resource({self.name!r}, {self.in_use}/{self.capacity}, "
            f"queued={len(self._waiters)})"
        )


class Store:
    """FIFO item buffer with optional bounded capacity.

    ``put`` blocks (as a waitable) while the store is full; ``get`` blocks
    while it is empty. FIFO order is preserved for both items and waiters,
    which matters for the in-order LLC frame pipeline.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        name: str = "store",
    ):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()
        self._putters: Deque[Signal] = deque()
        self._pending_puts: Deque[Any] = deque()
        self.total_put = 0
        self.total_got = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Signal:
        """Waitable put; fires once the item has been accepted."""
        done = Signal(name=f"{self.name}.put", oneshot=True)
        if not self.is_full and not self._pending_puts:
            self._accept(item)
            done.fire()
        else:
            self._pending_puts.append(item)
            self._putters.append(done)
        return done

    def try_put(self, item: Any) -> bool:
        """Non-blocking put. Returns False when the store is full."""
        if self.is_full or self._pending_puts:
            return False
        self._accept(item)
        return True

    def get(self) -> Signal:
        """Waitable get; fires with the item as the yield value."""
        got = Signal(name=f"{self.name}.get", oneshot=True)
        if self._items:
            item = self._items.popleft()
            self.total_got += 1
            self._admit_pending()
            got.fire(item)
        else:
            self._getters.append(got)
        return got

    def try_get(self) -> Any:
        """Non-blocking get. Returns None when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self.total_got += 1
        self._admit_pending()
        return item

    # -- internals -----------------------------------------------------------
    def _accept(self, item: Any) -> None:
        self.total_put += 1
        if self._getters:
            getter = self._getters.popleft()
            self.total_got += 1
            getter.fire(item)
        else:
            self._items.append(item)

    def _admit_pending(self) -> None:
        while self._pending_puts and not self.is_full:
            item = self._pending_puts.popleft()
            done = self._putters.popleft()
            self._accept(item)
            done.fire()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity is None else self.capacity
        return f"Store({self.name!r}, {len(self._items)}/{cap})"


class CreditPool:
    """Explicit credit accounting for Tx/Rx backpressure.

    The LLC link layer (paper §IV-A4) protects the receive side by having
    Rx grant credits — one per empty ingress-queue slot — piggy-backed on
    response headers. Tx consumes one credit per transmitted unit and
    stalls at zero. This class models the Tx-side view.
    """

    def __init__(self, sim: Simulator, initial: int, name: str = "credits"):
        if initial < 0:
            raise SimulationError(f"initial credits must be >= 0: {initial}")
        self.sim = sim
        self.name = name
        self.credits = initial
        self.initial = initial
        self._waiters: Deque[Signal] = deque()
        self.total_consumed = 0
        self.total_granted = 0
        self.stall_count = 0

    def consume(self, amount: int = 1) -> Signal:
        """Waitable consume of ``amount`` credits (fires when satisfied)."""
        if amount < 1:
            raise SimulationError(f"consume amount must be >= 1: {amount}")
        done = Signal(name=f"{self.name}.consume", oneshot=True)
        if not self._waiters and self.credits >= amount:
            self.credits -= amount
            self.total_consumed += amount
            done.fire()
        else:
            self.stall_count += 1
            self._waiters.append((done, amount))  # type: ignore[arg-type]
        return done

    def try_consume(self, amount: int = 1) -> bool:
        """Non-blocking consume; False when not enough credits."""
        if self._waiters or self.credits < amount:
            return False
        self.credits -= amount
        self.total_consumed += amount
        return True

    def grant(self, amount: int = 1) -> None:
        """Rx returns ``amount`` credits (piggy-backed grant)."""
        if amount < 0:
            raise SimulationError(f"grant amount must be >= 0: {amount}")
        self.credits += amount
        self.total_granted += amount
        while self._waiters:
            done, needed = self._waiters[0]  # type: ignore[misc]
            if self.credits < needed:
                break
            self._waiters.popleft()
            self.credits -= needed
            self.total_consumed += needed
            done.fire()

    def reset(self, amount: int) -> None:
        """Restore the pool to ``amount`` credits (link bring-up).

        Only legal while no consumer is blocked — resetting with waiters
        would strand them.
        """
        if self._waiters:
            raise SimulationError(
                f"{self.name}: reset with {len(self._waiters)} waiters"
            )
        self.credits = amount

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CreditPool({self.name!r}, {self.credits} credits)"
