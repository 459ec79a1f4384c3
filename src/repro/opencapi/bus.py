"""The SoC main bus: address-routed, timed load/store dispatch.

"From the System-on-Chip main bus standpoint, every peripheral is
memory-mapped … and communicates with specific load and store
transactions" (§I). The bus maps real-address windows to targets — DRAM
controllers, or an OpenCAPI-attached device in M1 mode (which then
behaves exactly like a memory controller for its window).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Protocol, Tuple

from ..mem.address import AddressError, AddressRange, CACHELINE_BYTES
from ..mem.dram import DramDevice
from ..obs import trace as _trace
from ..sim.engine import Process, Simulator
from .transactions import MemTransaction, ResponseCode, TLCommand

__all__ = ["BusTarget", "DramBusTarget", "SystemBus", "BusError"]


class BusError(RuntimeError):
    """Unroutable address or failed bus transaction."""


class BusTarget(Protocol):
    """Anything the bus can dispatch a transaction to.

    ``serve`` receives a request transaction whose address is already in
    the *target's* window. It is a generator that runs inside the
    issuing process (the bus delegates to it with ``yield from``) and
    returns the response transaction.
    """

    def serve(self, txn: MemTransaction) -> Generator:  # pragma: no cover
        ...


class DramBusTarget:
    """Adapter presenting a :class:`DramDevice` as a bus target."""

    def __init__(self, dram: DramDevice):
        self.dram = dram

    def serve(self, txn: MemTransaction) -> Generator:
        dram = self.dram
        if _trace.ENABLED:
            _trace.txn_mark(
                dram.sim.now, txn.base_txn_id, "dram.service", dram.name
            )
        if txn.command == TLCommand.RD_MEM:
            if txn.burst > 1:
                data = yield from dram.read_burst(txn.address, txn.burst)
            else:
                data = yield from dram.read(txn.address, txn.size)
            response = txn.make_response(data=data)
        elif txn.command == TLCommand.WRITE_MEM:
            if txn.burst > 1:
                yield from dram.write_burst(txn.address, txn.data)
            else:
                yield from dram.write(txn.address, txn.data)
            response = txn.make_response()
        else:
            response = txn.make_response(code=ResponseCode.ADDRESS_ERROR)
        if _trace.ENABLED:
            _trace.txn_mark(
                dram.sim.now, txn.base_txn_id, "dram.done", dram.name
            )
        return response


class SystemBus:
    """Routes real-address transactions to the mapped target.

    Windows must not overlap. Lookup is a linear scan over a sorted list
    — node bus maps are tiny (DRAM per socket + a handful of devices).
    """

    def __init__(self, sim: Simulator, name: str = "bus"):
        self.sim = sim
        self.name = name
        self._map: List[Tuple[AddressRange, BusTarget]] = []
        self.loads = 0
        self.stores = 0

    # -- construction -----------------------------------------------------------
    def attach(self, window: AddressRange, target: BusTarget) -> None:
        for existing, _target in self._map:
            if existing.overlaps(window):
                raise BusError(
                    f"{self.name}: window {window!r} overlaps {existing!r}"
                )
        self._map.append((window, target))
        self._map.sort(key=lambda pair: pair[0].start)

    def detach(self, window: AddressRange) -> None:
        for index, (existing, _target) in enumerate(self._map):
            if existing == window:
                del self._map[index]
                return
        raise BusError(f"{self.name}: window {window!r} not attached")

    def attach_dram(self, dram: DramDevice) -> None:
        self.attach(dram.window, DramBusTarget(dram))

    # -- routing ------------------------------------------------------------------
    def target_for(self, address: int, size: int) -> Tuple[AddressRange, BusTarget]:
        if address < 0 or size <= 0:
            AddressRange(address, size)  # raises the AddressError
        end = address + size
        for window, target in self._map:
            start = window.start
            window_end = start + window.size
            if start <= address and end <= window_end:
                return window, target
            if start < end and address < window_end:
                raise BusError(
                    f"{self.name}: access [{address:#x}, "
                    f"{address + size:#x}) straddles window {window!r}"
                )
        raise BusError(
            f"{self.name}: no target mapped at {address:#x} (+{size})"
        )

    def windows(self) -> List[AddressRange]:
        return [window for window, _target in self._map]

    # -- timed operations ------------------------------------------------------------
    def issue(self, txn: MemTransaction) -> Generator:
        """Dispatch a prepared transaction; delegate to it with
        ``response = yield from bus.issue(txn)``."""
        _window, target = self.target_for(txn.address, txn.size)
        txn.issued_at = self.sim.now
        if txn.command == TLCommand.RD_MEM:
            self.loads += txn.burst
            if _trace.ENABLED:
                _trace.txn_begin(
                    self.sim.now, txn.base_txn_id, "load", txn.size, self.name
                )
        elif txn.command == TLCommand.WRITE_MEM:
            self.stores += txn.burst
            if _trace.ENABLED:
                _trace.txn_begin(
                    self.sim.now, txn.base_txn_id, "store", txn.size, self.name
                )
        return target.serve(txn)

    def load(self, address: int, size: int = CACHELINE_BYTES) -> Process:
        """Timed load; the process result is the data bytes."""
        return self.sim.process(
            self._complete(MemTransaction.read, address, size, "load"),
            name=f"{self.name}.load",
        )

    def store(self, address: int, data: bytes) -> Process:
        """Timed store; the process result is the response code."""
        return self.sim.process(
            self._complete(MemTransaction.write, address, data, "store"),
            name=f"{self.name}.store",
        )

    def load_burst(self, address: int, lines: int) -> Process:
        """Timed batched load of ``lines`` contiguous cachelines.

        The whole run must fall inside one bus window (callers batch
        within a page, which never straddles windows).
        """
        return self.sim.process(
            self._complete(
                MemTransaction.read_burst, address, lines, "burst RD_MEM"
            ),
            name=f"{self.name}.load",
        )

    def store_burst(self, address: int, data: bytes) -> Process:
        """Timed batched store of contiguous cachelines."""
        return self.sim.process(
            self._complete(
                MemTransaction.write_burst, address, data, "burst WRITE_MEM"
            ),
            name=f"{self.name}.store",
        )

    def register_metrics(self, registry, **labels) -> None:
        """Expose the per-node load/store mix through a pull collector."""

        def collect(reg):
            reg.gauge("bus.loads", bus=self.name, **labels).set(self.loads)
            reg.gauge("bus.stores", bus=self.name, **labels).set(self.stores)

        registry.add_collector(collect)

    def _complete(
        self,
        make: Callable[[int, Any], MemTransaction],
        address: int,
        operand: Any,
        what: str,
    ) -> Generator:
        """One bus operation: build, issue, await and check the response.

        The transaction is built when the process first runs, so ids are
        drawn in the order operations start.
        """
        txn = make(address, operand)
        response = yield from self.issue(txn)
        if _trace.ENABLED:
            _trace.txn_end(self.sim.now, txn.base_txn_id, self.name)
        if response.response_code is not ResponseCode.OK:
            raise BusError(
                f"{self.name}: {what} {txn.address:#x} failed: "
                f"{response.response_code.name}"
            )
        if txn.command == TLCommand.RD_MEM:
            return response.data
        return response.response_code

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SystemBus({self.name!r}, windows={len(self._map)})"
