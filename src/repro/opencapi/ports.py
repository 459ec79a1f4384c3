"""OpenCAPI attachment ports: M1 (memory-controller) and C1 (accelerator).

* **M1 mode** — the off-chip device *receives* cacheline traffic from the
  SoC processors: firmware maps a real-address window to the port, and
  every load/store the CPU issues inside that window is handed to the
  attached device. The ThymesisFlow **compute** endpoint uses this mode.
* **C1 mode** — the device *masters* cache-coherent transactions into the
  effective address space of an associated process (identified by
  PASID), with no host-CPU or DMA-engine involvement. The
  **memory-stealing** endpoint uses this mode (paper §IV-A).

Port latencies model the OpenCAPI FPGA-stack crossing: the prototype's
950 ns RTT includes "four crossings of the FPGA stack and six serDES
crossings" (§V); the serdes crossings live in :mod:`repro.net`, and the
stack crossings are accounted here.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..mem.address import AddressRange
from ..sim.engine import Simulator
from .bus import BusError, BusTarget, SystemBus
from .pasid import PasidRegistry
from .transactions import MemTransaction, ResponseCode, TLCommand

__all__ = ["OpenCapiM1Port", "OpenCapiC1Port"]

#: One traversal of the OpenCAPI FPGA stack (TLx/DLx pipeline). The RTT
#: budget of §V counts four of these: compute Tx, memory Rx, memory Tx,
#: compute Rx.
FPGA_STACK_CROSSING_S = 150e-9

#: One serdes (PHY) crossing on the host↔FPGA OpenCAPI link. The RTT
#: budget counts "2x at compute endpoint side … and two at the memory
#: stealing endpoint side" — one per direction at each host link.
HOST_LINK_SERDES_S = 55e-9


class OpenCapiM1Port:
    """Host-side M1 port: presents an attached device as bus memory.

    The port is itself a :class:`BusTarget`; firmware attaches it to the
    system bus over the window assigned to the device. Each transaction
    pays the host-link crossing cost before reaching the device logic.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "m1",
        crossing_latency_s: float = HOST_LINK_SERDES_S,
    ):
        self.sim = sim
        self.name = name
        self.crossing_latency_s = crossing_latency_s
        self._device: Optional[BusTarget] = None
        self.window: Optional[AddressRange] = None
        self.transactions = 0

    def connect_device(self, device: BusTarget) -> None:
        self._device = device

    def attach_to_bus(self, bus: SystemBus, window: AddressRange) -> None:
        """Firmware assigns a real-address window to this port."""
        if self._device is None:
            raise BusError(f"{self.name}: no device connected")
        self.window = window
        bus.attach(window, self)

    # -- BusTarget protocol -------------------------------------------------------
    def serve(self, txn: MemTransaction) -> Generator:
        if self._device is None:
            return txn.make_response(code=ResponseCode.ADDRESS_ERROR)
        self.transactions += txn.burst
        yield self.crossing_latency_s
        response = yield from self._device.serve(txn)
        yield self.crossing_latency_s
        return response


class OpenCapiC1Port:
    """Device-side C1 port: masters transactions into host memory.

    Accesses carry a PASID and are validated against the registry's
    pinned windows before touching the bus — the hardware enforcement
    behind the paper's "memory transactions forwarding only towards
    legal destinations" guarantee.
    """

    def __init__(
        self,
        sim: Simulator,
        bus: SystemBus,
        pasids: PasidRegistry,
        name: str = "c1",
        crossing_latency_s: float = HOST_LINK_SERDES_S,
    ):
        self.sim = sim
        self.bus = bus
        self.pasids = pasids
        self.name = name
        self.crossing_latency_s = crossing_latency_s
        self.mastered = 0
        self.denied = 0

    def admit(self, txn: MemTransaction) -> Optional[MemTransaction]:
        """Check ``txn``'s PASID before it crosses the host link.

        Returns None for an authorized access. A PASID violation returns
        an ``ACCESS_DENIED`` response rather than raising, because on
        real hardware this surfaces as a bus error response.
        """
        try:
            self.pasids.check_access(txn.pasid, txn.address, txn.size)
        except PermissionError:
            self.denied += txn.burst
            return txn.make_response(code=ResponseCode.ACCESS_DENIED)
        self.mastered += txn.burst
        return None

    def complete(self, txn: MemTransaction) -> Generator:
        """Master an admitted ``txn`` that has crossed the host link
        into the host's effective address space: the bus access and the
        crossing back. Delegate with ``response = yield from
        port.complete(txn)``."""
        response = yield from self.bus.issue(txn)
        yield self.crossing_latency_s
        return response
