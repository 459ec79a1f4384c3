"""OpenCAPI transaction-layer datatypes.

The POWER9 core emits 128-byte ld/st transactions (one cache line); the
ThymesisFlow datapath moves them as sequences of 32-byte **flits** over a
32 B-wide LLC pipeline (paper §IV-A4/§V). This module defines those wire
units plus the command vocabulary the endpoints speak — a minimal but
faithful subset of the OpenCAPI TL/TLx command set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum, auto
from typing import Optional

from ..mem.address import CACHELINE_BYTES

__all__ = [
    "TLCommand",
    "ResponseCode",
    "MemTransaction",
    "FLIT_BYTES",
    "flits_for_payload",
    "transaction_flits",
    "split_burst",
]

#: Width of the LLC datapath: "features a 32B wide datapath" (§IV-A4).
FLIT_BYTES = 32


class TLCommand(Enum):
    """Transaction-layer commands crossing a ThymesisFlow link."""

    RD_MEM = auto()        #: read one cacheline (request carries no data)
    WRITE_MEM = auto()     #: write one cacheline (request carries data)
    MEM_RD_RESPONSE = auto()   #: read response (carries data)
    MEM_WR_RESPONSE = auto()   #: write acknowledgement (no data)
    NOP = auto()           #: single-flit padding inside incomplete frames
    REPLAY_REQUEST = auto()    #: in-band Rx→Tx frame-replay message
    LINK_SYNC = auto()     #: link bring-up: agree on starting frame id


#: Command classes, built once. Constant tuples rather than frozensets:
#: ``Enum.__hash__`` is a Python-level call, while tuple membership
#: tests identity first.
_REQUESTS = (TLCommand.RD_MEM, TLCommand.WRITE_MEM)
_RESPONSES = (TLCommand.MEM_RD_RESPONSE, TLCommand.MEM_WR_RESPONSE)
_CARRIES_DATA = (TLCommand.WRITE_MEM, TLCommand.MEM_RD_RESPONSE)


class ResponseCode(Enum):
    """Completion status carried by response transactions."""

    OK = auto()
    ADDRESS_ERROR = auto()     #: outside any configured section
    ACCESS_DENIED = auto()     #: PASID / legal-destination check failed
    RETRY = auto()             #: transient (e.g. endpoint quiescing)


class _TxnIdCounter:
    """Monotonic transaction-id source.

    A plain integer bump: reserving an N-line run is one addition
    instead of N ``next()`` calls on an ``itertools.count``, and the
    allocated ids are identical.
    """

    __slots__ = ("value",)

    def __init__(self, start: int = 1):
        self.value = start

    def take(self, count: int = 1) -> int:
        base = self.value
        self.value = base + count
        return base


_txn_ids = _TxnIdCounter(1)


def reset_txn_ids(start: int = 1) -> None:
    """Rewind the global transaction-id counter.

    For deterministic harnesses (chaos scenarios, differential tests)
    that embed transaction ids in their artifacts: rewinding at
    scenario setup makes a seeded run's ids independent of whatever
    ran earlier in the same process. Only safe when no transactions
    from a previous testbed are still in flight — i.e. call it before
    building the testbed, never mid-run.
    """
    _txn_ids.value = start


def _next_txn_id() -> int:
    return _txn_ids.take()


def _reserve_txn_ids(count: int) -> int:
    """Allocate ``count`` consecutive transaction ids; return the first.

    A burst transaction stands for ``count`` per-cacheline transactions;
    reserving the whole id run keeps the wire identifiers (and hence
    frame CRC signatures) identical to the per-line formulation.
    """
    return _txn_ids.take(count)


@dataclass
class MemTransaction:
    """One memory transaction in flight through the stack.

    The ``address`` field is rewritten as the transaction crosses
    translation stages (real → device-internal → donor effective); the
    ``network_id`` is stamped by the RMMU and consumed by the routing
    layer; responses echo the request's ``txn_id`` and travel back over
    the channel the request arrived on (§IV-A2).
    """

    command: TLCommand
    address: int = 0
    size: int = CACHELINE_BYTES
    #: Payload bytes; any buffer type (``bytes``, ``bytearray``,
    #: ``memoryview``) is accepted so split views and reassembly can
    #: stay zero-copy. Consumers materialize only at the backing store.
    data: Optional[bytes] = None
    txn_id: int = field(default_factory=_next_txn_id)
    network_id: Optional[int] = None
    pasid: Optional[int] = None
    response_code: ResponseCode = ResponseCode.OK
    #: channel index the request arrived on (memory side responds in kind)
    arrival_channel: Optional[int] = None
    #: credits piggy-backed on this header (LLC backpressure, §IV-A4)
    piggyback_credits: int = 0
    issued_at: float = 0.0
    #: Number of contiguous cachelines this transaction stands for. A
    #: burst of N lines owns the consecutive ids txn_id..txn_id+N-1 and
    #: goes on the wire as N per-line flit groups — one header flit per
    #: line — so frame boundaries, padding and CRC coverage are exactly
    #: those of the N-transaction formulation it replaces.
    burst: int = 1
    #: Line offset of this (possibly split) burst within the burst it
    #: was carved from; ``txn_id - burst_offset`` recovers the base id.
    burst_offset: int = 0

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"transaction size must be > 0: {self.size}")
        if self.data is not None and len(self.data) != self.size:
            raise ValueError(
                f"data length {len(self.data)} != size {self.size}"
            )
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1: {self.burst}")
        if self.burst > 1 and self.size != self.burst * CACHELINE_BYTES:
            raise ValueError(
                f"burst of {self.burst} lines must span "
                f"{self.burst * CACHELINE_BYTES} bytes, got {self.size}"
            )

    # -- classification ---------------------------------------------------------
    @property
    def base_txn_id(self) -> int:
        """Id of the burst this (possibly split) transaction came from.

        Split views and their responses keep per-line ids; the tracer
        keys every mark on this base id so all segments of one burst
        land on one record.
        """
        return self.txn_id - self.burst_offset

    @property
    def is_request(self) -> bool:
        return self.command in _REQUESTS

    @property
    def is_response(self) -> bool:
        return self.command in _RESPONSES

    @property
    def carries_data(self) -> bool:
        return self.command in _CARRIES_DATA

    @property
    def flit_count(self) -> int:
        return transaction_flits(self)

    # -- factories ----------------------------------------------------------------
    @classmethod
    def read(cls, address: int, size: int = CACHELINE_BYTES) -> "MemTransaction":
        return cls(TLCommand.RD_MEM, address=address, size=size)

    @classmethod
    def write(cls, address: int, data: bytes) -> "MemTransaction":
        return cls(
            TLCommand.WRITE_MEM, address=address, size=len(data), data=data
        )

    @classmethod
    def nop(cls) -> "MemTransaction":
        return cls(TLCommand.NOP, size=FLIT_BYTES)

    @classmethod
    def read_burst(cls, address: int, lines: int) -> "MemTransaction":
        """Batched read of ``lines`` contiguous cachelines."""
        if lines == 1:
            return cls.read(address)
        return cls(
            TLCommand.RD_MEM,
            address=address,
            size=lines * CACHELINE_BYTES,
            txn_id=_reserve_txn_ids(lines),
            burst=lines,
        )

    @classmethod
    def write_burst(cls, address: int, data: bytes) -> "MemTransaction":
        """Batched write of contiguous cachelines (len(data) % 128 == 0)."""
        lines, remainder = divmod(len(data), CACHELINE_BYTES)
        if remainder or lines < 1:
            raise ValueError(
                f"burst writes need whole cachelines, got {len(data)} bytes"
            )
        if lines == 1:
            return cls.write(address, data)
        return cls(
            TLCommand.WRITE_MEM,
            address=address,
            size=len(data),
            data=data,
            txn_id=_reserve_txn_ids(lines),
            burst=lines,
        )

    def make_response(
        self,
        data: Optional[bytes] = None,
        code: ResponseCode = ResponseCode.OK,
    ) -> "MemTransaction":
        """Build the matching response, echoing id/network/channel."""
        if self.command == TLCommand.RD_MEM:
            command = TLCommand.MEM_RD_RESPONSE
            size = self.size if data is None else len(data)
        elif self.command == TLCommand.WRITE_MEM:
            command = TLCommand.MEM_WR_RESPONSE
            data = None
            size = CACHELINE_BYTES * self.burst
        else:
            raise ValueError(f"no response defined for {self.command}")
        return MemTransaction(
            command,
            address=self.address,
            size=size,
            data=data,
            txn_id=self.txn_id,
            network_id=self.network_id,
            arrival_channel=self.arrival_channel,
            response_code=code,
            burst=self.burst,
            burst_offset=self.burst_offset,
        )

    def with_address(self, address: int) -> "MemTransaction":
        """Copy with a translated address (RMMU stages)."""
        return replace(self, address=address)

    def reissue(self) -> "MemTransaction":
        """Fresh-id copy of a request, for an endpoint-level retry.

        Re-sending under the *same* id is unsafe on a slow-but-alive
        link: both the original and the retried response could arrive,
        and for bursts duplicate segments would double-decrement the
        reassembly counter. A fresh id (a fresh consecutive run for
        bursts) makes any straggler response to the old attempt an
        unmatched id, which the endpoint already drops.
        """
        new_id = (
            _reserve_txn_ids(self.burst)
            if self.burst > 1
            else _next_txn_id()
        )
        return replace(self, txn_id=new_id, burst_offset=0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MemTransaction({self.command.name}, id={self.txn_id}, "
            f"addr={self.address:#x}, net={self.network_id})"
        )


def flits_for_payload(payload_bytes: int) -> int:
    """Number of 32 B flits needed for ``payload_bytes`` of data."""
    if payload_bytes < 0:
        raise ValueError(f"negative payload: {payload_bytes}")
    return -(-payload_bytes // FLIT_BYTES)


def transaction_flits(txn: MemTransaction) -> int:
    """Flits on the wire: one header flit plus data flits if any.

    A 128 B write is 1 + 4 = 5 flits; a read request is a single header
    flit; NOP padding is one flit by definition (§IV-A4). A burst of N
    cachelines serializes as N per-line flit groups, so its footprint is
    exactly N times the per-line count.
    """
    command = txn.command
    if command is TLCommand.NOP:
        return 1
    if command in _CARRIES_DATA:
        per_line_payload = flits_for_payload(txn.size // txn.burst)
        return txn.burst * (1 + per_line_payload)
    return txn.burst


def split_burst(
    txn: MemTransaction, line_start: int, lines: int
) -> MemTransaction:
    """Carve a ``lines``-cacheline view out of a burst transaction.

    The view keeps per-line identity: its ``txn_id`` is the parent's id
    plus ``line_start`` (the reserved consecutive run), its address and
    data window advance accordingly, and ``burst_offset`` accumulates so
    responses can be matched back to the original burst's base id.
    """
    if line_start < 0 or lines < 1 or line_start + lines > txn.burst:
        raise ValueError(
            f"split [{line_start}, {line_start + lines}) outside burst "
            f"of {txn.burst} lines"
        )
    data = txn.data
    if data is not None:
        # Zero-copy window: a memoryview slice aliases the parent
        # payload instead of copying it. Payload sources are immutable
        # user buffers, so aliasing is safe.
        if type(data) is not memoryview:
            data = memoryview(data)
        data = data[
            line_start * CACHELINE_BYTES : (line_start + lines)
            * CACHELINE_BYTES
        ]
    # Hand-rolled copy: ``dataclasses.replace`` re-runs field discovery
    # and __post_init__ validation on every call, which dominated the
    # frame-packing profile. The split's bounds are validated above.
    view = object.__new__(MemTransaction)
    view.command = txn.command
    view.address = txn.address + line_start * CACHELINE_BYTES
    view.size = lines * CACHELINE_BYTES
    view.data = data
    view.txn_id = txn.txn_id + line_start
    view.network_id = txn.network_id
    view.pasid = txn.pasid
    view.response_code = txn.response_code
    view.arrival_channel = txn.arrival_channel
    view.piggyback_credits = txn.piggyback_credits
    view.issued_at = txn.issued_at
    view.burst = lines
    view.burst_offset = txn.burst_offset + line_start
    return view
