"""ThymesisFlow endpoint attachment modules — paper §IV-A1/§IV-A2.

* :class:`ComputeEndpoint` — the recipient side. Receives cacheline
  transactions from the host bus (through an OpenCAPI **M1** port),
  re-bases them into the device-internal address space, translates them
  through the RMMU (donor effective address + network id) and forwards
  them via the routing layer. Matches responses to outstanding requests
  by transaction id.
* :class:`MemoryStealingEndpoint` — the donor side. Entirely passive:
  it masters arriving transactions into the donor's effective address
  space through an OpenCAPI **C1** port (authorized by the stealing
  process's PASID) and sends each response back on the channel the
  request arrived from, echoing the request's network identifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional

from ..errors import RemoteMemoryError
from ..mem.address import AddressRange, CACHELINE_BYTES
from ..obs import events as _events
from ..obs import trace as _trace
from ..opencapi.ports import OpenCapiC1Port
from ..opencapi.transactions import MemTransaction, ResponseCode, TLCommand
from ..sim.engine import Signal, Simulator
from ..sim.stats import LatencyRecorder
from .hbm import HbmCache
from .rmmu import Rmmu, RmmuFault
from .routing import RoutingLayer

__all__ = [
    "ComputeEndpoint",
    "MemoryStealingEndpoint",
    "EndpointError",
    "RetryPolicy",
]


class EndpointError(RuntimeError):
    """Endpoint misconfiguration (datapath errors become bus responses)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for watchdog-expired transactions.

    Attempt ``k`` (zero-based) that times out is retried after
    ``min(backoff_base_s * multiplier**k, backoff_max_s)`` of simulated
    time, up to ``max_attempts`` total attempts. After exhaustion the
    endpoint raises :class:`~repro.errors.RemoteMemoryError` — a
    structured failure the resilience layer can act on — instead of
    retrying forever or hanging the event loop.
    """

    max_attempts: int = 3
    backoff_base_s: float = 2e-6
    multiplier: float = 2.0
    backoff_max_s: float = 100e-6

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1: {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier}")

    def backoff_s(self, failed_attempts: int) -> float:
        """Delay before the retry following ``failed_attempts`` misses."""
        delay = self.backoff_base_s * self.multiplier ** max(
            0, failed_attempts - 1
        )
        return min(delay, self.backoff_max_s)


class ComputeEndpoint:
    """Introduces remote memory into the host's real address space.

    Acts as a :class:`~repro.opencapi.bus.BusTarget` (behind the M1
    port): firmware maps ``window`` in the host real address space; the
    device-internal view of an arriving transaction is its offset within
    that window ("the Device Internal Address Space is always starting
    from address 0x0").
    """

    def __init__(
        self,
        sim: Simulator,
        rmmu: Rmmu,
        routing: RoutingLayer,
        name: str = "compute-ep",
        transaction_timeout_s: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.sim = sim
        self.rmmu = rmmu
        self.routing = routing
        self.name = name
        #: When set, an outstanding transaction older than this is failed
        #: back to the bus (donor crash / unrecoverable link loss).
        self.transaction_timeout_s = transaction_timeout_s
        #: When set (together with ``transaction_timeout_s``), expired
        #: transactions are retried with fresh ids under exponential
        #: backoff; exhaustion raises :class:`RemoteMemoryError`. With
        #: no policy the endpoint keeps its legacy single-attempt
        #: behaviour (timeout -> ``ResponseCode.RETRY`` bus response).
        self.retry_policy = retry_policy
        self.window: Optional[AddressRange] = None
        self.hbm: Optional[HbmCache] = None
        self._outstanding: Dict[int, Signal] = {}
        #: Reassembly state for outstanding burst requests, keyed by the
        #: burst's base transaction id. Response segments arrive as the
        #: donor's per-frame serves complete; the request's signal fires
        #: when the last line lands.
        self._bulk_rx: Dict[int, dict] = {}
        #: Called with ``(endpoint, RemoteMemoryError)`` when a
        #: transaction exhausts its retry budget — the health monitor's
        #: failure-detection signal.
        self._failure_listeners: List[
            Callable[["ComputeEndpoint", RemoteMemoryError], None]
        ] = []
        self.rtt = LatencyRecorder(f"{name}.rtt")
        self.requests = 0
        self.hbm_hits = 0
        self.fault_responses = 0
        self.timeouts = 0
        self.retries = 0
        self.retries_exhausted = 0

    def assign_window(self, window: AddressRange) -> None:
        """Firmware assigns the real-address window backing this device."""
        self.window = window

    def enable_hbm_cache(self, cache: HbmCache) -> None:
        """Install the §VII HBM caching layer in front of the RMMU."""
        self.hbm = cache

    @property
    def outstanding_count(self) -> int:
        return len(self._outstanding)

    # -- BusTarget protocol ----------------------------------------------------------
    def serve(self, txn: MemTransaction) -> Generator:
        if self.window is None:
            raise EndpointError(f"{self.name}: no window assigned")
        started = self.sim.now
        self.requests += txn.burst
        internal_address = self.window.offset_of(txn.address)
        # HBM caching layer (§VII): reads that hit never leave the card.
        # Bulk transfers bypass the cache (their working sets are moved
        # once, not re-referenced), but bulk writes must still
        # invalidate any cached lines they overwrite.
        if (
            self.hbm is not None
            and txn.burst == 1
            and txn.command.name == "RD_MEM"
        ):
            cached = self.hbm.lookup(internal_address, txn.size)
            if cached is not None:
                self.hbm_hits += 1
                if _trace.ENABLED:
                    _trace.txn_mark(
                        self.sim.now, txn.base_txn_id, "hbm.hit", self.name
                    )
                yield self.hbm.config.hit_latency_s
                self.rtt.add(self.sim.now - started)
                return txn.make_response(data=cached)
        try:
            remote_address, network_id = self.rmmu.translate(
                internal_address, lines=txn.burst
            )
        except RmmuFault:
            self.fault_responses += txn.burst
            return txn.make_response(code=ResponseCode.ADDRESS_ERROR)
        if _trace.ENABLED:
            _trace.txn_mark(
                self.sim.now, txn.base_txn_id, "rmmu.translate", self.rmmu.name
            )
        outbound = txn.with_address(remote_address)
        outbound.network_id = network_id
        policy = self.retry_policy
        attempts = (
            policy.max_attempts
            if policy is not None and self.transaction_timeout_s is not None
            else 1
        )
        response = None
        for attempt in range(attempts):
            if attempt:
                # Backoff, then re-send under fresh transaction ids so a
                # straggler response to the timed-out attempt cannot be
                # confused with (or double-complete) the retry.
                delay = policy.backoff_s(attempt)
                if delay > 0:
                    yield delay
                outbound = outbound.reissue()
                self.retries += txn.burst
                if _trace.ENABLED:
                    _trace.txn_mark(
                        self.sim.now, txn.base_txn_id, "endpoint.retry",
                        self.name,
                    )
                if _events.ENABLED:
                    _events.emit(
                        self.sim.now,
                        "endpoint.retry",
                        endpoint=self.name,
                        txn=txn.base_txn_id,
                        attempt=attempt,
                        network_id=outbound.network_id,
                    )
            response = yield from self._attempt(outbound, started)
            if response is not None:
                break
            # Watchdog fired: the donor (or every path to it) is gone.
            self.timeouts += txn.burst
        if response is None:
            if policy is None:
                return txn.make_response(code=ResponseCode.RETRY)
            self.retries_exhausted += txn.burst
            error = RemoteMemoryError(
                f"{self.name}: transaction {txn.base_txn_id} to network "
                f"{outbound.network_id:#x} failed after {attempts} "
                f"attempts ({self.sim.now - started:.2e}s)",
                endpoint=self.name,
                network_id=outbound.network_id,
                txn_id=txn.base_txn_id,
                attempts=attempts,
                elapsed_s=self.sim.now - started,
            )
            if _events.ENABLED:
                _events.emit(
                    self.sim.now,
                    "endpoint.retries_exhausted",
                    endpoint=self.name,
                    txn=txn.base_txn_id,
                    attempts=attempts,
                    network_id=outbound.network_id,
                    elapsed_s=self.sim.now - started,
                )
            for listener in self._failure_listeners:
                listener(self, error)
            raise error
        if txn.burst == 1:
            # Burst round-trips are recorded per line as each response
            # segment arrives (see deliver_response).
            self.rtt.add(self.sim.now - started)
        if self.hbm is not None:
            if txn.burst > 1:
                if txn.command.name == "WRITE_MEM":
                    self.hbm.invalidate_range(internal_address, txn.size)
            elif txn.command.name == "RD_MEM" and response.data is not None:
                self.hbm.fill(internal_address, response.data)
            elif txn.command.name == "WRITE_MEM" and txn.data is not None:
                self.hbm.write_through(internal_address, txn.data)
        return response

    def _attempt(
        self, outbound: MemTransaction, started: float
    ) -> Generator:
        """Send one attempt and wait for its response (None = expired)."""
        done = Signal(name=f"{self.name}.txn{outbound.txn_id}", oneshot=True)
        self._outstanding[outbound.txn_id] = done
        if outbound.burst > 1:
            self._bulk_rx[outbound.txn_id] = {
                "lines": outbound.burst,
                "left": outbound.burst,
                "data": (
                    bytearray(outbound.size)
                    if outbound.command == TLCommand.RD_MEM
                    else None
                ),
                "code": ResponseCode.OK,
                "started": started,
            }
        if self.transaction_timeout_s is not None:
            self.sim.schedule(
                self.transaction_timeout_s, self._expire, outbound.txn_id
            )
        stalled = self.routing.forward(outbound)
        if stalled is not None:
            yield stalled
        response = yield done
        return response

    def add_failure_listener(
        self,
        listener: Callable[["ComputeEndpoint", RemoteMemoryError], None],
    ) -> None:
        """Subscribe to retry-exhaustion events (health monitoring)."""
        self._failure_listeners.append(listener)

    def register_metrics(self, registry, **labels) -> None:
        """Pull collector: request mix, HBM hits, faults, RTT stats."""

        def collect(reg):
            base = dict(endpoint=self.name, **labels)
            reg.gauge("endpoint.requests", **base).set(self.requests)
            reg.gauge("endpoint.hbm_hits", **base).set(self.hbm_hits)
            reg.gauge("endpoint.fault_responses", **base).set(
                self.fault_responses
            )
            reg.gauge("endpoint.timeouts", **base).set(self.timeouts)
            reg.gauge("endpoint.retries", **base).set(self.retries)
            reg.gauge("endpoint.retries_exhausted", **base).set(
                self.retries_exhausted
            )
            reg.gauge("endpoint.outstanding", **base).set(
                len(self._outstanding)
            )
            if self.rtt.count:
                reg.gauge("endpoint.rtt_mean_s", **base).set(self.rtt.mean)
                reg.gauge("endpoint.rtt_p99_s", **base).set(
                    self.rtt.percentile(99)
                )

        registry.add_collector(collect)

    def _expire(self, txn_id: int) -> None:
        pending = self._outstanding.pop(txn_id, None)
        self._bulk_rx.pop(txn_id, None)
        if pending is not None:
            pending.fire(None)

    # -- network ingress (responses coming back) ----------------------------------------
    def deliver_response(self, txn: MemTransaction, channel: int) -> None:
        if not txn.is_response:
            raise EndpointError(
                f"{self.name}: unexpected non-response on network: {txn!r}"
            )
        base_id = txn.txn_id - txn.burst_offset
        gather = self._bulk_rx.get(base_id)
        if gather is not None:
            self._gather_segment(base_id, gather, txn)
            return
        done = self._outstanding.pop(txn.txn_id, None)
        if done is None:
            # A response for a request satisfied by replayed duplicate —
            # drop it; the id matcher already completed the bus txn.
            return
        done.fire(txn)

    def _gather_segment(
        self, base_id: int, gather: dict, txn: MemTransaction
    ) -> None:
        """Fold one burst response segment into the reassembly buffer."""
        now = self.sim.now
        started = gather["started"]
        self.rtt.add_repeated(now - started, txn.burst)
        if gather["data"] is not None and txn.data is not None:
            offset = txn.burst_offset * CACHELINE_BYTES
            gather["data"][offset : offset + len(txn.data)] = txn.data
        if txn.response_code is not ResponseCode.OK:
            gather["code"] = txn.response_code
        gather["left"] -= txn.burst
        if gather["left"] > 0:
            return
        del self._bulk_rx[base_id]
        done = self._outstanding.pop(base_id, None)
        if done is None:
            return
        assembled = MemTransaction(
            txn.command,
            address=txn.address - txn.burst_offset * CACHELINE_BYTES,
            size=(
                len(gather["data"])
                if gather["data"] is not None
                else gather["lines"] * CACHELINE_BYTES
            ),
            # The reassembly bytearray is handed over as-is: nothing
            # writes it after the last segment lands, and copying it to
            # bytes was the single largest allocation on the read path.
            data=gather["data"] if gather["data"] is not None else None,
            txn_id=base_id,
            network_id=txn.network_id,
            arrival_channel=txn.arrival_channel,
            response_code=gather["code"],
        )
        done.fire(assembled)


class MemoryStealingEndpoint:
    """Exposes donated local memory to a remote compute node.

    Configured once with the stealing process's PASID; afterwards "the
    memory-stealing endpoint is passive and does not require further
    configuration" — every arriving request is mastered into host memory
    and answered on its arrival channel.
    """

    def __init__(
        self,
        sim: Simulator,
        c1_port: OpenCapiC1Port,
        routing: RoutingLayer,
        name: str = "memory-ep",
    ):
        self.sim = sim
        self.c1 = c1_port
        self.routing = routing
        self.name = name
        self.pasid: Optional[int] = None
        self.served = 0
        self.denied = 0

    def register_metrics(self, registry, **labels) -> None:
        """Pull collector: served/denied request counts."""

        def collect(reg):
            base = dict(endpoint=self.name, **labels)
            reg.gauge("endpoint.served", **base).set(self.served)
            reg.gauge("endpoint.denied", **base).set(self.denied)

        registry.add_collector(collect)

    def set_pasid(self, pasid: int) -> None:
        """Register the memory-stealing process's address space id."""
        self.pasid = pasid

    def deliver_request(self, txn: MemTransaction, channel: int) -> None:
        if not txn.is_request:
            raise EndpointError(
                f"{self.name}: unexpected non-request on network: {txn!r}"
            )
        txn.pasid = self.pasid
        denied = self.c1.admit(txn)
        if denied is not None:
            # A denied request never crosses the link: it is answered
            # at once, in a zero-delay turn of its own.
            self.sim.schedule(0.0, self._respond, txn, denied)
            return
        # The request's process starts once it has crossed the host
        # link: that crossing is the first thing it would wait for.
        self.sim.process_after(
            self.c1.crossing_latency_s,
            self._serve(txn),
            name=f"{self.name}.serve",
        )

    def _serve(self, txn: MemTransaction) -> Generator:
        response = yield from self.c1.complete(txn)
        self._respond(txn, response)

    def _respond(self, txn: MemTransaction, response: MemTransaction) -> None:
        if response.response_code is ResponseCode.ACCESS_DENIED:
            self.denied += txn.burst
        else:
            self.served += txn.burst
        response.arrival_channel = txn.arrival_channel
        response.network_id = txn.network_id
        # Nothing waits on a served request: a credit-stalled response
        # finishes in the process the LLC spawned for it.
        self.routing.forward_response(response)
