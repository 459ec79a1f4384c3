"""Transaction routing layer — paper §IV-A3.

Sits between the endpoint attachment modules and the per-channel LLCs.
Each transaction is handled independently based on the network
identifier in its header, so any number of endpoints can be connected
concurrently. The layer implements **channel bonding**: a flow whose
wire identifier carries the in-band bonding flag is sprayed over its
configured set of physical channels; channels are freely shared between
bonded and unbonded flows.

Beyond the paper's plain round-robin, routes accept per-channel
*weights* (smooth weighted round-robin) — the "more sophisticated
channel sharing approaches that go beyond simple round-robin … able to
offer bandwidth allocation and QoS capabilities" §IV-A3 anticipates.
Equal weights degenerate to the paper's round-robin exactly.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import trace as _trace
from ..opencapi.transactions import MemTransaction, split_burst
from ..sim.engine import Process, Simulator
from .flow import base_network_id, is_bonded_wire_id
from .llc import LlcEndpoint

__all__ = ["RoutingLayer", "RoutingError"]

#: Receive handler signature: (transaction, arrival channel index).
RxHandler = Callable[[MemTransaction, int], None]


class RoutingError(RuntimeError):
    """Unroutable transaction: unknown network id or channel."""


class RoutingLayer:
    """Per-device routing/forwarding with round-robin channel bonding."""

    def __init__(self, sim: Simulator, name: str = "routing"):
        self.sim = sim
        self.name = name
        self._channels: List[LlcEndpoint] = []
        self._routes: Dict[int, Tuple[int, ...]] = {}
        self._weights: Dict[int, Tuple[int, ...]] = {}
        self._wrr_current: Dict[int, List[int]] = {}
        self._rx_handler: Optional[RxHandler] = None
        self.forwarded = 0
        self.responses_returned = 0
        self.per_channel_tx: List[int] = []

    # -- wiring --------------------------------------------------------------------
    def add_channel(self, llc: LlcEndpoint) -> int:
        """Register one network channel; returns its index."""
        index = len(self._channels)
        self._channels.append(llc)
        self.per_channel_tx.append(0)
        llc.set_receiver(partial(self._receive, index))
        return index

    @property
    def channel_count(self) -> int:
        return len(self._channels)

    def channel(self, index: int) -> LlcEndpoint:
        try:
            return self._channels[index]
        except IndexError:
            raise RoutingError(
                f"{self.name}: no channel {index} "
                f"(have {len(self._channels)})"
            ) from None

    def set_rx_handler(self, handler: RxHandler) -> None:
        """The endpoint attachment module's ingress callback."""
        self._rx_handler = handler

    # -- route configuration (programmed by the agent) ------------------------------
    def install_route(
        self,
        network_id: int,
        channels: Sequence[int],
        weights: Optional[Sequence[int]] = None,
    ) -> None:
        """Program a route; optional per-channel weights (QoS shaping)."""
        if not channels:
            raise RoutingError("route needs at least one channel")
        for index in channels:
            self.channel(index)  # validates existence
        if weights is None:
            weights = [1] * len(channels)
        if len(weights) != len(channels):
            raise RoutingError(
                f"{len(weights)} weights for {len(channels)} channels"
            )
        if any(w < 1 for w in weights):
            raise RoutingError("weights must be >= 1")
        self._routes[network_id] = tuple(channels)
        self._weights[network_id] = tuple(weights)
        self._wrr_current[network_id] = [0] * len(channels)

    def remove_route(self, network_id: int) -> None:
        self._routes.pop(network_id, None)
        self._weights.pop(network_id, None)
        self._wrr_current.pop(network_id, None)

    def route_for(self, network_id: int) -> Tuple[int, ...]:
        try:
            return self._routes[base_network_id(network_id)]
        except KeyError:
            raise RoutingError(
                f"{self.name}: no route for network id "
                f"{base_network_id(network_id)}"
            ) from None

    # -- forwarding ----------------------------------------------------------------
    def select_channel(self, wire_network_id: int) -> int:
        """Pick the physical channel for one transaction header.

        Smooth weighted round-robin (the nginx algorithm): with equal
        weights this is exactly the paper's round-robin; unequal weights
        apportion the flow's transactions proportionally.
        """
        base = base_network_id(wire_network_id)
        channels = self.route_for(base)
        if not (is_bonded_wire_id(wire_network_id) and len(channels) > 1):
            return channels[0]
        weights = self._weights[base]
        current = self._wrr_current[base]
        best = 0
        for index, weight in enumerate(weights):
            current[index] += weight
            if current[index] > current[best]:
                best = index
        current[best] -= sum(weights)
        return channels[best]

    def forward(self, txn: MemTransaction) -> Optional[Process]:
        """Forward a request toward its remote endpoint.

        Returns None once the request is queued at its LLC(s), or a
        process that finishes when the last credit-stalled piece is.
        """
        if txn.network_id is None:
            raise RoutingError(f"{self.name}: transaction has no network id")
        if _trace.ENABLED:
            _trace.txn_mark(
                self.sim.now, txn.base_txn_id, "routing.forward", self.name
            )
        channels = self.route_for(txn.network_id)
        if (
            txn.burst > 1
            and is_bonded_wire_id(txn.network_id)
            and len(channels) > 1
        ):
            # Bonded flows spray per cacheline; split the burst so the
            # round-robin channel sequence matches the per-line
            # formulation exactly.
            stalled = []
            for line in range(txn.burst):
                piece = split_burst(txn, line, 1)
                index = self.select_channel(txn.network_id)
                self.forwarded += 1
                self.per_channel_tx[index] += 1
                waiting = self.channel(index).submit(piece)
                if waiting is not None:
                    stalled.append(waiting)
            return self.sim.all_of(stalled) if stalled else None
        index = self.select_channel(txn.network_id)
        self.forwarded += txn.burst
        self.per_channel_tx[index] += txn.burst
        return self.channel(index).submit(txn)

    def forward_response(self, response: MemTransaction) -> Optional[Process]:
        """Responses return "using the channel they arrived from"."""
        if response.arrival_channel is None:
            raise RoutingError(
                f"{self.name}: response without arrival channel"
            )
        if _trace.ENABLED:
            _trace.txn_mark(
                self.sim.now,
                response.base_txn_id,
                "routing.response",
                self.name,
            )
        self.responses_returned += response.burst
        index = response.arrival_channel
        self.per_channel_tx[index] += response.burst
        return self.channel(index).submit(response)

    def register_metrics(self, registry, **labels) -> None:
        """Pull collector: forwarded counts and per-channel distribution."""

        def collect(reg):
            base = dict(routing=self.name, **labels)
            reg.gauge("routing.forwarded", **base).set(self.forwarded)
            reg.gauge("routing.responses_returned", **base).set(
                self.responses_returned
            )
            for index, count in enumerate(self.per_channel_tx):
                reg.gauge(
                    "routing.channel_tx", channel=str(index), **base
                ).set(count)

        registry.add_collector(collect)

    # -- ingress --------------------------------------------------------------------
    def _receive(self, index: int, txn: MemTransaction) -> None:
        """Channel ``index``'s LLC hands over one transaction."""
        if self._rx_handler is None:
            raise RoutingError(
                f"{self.name}: transaction arrived with no rx handler"
            )
        txn.arrival_channel = index
        self._rx_handler(txn, index)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RoutingLayer({self.name!r}, channels={len(self._channels)}, "
            f"routes={len(self._routes)})"
        )
