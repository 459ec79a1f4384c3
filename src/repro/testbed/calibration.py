"""Calibration constants, each tied to a sentence of the paper.

All timing knobs of the simulation live here so that EXPERIMENTS.md can
point at a single audited table. The paper-claims table
(``tests/test_paper_claims.py``) reads its paper values from here and
checks the derived quantities against the paper's arithmetic.
"""

from __future__ import annotations

from ..mem.address import GIB
from ..net.link import SERDES_CROSSING_S
from ..opencapi.ports import FPGA_STACK_CROSSING_S, HOST_LINK_SERDES_S

__all__ = [
    "CHANNEL_RAW_GBPS",
    "CHANNEL_THEORETICAL_MAX_BYTES_S",
    "OPENCAPI_C1_128B_CEILING_BYTES_S",
    "PROTOTYPE_RTT_S",
    "LOCAL_DRAM_LATENCY_S",
    "LOCAL_DRAM_BANDWIDTH_BYTES_S",
    "rtt_budget_s",
    "integrated_rtt_budget_s",
]

#: "each one driving 4x bonded GTY transceivers at 25Gbit/sec
#: (100Gbit/sec)" — §V.
CHANNEL_RAW_GBPS = 100.0

#: "ThymesisFlow theoretical maximum (12.5 GiB/s)" — Fig. 5 caption.
CHANNEL_THEORETICAL_MAX_BYTES_S = 12.5 * GIB

#: "the OpenCAPI mode C1 … works with 128B transactions … leads to a
#: maximum actual bandwidth to/from memory in the range of 16GiB/s" — §VI-C.
OPENCAPI_C1_128B_CEILING_BYTES_S = 16 * GIB

#: "The hardware datapath flit RTT latency of this prototype is roughly
#: 950ns" — §V.
PROTOTYPE_RTT_S = 950e-9

#: Local POWER9 socket DRAM access latency (AC922 class machine).
LOCAL_DRAM_LATENCY_S = 85e-9

#: AC922 per-socket sustained DRAM bandwidth (8 DDR4 channels).
LOCAL_DRAM_BANDWIDTH_BYTES_S = 120 * GIB


def rtt_budget_s(cable_propagation_s: float = 15e-9) -> float:
    """Decompose the prototype RTT the way §V does.

    "four crossings of the FPGA stack and six serDES crossings (2x at
    compute endpoint side, two for the network and two at the memory
    stealing endpoint side)".
    """
    fpga_stack = 4 * FPGA_STACK_CROSSING_S
    host_serdes = 2 * HOST_LINK_SERDES_S + 2 * HOST_LINK_SERDES_S
    network_serdes = 2 * SERDES_CROSSING_S
    cables = 2 * cable_propagation_s
    return fpga_stack + host_serdes + network_serdes + cables


def integrated_rtt_budget_s(cable_propagation_s: float = 15e-9) -> float:
    """The §VII projection: ThymesisFlow inside the processor SoC.

    "The SoC transceivers could be driven by an appropriately modified
    design to directly interface the network … which would save four
    serDES crossings." The FPGA-stack pipeline stays (it becomes SoC
    logic); the 4 host-link serdes crossings disappear.
    """
    fpga_stack = 4 * FPGA_STACK_CROSSING_S
    network_serdes = 2 * SERDES_CROSSING_S
    cables = 2 * cable_propagation_s
    return fpga_stack + network_serdes + cables

