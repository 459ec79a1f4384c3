"""The paper's claims, one table, checked claim by claim.

Each :class:`Claim` row names the paper figure or section it comes
from, the paper's value, the tolerance the reproduction must meet and
the measurement it reads. One parametrised test checks every row, so a
failure reports which claim drifted, by how much, against what.

Figure rows read the numbers :func:`repro.figures.figure_numbers`
computes (the same code behind ``python -m repro figN``); the ablation
rows read the flit-level measurements in ``ablations.py``. The
session ``results`` fixture (``conftest.py``) runs every measurement at
most once, serially, and writes its payload to
``benchmarks/results/<name>.json``.

Paper values come from ``repro.testbed.calibration`` and
``repro.figures`` wherever a constant exists. Claims of order ("A beats
B everywhere") measure the extreme difference or ratio across the
cases, so the tolerance states the bound and the report shows the
margin.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

import pytest

import ablations
from repro.figures import FIG1_PAPER, FIG8_PAPER_MEAN_US
from repro.mem import GIB
from repro.net.link import AURORA_OVERHEAD
from repro.testbed import NodeSpec
from repro.testbed.calibration import (
    CHANNEL_RAW_GBPS,
    CHANNEL_THEORETICAL_MAX_BYTES_S,
    PROTOTYPE_RTT_S,
    integrated_rtt_budget_s,
    rtt_budget_s,
)
from repro.workloads import StreamKernel


# -- tolerances ---------------------------------------------------------------


@dataclass(frozen=True)
class Approx:
    """``pytest.approx`` of the paper value; ``abs=0`` means exact."""

    rel: Optional[float] = None
    abs: Optional[float] = None

    def ok(self, measured, paper) -> bool:
        return measured == pytest.approx(paper, rel=self.rel, abs=self.abs)

    def __str__(self) -> str:
        if self.rel is not None:
            return f"±{self.rel:.0%} of paper"
        return f"±{self.abs:g} of paper"


@dataclass(frozen=True)
class Range:
    """Inside ``[lo, hi]``."""

    lo: float
    hi: float

    def ok(self, measured, paper) -> bool:
        return self.lo <= measured <= self.hi

    def __str__(self) -> str:
        return f"in [{self.lo:g}, {self.hi:g}]"


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge}


@dataclass(frozen=True)
class Bound:
    """One-sided: ``measured <op> bound``."""

    op: str
    bound: float

    def ok(self, measured, paper) -> bool:
        return _OPS[self.op](measured, self.bound)

    def __str__(self) -> str:
        return f"{self.op} {self.bound:g}"


@dataclass(frozen=True)
class Claim:
    """One paper claim: where it is, what it says, how close we must be."""

    id: str
    source: str
    paper: Any
    tolerance: Any
    measure: Callable[[Mapping[str, Any]], Any]


# -- accessors ----------------------------------------------------------------

L, SO, I = "local", "scale-out", "interleaved"
S, B = "single-disaggregated", "bonding-disaggregated"
CONFIGS = (L, SO, I, S, B)
#: Fig. 8's latency order, fastest first.
FIG8_ORDER = (L, I, S, B, SO)
FIG5_THREADS = (4, 8, 16)
FIG6_WORKLOADS = tuple("ABCDEF")
FIG6_PARTITIONS = (4, 16, 32, 64)
FIG9_SHARDS = (5, 32)
NUMA_PAGES = ablations.NUMA_MAP_BYTES // NodeSpec().page_bytes


def stream(r, kind, kernel, threads):
    return r["fig5"][f"{kind}/{kernel}/{threads}"]


def voltdb(r, kind, workload, partitions):
    return r["fig6"][f"{kind}/{workload}/{partitions}"]


def ycsb(r, kind, workload, partitions):
    return r["fig7"][f"{kind}/{workload}/{partitions}"]


def esrally(r, challenge, shards, kind):
    return r["fig9"][f"{challenge}/{shards}/{kind}"]


def fig1(r, key):
    """``(fixed, disaggregated)``, shaped like ``FIG1_PAPER[key]``."""
    return r["fig1"]["fixed"][key], r["fig1"]["disaggregated"][key]


def fig1_cut(pair):
    fixed, disagg = pair
    return disagg / fixed


def fig1_gain(pair):
    fixed, disagg = pair
    return disagg - fixed


def fig6_ipc_gain(r, workload):
    return (voltdb(r, L, workload, 64)["package_ipc"]
            / voltdb(r, L, workload, 4)["package_ipc"])


def fig7_a32_loss(r, kind):
    return 1 - ycsb(r, kind, "A", 32) / ycsb(r, L, "A", 32)


def fig7_e_spread(r, partitions):
    values = [ycsb(r, kind, "E", partitions) for kind in CONFIGS]
    return max(values) / min(values)


def fig8_mean(r, kind):
    return r["fig8"][kind]["mean_us"]


def fig9_sync_gap(r, kind):
    """Average shortfall vs scale-out on the sync-heavy challenges."""
    gaps = [
        1 - esrally(r, challenge, 32, kind) / esrally(r, challenge, 32, SO)
        for challenge in ("RNQIHBS", "RSTQ", "MA")
    ]
    return sum(gaps) / len(gaps)


def goodput_ratio(r, name, a, b):
    return r[name][a] / r[name][b]


def loss_run(r, probability):
    return r["ablation_loss"][probability]


# -- the table ----------------------------------------------------------------

FIG1 = "Fig. 1 / §II"
RTT = "§V"
FIG5 = "Fig. 5 / §VI-C"
FIG6 = "Fig. 6 / §VI-D"
FIG7 = "Fig. 7 / §VI-D"
FIG8 = "Fig. 8 / §VI-E"
FIG9 = "Fig. 9 / §VI-F"
LLC = "§IV-A4 ablation"
BONDING = "§IV-A3 ablation"
FUTURE = "§VII projection"
NUMA = "§IV-B ablation"

CLAIMS = [
    # Fig. 1: disaggregation cuts fragmentation ~3-4x and frees memory
    # modules for power-off (31x scaled-down trace, 400 units).
    Claim("fig1.cpu_fragmentation_cut", FIG1,
          fig1_cut(FIG1_PAPER["cpu_fragmentation_pct"]), Bound("<", 0.5),
          lambda r: fig1_cut(fig1(r, "cpu_fragmentation_pct"))),
    Claim("fig1.memory_fragmentation_cut", FIG1,
          fig1_cut(FIG1_PAPER["memory_fragmentation_pct"]), Bound("<", 0.5),
          lambda r: fig1_cut(fig1(r, "memory_fragmentation_pct"))),
    Claim("fig1.fixed_memory_stranding", FIG1,
          FIG1_PAPER["memory_fragmentation_pct"][0], Bound(">", 20.0),
          lambda r: fig1(r, "memory_fragmentation_pct")[0]),
    Claim("fig1.memory_off_gain", FIG1,
          fig1_gain(FIG1_PAPER["memory_off_pct"]), Bound(">", 10.0),
          lambda r: fig1_gain(fig1(r, "memory_off_pct"))),
    Claim("fig1.memory_off", FIG1, FIG1_PAPER["memory_off_pct"][1],
          Bound(">", 15.0), lambda r: fig1(r, "memory_off_pct")[1]),
    # §V: the ~950 ns flit RTT, as a static budget and measured live
    # (the live path adds donor DRAM and framing).
    Claim("rtt.budget", RTT, PROTOTYPE_RTT_S * 1e9, Approx(rel=0.05),
          lambda r: r["rtt"]["budget_ns"]),
    Claim("rtt.measured_mean", RTT, PROTOTYPE_RTT_S * 1e9,
          Range(PROTOTYPE_RTT_S * 0.95 * 1e9,
                (PROTOTYPE_RTT_S + 400e-9) * 1e9),
          lambda r: r["rtt"]["mean_ns"]),
    # §V: 4 x 25 Gbit/s lanes after Aurora coding stay below the
    # 12.5 GiB/s theoretical maximum of the Fig. 5 caption.
    Claim("rtt.aurora_payload_below_line_rate", RTT,
          CHANNEL_THEORETICAL_MAX_BYTES_S,
          Bound("<", CHANNEL_THEORETICAL_MAX_BYTES_S * 1.01),
          lambda r: CHANNEL_RAW_GBPS * 1e9 / 8 / AURORA_OVERHEAD),
    # Fig. 5 (GiB/s): "~10 GiB/s with 4 threads, close to the
    # theoretical maximum of 12.5 GiB/s when using 8 threads".
    Claim("fig5.single_4_threads", FIG5, 10.0, Range(8.5, 11.5),
          lambda r: stream(r, S, "copy", 4)),
    Claim("fig5.single_8_threads", FIG5,
          CHANNEL_THEORETICAL_MAX_BYTES_S / GIB, Range(10.5, 12.6),
          lambda r: stream(r, S, "copy", 8)),
    Claim("fig5.saturation_droop", FIG5, "16 threads <= 8 threads",
          Bound("<=", 0.0),
          lambda r: stream(r, S, "copy", 16) - stream(r, S, "copy", 8)),
    # "Overall we measure a ~30% improvement" for bonding; far from 2x.
    *[
        Claim(f"fig5.bonding_gain.{kernel}", FIG5, 1.30, Range(1.15, 1.45),
              lambda r, k=kernel: stream(r, B, k, 16) / stream(r, S, k, 16))
        for kernel in ("copy", "triad")
    ],
    Claim("fig5.interleaved_leads", FIG5,
          "interleaved >= single and bonding", Bound(">=", 0.0),
          lambda r: min(
              stream(r, I, kernel.label, threads)
              - stream(r, other, kernel.label, threads)
              for kernel in StreamKernel
              for threads in FIG5_THREADS
              for other in (S, B)
          )),
    # Fig. 6: back-end stall cycles 55.5 % local vs 80.9 % single.
    Claim("fig6.backend_stall.local", FIG6, 0.555, Approx(abs=0.03),
          lambda r: voltdb(r, L, "A", 32)["backend_stall"]),
    Claim("fig6.backend_stall.single", FIG6, 0.809, Approx(abs=0.03),
          lambda r: voltdb(r, S, "A", 32)["backend_stall"]),
    Claim("fig6.local_ipc_scales", FIG6,
          "local IPC non-decreasing in partitions", Bound(">=", 0.0),
          lambda r: min(
              voltdb(r, L, workload, high)["package_ipc"]
              - voltdb(r, L, workload, low)["package_ipc"]
              for workload in FIG6_WORKLOADS
              for low, high in zip(FIG6_PARTITIONS, FIG6_PARTITIONS[1:])
          )),
    Claim("fig6.mixed_gains_more", FIG6,
          "IPC gain 4->64 partitions: A > E", Bound(">", 0.0),
          lambda r: fig6_ipc_gain(r, "A") - fig6_ipc_gain(r, "E")),
    Claim("fig6.disaggregated_ucc_higher", FIG6,
          "stalled threads do not yield: UCC single >= local",
          Bound(">=", 0.99),
          lambda r: min(
              voltdb(r, S, workload, count)["ucc"]
              / voltdb(r, L, workload, count)["ucc"]
              for workload in FIG6_WORKLOADS
              for count in (16, 32, 64)
          )),
    Claim("fig6.disaggregated_ipc_lower_at_4", FIG6,
          "IPC single <= local at 4 partitions", Bound("<=", 0.0),
          lambda r: max(
              voltdb(r, S, workload, 4)["package_ipc"]
              - voltdb(r, L, workload, 4)["package_ipc"]
              for workload in FIG6_WORKLOADS
          )),
    # Fig. 7: "the local configuration exhibits the best performance";
    # workload A at 32 partitions loses the paper's share vs local.
    Claim("fig7.local_best", FIG7, "local beats every configuration",
          Bound("<=", 0.0),
          lambda r: max(ycsb(r, kind, "A", 32) for kind in CONFIGS)
          - ycsb(r, L, "A", 32)),
    *[
        Claim(f"fig7.a32_loss.{kind}", FIG7, paper, Approx(abs=0.04),
              lambda r, k=kind: fig7_a32_loss(r, k))
        for kind, paper in ((SO, 0.0595), (I, 0.0562), (S, 0.0797),
                            (B, 0.1003))
    ],
    *[
        Claim(f"fig7.a4_trails_local.{kind}", FIG7,
              "ThymesisFlow trails badly at 4 partitions", Bound("<", 0.75),
              lambda r, k=kind: ycsb(r, k, "A", 4) / ycsb(r, L, "A", 4))
        for kind in (S, B)
    ],
    # Workload E: "throughput is similar for all configurations"; the
    # spread tightens once executors stop binding at 32 partitions.
    Claim("fig7.e_spread.4", FIG7, "similar for all configurations",
          Bound("<", 1.20), lambda r: fig7_e_spread(r, 4)),
    Claim("fig7.e_spread.32", FIG7, "similar for all configurations",
          Bound("<", 1.10), lambda r: fig7_e_spread(r, 32)),
    # Fig. 8 (µs): mean GET latency per configuration.
    *[
        Claim(f"fig8.mean.{kind}", FIG8, FIG8_PAPER_MEAN_US[kind],
              Approx(rel=0.03),
              lambda r, k=kind: fig8_mean(r, k))
        for kind in FIG8_ORDER
    ],
    Claim("fig8.mean_order", FIG8, " < ".join(FIG8_ORDER), Bound(">=", 0.0),
          lambda r: min(
              fig8_mean(r, slower) - fig8_mean(r, faster)
              for faster, slower in zip(FIG8_ORDER, FIG8_ORDER[1:])
          )),
    # "ThymesisFlow configurations within ~7% of local on average".
    *[
        Claim(f"fig8.overhead_vs_local.{kind}", FIG8,
              FIG8_PAPER_MEAN_US[kind] / FIG8_PAPER_MEAN_US[L] - 1,
              Bound("<=", 0.09),
              lambda r, k=kind: fig8_mean(r, k) / fig8_mean(r, L) - 1)
        for kind in (I, S, B)
    ],
    # Scale-out pays the Twemproxy hop: ~2x at p90, the heaviest tail.
    Claim("fig8.scale_out_p90_degradation", FIG8, 1.0, Range(0.8, 1.2),
          lambda r: r["fig8"][SO]["p90_degradation"]),
    Claim("fig8.scale_out_heaviest_tail", FIG8,
          "scale-out has the largest p90 degradation", Bound("<=", 0.0),
          lambda r: max(r["fig8"][kind]["p90_degradation"]
                        for kind in FIG8_ORDER)
          - r["fig8"][SO]["p90_degradation"]),
    Claim("fig8.etc_hit_ratio", "§VI-E", 0.81, Range(0.78, 0.84),
          lambda r: r["fig8"]["hit_ratio"]),
    # Fig. 9, RTQ: scale-out wins outright, including over local; the
    # ThymesisFlow trio trails far behind and single is the worst.
    Claim("fig9.rtq.scale_out_best", FIG9,
          "scale-out beats every configuration", Bound("<=", 0.0),
          lambda r: max(
              esrally(r, "RTQ", shards, kind) - esrally(r, "RTQ", shards, SO)
              for shards in FIG9_SHARDS
              for kind in CONFIGS
          )),
    *[
        Claim(f"fig9.rtq.scale_out_vs_local.{shards}", FIG9,
              "scale-out well ahead of local", Bound(">", 1.3),
              lambda r, s=shards: esrally(r, "RTQ", s, SO)
              / esrally(r, "RTQ", s, L))
        for shards in FIG9_SHARDS
    ],
    Claim("fig9.rtq.single_worst", FIG9,
          "single is the slowest configuration", Bound(">=", 0.0),
          lambda r: min(
              esrally(r, "RTQ", shards, kind) - esrally(r, "RTQ", shards, S)
              for shards in FIG9_SHARDS
              for kind in CONFIGS
          )),
    *[
        Claim(f"fig9.rtq.single_vs_scale_out.{shards}", FIG9,
              "single far behind scale-out", Bound("<", 0.5),
              lambda r, s=shards: esrally(r, "RTQ", s, S)
              / esrally(r, "RTQ", s, SO))
        for shards in FIG9_SHARDS
    ],
    # Sync-heavy challenges: scale-out beats the trio by 17.95 % /
    # 41.26 % / 60.61 % on average (interleaved / bonding / single).
    Claim("fig9.sync_gap_order", FIG9, "interleaved < bonding < single",
          Bound(">", 0.0),
          lambda r: min(fig9_sync_gap(r, B) - fig9_sync_gap(r, I),
                        fig9_sync_gap(r, S) - fig9_sync_gap(r, B))),
    Claim("fig9.sync_gap.interleaved", FIG9, 0.1795, Range(0.05, 0.35),
          lambda r: fig9_sync_gap(r, I)),
    Claim("fig9.sync_gap.single", FIG9, 0.6061, Range(0.20, 0.60),
          lambda r: fig9_sync_gap(r, S)),
    Claim("fig9.shard_scaling_degrades", FIG9,
          "5 -> 32 shards slows RNQIHBS and RSTQ", Bound("<", 0.0),
          lambda r: max(
              esrally(r, challenge, 32, L) - esrally(r, challenge, 5, L)
              for challenge in ("RNQIHBS", "RSTQ")
          )),
    Claim("fig9.ma_converges", FIG9, "every configuration converges",
          Bound("<", 1.25),
          lambda r: max(esrally(r, "MA", 5, kind) for kind in CONFIGS)
          / min(esrally(r, "MA", 5, kind) for kind in CONFIGS)),
    # LLC frame size: every size works; tiny frames pay per-frame
    # header overhead and cannot beat the default.
    Claim("ablation.frame_size.goodput", LLC, "every frame size works",
          Bound(">", 0.5e9), lambda r: min(r["ablation_frame_size"].values())),
    Claim("ablation.frame_size.small_frames", LLC,
          "5 flits no faster than 16", Bound("<=", 1.05),
          lambda r: goodput_ratio(r, "ablation_frame_size", "5", "16")),
    # Rx credit depth: starved credits throttle the pipeline, and "the
    # depth of the Rx ingress queues has been carefully calculated to
    # avoid credits starvation" — the default (256) is not the limit.
    Claim("ablation.credit_depth.starved", LLC, "4 slots slower than 32",
          Bound("<", 1.0),
          lambda r: goodput_ratio(r, "ablation_credit_depth", "4", "32")),
    Claim("ablation.credit_depth.saturates", LLC, "32 slots near 256",
          Bound("<=", 1.2),
          lambda r: goodput_ratio(r, "ablation_credit_depth", "32", "256")),
    Claim("ablation.credit_depth.default_best", LLC,
          "256 slots is the fastest depth", Bound("<=", 0.0),
          lambda r: max(r["ablation_credit_depth"].values())
          - r["ablation_credit_depth"]["256"]),
    # Link loss: replay costs real time, but goodput recovers.
    Claim("ablation.loss.clean_no_replays", LLC, 0, Approx(abs=0),
          lambda r: loss_run(r, "0.0")["replays"]),
    Claim("ablation.loss.lossy_replays", LLC, "5 % drops trigger replays",
          Bound(">", 0), lambda r: loss_run(r, "0.05")["replays"]),
    Claim("ablation.loss.goodput_cost", LLC, "replay costs goodput",
          Bound("<", 1.0),
          lambda r: loss_run(r, "0.05")["goodput"]
          / loss_run(r, "0.0")["goodput"]),
    Claim("ablation.loss.recovers", LLC, "goodput recovers", Bound(">", 0.2),
          lambda r: loss_run(r, "0.05")["goodput"]
          / loss_run(r, "0.0")["goodput"]),
    # Two channels help once one saturates, but never reach 2x — the
    # same reason STREAM gains ~30 % rather than 2x.
    Claim("ablation.bonding.gain", BONDING, 1.30, Range(1.1, 2.0),
          lambda r: goodput_ratio(r, "ablation_bonding", "bonded", "single")),
    # §IV-A3 weighted channel sharing: 1:1 balances, 3:1 skews ~3x.
    Claim("ablation.qos.even_split", BONDING, "1:1 balances the channels",
          Bound("<=", 0.1),
          lambda r: abs(r["ablation_qos"]["1:1"][0]
                        - r["ablation_qos"]["1:1"][1])
          / r["ablation_qos"]["1:1"][0]),
    Claim("ablation.qos.weighted_split", BONDING, 3.0, Range(2.5, 3.5),
          lambda r: r["ablation_qos"]["3:1"][0] / r["ablation_qos"]["3:1"][1]),
    # §VII HBM layer: 3 of 4 passes over a hot 2 KiB set hit in HBM.
    Claim("ablation.hbm.hit_ratio", FUTURE, 0.75, Bound(">=", 0.70),
          lambda r: r["ablation_hbm"]["hit_ratio"]),
    Claim("ablation.hbm.median_ns", FUTURE, "HBM latency, not ~1030 ns",
          Bound("<", 200), lambda r: r["ablation_hbm"]["p50_ns"]),
    Claim("ablation.hbm.mean_ns", FUTURE, "mostly HBM hits", Bound("<", 500),
          lambda r: r["ablation_hbm"]["mean_ns"]),
    # §VII SoC integration saves four host-link serdes crossings.
    Claim("ablation.soc.saved_rtt_ns", FUTURE,
          (rtt_budget_s() - integrated_rtt_budget_s()) * 1e9,
          Approx(abs=30),
          lambda r: r["ablation_integrated_soc"]["fpga"]
          - r["ablation_integrated_soc"]["soc"]),
    # §VII circuit vs packet fabric: circuits are faster per frame,
    # packets need no setup.
    Claim("ablation.fabric.circuit_faster", FUTURE,
          "circuit beats packet per frame", Bound("<", 1.0),
          lambda r: r["ablation_fabric"]["circuit_latency_s"]
          / r["ablation_fabric"]["packet_latency_s"]),
    Claim("ablation.fabric.packet_setup", FUTURE, 0.0, Approx(abs=0),
          lambda r: r["ablation_fabric"]["packet_setup_s"]),
    Claim("ablation.fabric.circuit_setup", FUTURE,
          "circuits reconfigure before use", Bound(">", 0.0),
          lambda r: r["ablation_fabric"]["circuit_setup_s"]),
    # §VII packet fabric: converging flows complete despite any
    # congestion drops (LLC replay).
    Claim("ablation.packet_fanin.completes", FUTURE,
          "frames forwarded under fan-in", Bound(">", 0),
          lambda r: r["ablation_packet_fanin"]["forwarded"]),
    # NUMA balancing migrates exactly the hot half of the pages, so the
    # mean access latency falls by ~45-50 %.
    Claim("ablation.numa.migrated_pages", NUMA, NUMA_PAGES // 2,
          Approx(abs=0),
          lambda r: r["ablation_numa"]["migrated"]),
    Claim("ablation.numa.latency_drop", NUMA, "about half the latency",
          Bound("<", 0.65),
          lambda r: r["ablation_numa"]["after_ns"]
          / r["ablation_numa"]["before_ns"]),
]


def test_claim_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_paper_claim(claim, results):
    measured = claim.measure(results)
    assert claim.tolerance.ok(measured, claim.paper), (
        f"{claim.id} ({claim.source}): measured {measured!r}, "
        f"paper {claim.paper!r}, tolerance {claim.tolerance}"
    )
