"""Programmatic regeneration of every paper figure.

This module is the only code that computes a figure's numbers. Each
``fig*`` function returns ``(title, headers, rows)`` — the series the
corresponding figure plots, as display text — and :func:`figure_numbers`
returns the same figure's raw numbers, which the paper-claims table in
``tests/`` checks. Used by the ``python -m repro`` command line.

Internally every figure is described twice over the same code:

* a **plan** (``FIGURE_PLANS[name]``) — title, headers, one formatter
  and an ordered list of independent *slice* calls
  ``(slice_name, kwargs)``;
* the **slices** (``SLICES[slice_name]``) — pure functions computing
  one slice's numbers (a JSON object) from JSON-serializable kwargs.

The formatter turns one slice's numbers into that slice's display rows.
The public ``fig*`` functions run their plan serially. ``repro.sweep``
executes the very same slice calls, each served from its result cache
when it can be, and formats the results in plan order, which is what
makes cached figure regeneration byte-identical to these serial
functions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from .apps import ElasticsearchModel, MemcachedLatencyModel, VoltDbModel
from .cluster import run_fig1_experiment, scaled_trace_config
from .mem import GIB, MIB
from .testbed import MemoryConfigKind, Testbed, make_environment
from .testbed.calibration import rtt_budget_s
from .workloads import Challenge, StreamKernel, StreamModel

FigureTable = Tuple[str, List[str], List[List[str]]]

#: One slice's numbers: a JSON object.
Numbers = Dict[str, Any]

#: One slice call: (name in ``SLICES``, JSON-serializable kwargs).
SliceCall = Tuple[str, Dict[str, Any]]


class FigurePlan(NamedTuple):
    """One figure's declarative decomposition."""

    title: str
    headers: List[str]
    #: ``formatter(numbers, **slice_kwargs)`` -> that slice's rows.
    formatter: Callable[..., List[List[str]]]
    calls: List[SliceCall]


#: Registry of slice functions, each returning its numbers.
SLICES: Dict[str, Callable[..., Numbers]] = {}


def _slice(name: str):
    def register(fn):
        SLICES[name] = fn
        return fn

    return register


def tabulate(plan: FigurePlan, values: Sequence[Numbers]) -> FigureTable:
    """Format each slice's numbers, in plan order, as one table."""
    rows: List[List[str]] = []
    for (_, kwargs), value in zip(plan.calls, values):
        rows.extend(plan.formatter(value, **kwargs))
    return plan.title, plan.headers, rows


def _run(plan: FigurePlan) -> List[Numbers]:
    """Run a plan's slices serially, in order — the reference output."""
    return [SLICES[name](**kwargs) for name, kwargs in plan.calls]


def _materialize(plan: FigurePlan) -> FigureTable:
    return tabulate(plan, _run(plan))


def figure_numbers(name: str, **kwargs: Any) -> Numbers:
    """One figure's numbers: its slices' objects merged in plan order."""
    merged: Numbers = {}
    for value in _run(FIGURE_PLANS[name](**kwargs)):
        merged.update(value)
    return merged


_ALL_CONFIGS = (
    MemoryConfigKind.LOCAL,
    MemoryConfigKind.SCALE_OUT,
    MemoryConfigKind.INTERLEAVED,
    MemoryConfigKind.SINGLE_DISAGGREGATED,
    MemoryConfigKind.BONDING_DISAGGREGATED,
)


# --------------------------------------------------------------------------- #
# Fig. 1                                                                      #
# --------------------------------------------------------------------------- #


@_slice("fig1.replay")
def _fig1_replay(units: int) -> Numbers:
    reports = run_fig1_experiment(scaled_trace_config(units=units),
                                  units=units)
    result: Numbers = {"units": units}
    for name, report in reports.items():
        result[name] = {
            "cpu_fragmentation_pct": report.cpu_fragmentation_pct,
            "memory_fragmentation_pct": report.memory_fragmentation_pct,
            "compute_off_pct": report.compute_off_pct,
            "memory_off_pct": report.memory_off_pct,
        }
    return result


#: Paper values (fixed, disaggregated), 12 555 units (§II, Fig. 1).
FIG1_PAPER = {
    "cpu_fragmentation_pct": (16.0, 3.86),
    "memory_fragmentation_pct": (29.5, 9.2),
    "compute_off_pct": (1.0, 8.0),
    "memory_off_pct": (1.0, 27.0),
}


def _fig1_rows(numbers: Numbers, units: int) -> List[List[str]]:
    fixed, disagg = numbers["fixed"], numbers["disaggregated"]
    return [
        [label, f"{fixed[key]:.2f}", f"{disagg[key]:.2f}",
         " / ".join(str(value) for value in FIG1_PAPER[key])]
        for label, key in (
            ("fragmentation CPU %", "cpu_fragmentation_pct"),
            ("fragmentation MEM %", "memory_fragmentation_pct"),
            ("off compute %", "compute_off_pct"),
            ("off memory %", "memory_off_pct"),
        )
    ]


def plan_fig1(units: int = 400) -> FigurePlan:
    return FigurePlan(
        f"Fig. 1 — datacentre utilization ({units} units)",
        ["metric", "fixed", "disaggregated", "paper (fixed/disagg)"],
        _fig1_rows,
        [("fig1.replay", {"units": units})],
    )


def fig1(units: int = 400) -> FigureTable:
    """Fig. 1 — fixed vs disaggregated datacentre utilization."""
    return _materialize(plan_fig1(units=units))


# --------------------------------------------------------------------------- #
# §V RTT                                                                      #
# --------------------------------------------------------------------------- #


@_slice("rtt.loads")
def _rtt_loads(samples: int) -> Numbers:
    testbed = Testbed()
    attachment = testbed.attach("node0", 2 * MIB, memory_host="node1")
    window = testbed.remote_window_range(attachment)
    # Sequential single loads, so each one sees an unloaded path.
    for index in range(samples):
        testbed.node0.run_load(window.start + index * 128)
    recorder = testbed.node0.device.compute.rtt
    return {
        "budget_ns": rtt_budget_s() * 1e9,
        "mean_ns": recorder.mean * 1e9,
        "p99_ns": recorder.percentile(99) * 1e9,
    }


def _rtt_rows(numbers: Numbers, samples: int) -> List[List[str]]:
    return [
        ["static budget (4xFPGA + 6xserdes + cables)",
         f"{numbers['budget_ns']:.0f} ns", "~950 ns"],
        ["measured mean (incl. donor DRAM)",
         f"{numbers['mean_ns']:.0f} ns", "~950 ns + memory"],
    ]


def plan_rtt(samples: int = 32) -> FigurePlan:
    return FigurePlan(
        "§V — remote access RTT",
        ["quantity", "value", "paper"],
        _rtt_rows,
        [("rtt.loads", {"samples": samples})],
    )


def rtt(samples: int = 32) -> FigureTable:
    """§V — the ~950 ns datapath RTT, static budget and live measurement."""
    return _materialize(plan_rtt(samples=samples))


# --------------------------------------------------------------------------- #
# Fig. 5                                                                      #
# --------------------------------------------------------------------------- #

_FIG5_CONFIGS = (
    MemoryConfigKind.BONDING_DISAGGREGATED,
    MemoryConfigKind.SINGLE_DISAGGREGATED,
    MemoryConfigKind.INTERLEAVED,
)


@_slice("fig5.threads")
def _fig5_threads(count: int) -> Numbers:
    """GiB/s keyed ``config/kernel/threads``."""
    models = {
        kind: StreamModel(make_environment(kind)) for kind in _FIG5_CONFIGS
    }
    return {
        f"{kind.value}/{kernel.label}/{count}":
            models[kind].sustained_bandwidth(kernel, count) / GIB
        for kernel in StreamKernel
        for kind in _FIG5_CONFIGS
    }


def _fig5_rows(numbers: Numbers, count: int) -> List[List[str]]:
    return [
        [str(count), kernel.label]
        + [
            f"{numbers[f'{kind.value}/{kernel.label}/{count}']:.2f}"
            for kind in _FIG5_CONFIGS
        ]
        for kernel in StreamKernel
    ]


def plan_fig5(threads: Sequence[int] = (4, 8, 16)) -> FigurePlan:
    return FigurePlan(
        "Fig. 5 — STREAM GiB/s (single-channel theoretical max 12.5)",
        ["threads", "kernel", "bonding", "single", "interleaved"],
        _fig5_rows,
        [("fig5.threads", {"count": int(count)}) for count in threads],
    )


def fig5(threads: Sequence[int] = (4, 8, 16)) -> FigureTable:
    """Fig. 5 — STREAM sustained bandwidth."""
    return _materialize(plan_fig5(threads=threads))


# --------------------------------------------------------------------------- #
# Fig. 6                                                                      #
# --------------------------------------------------------------------------- #

_FIG6_CONFIGS = (
    MemoryConfigKind.LOCAL,
    MemoryConfigKind.SINGLE_DISAGGREGATED,
)


@_slice("fig6.workload")
def _fig6_workload(workload: str, partitions: Sequence[int]) -> Numbers:
    """perf-derived VoltDB metrics keyed ``config/workload/partitions``."""
    environments = {kind: make_environment(kind) for kind in _FIG6_CONFIGS}
    result: Numbers = {}
    for kind in _FIG6_CONFIGS:
        for count in partitions:
            metric = VoltDbModel(environments[kind], count).evaluate(workload)
            result[f"{kind.value}/{workload}/{count}"] = {
                "package_ipc": metric.package_ipc,
                "ucc": metric.utilized_cores,
                "backend_stall": metric.backend_stall_fraction,
            }
    return result


def _fig6_rows(numbers: Numbers, workload: str,
               partitions: Sequence[int]) -> List[List[str]]:
    rows = []
    for count in partitions:
        local = numbers[f"local/{workload}/{count}"]
        single = numbers[f"single-disaggregated/{workload}/{count}"]
        rows.append(
            [
                workload,
                str(count),
                f"{local['package_ipc']:.2f}",
                f"{local['ucc']:.1f}",
                f"{single['package_ipc']:.2f}",
                f"{single['ucc']:.1f}",
            ]
        )
    return rows


def plan_fig6(partitions: Sequence[int] = (4, 16, 32, 64)) -> FigurePlan:
    return FigurePlan(
        "Fig. 6 — VoltDB IPC/UCC (stalls: 55.5% local vs 80.9% single)",
        ["wl", "parts", "IPC loc", "UCC loc", "IPC sgl", "UCC sgl"],
        _fig6_rows,
        [
            ("fig6.workload",
             {"workload": workload, "partitions": [int(p) for p in partitions]})
            for workload in "ABCDEF"
        ],
    )


def fig6(partitions: Sequence[int] = (4, 16, 32, 64)) -> FigureTable:
    """Fig. 6 — VoltDB package IPC / utilized cores."""
    return _materialize(plan_fig6(partitions=partitions))


# --------------------------------------------------------------------------- #
# Fig. 7                                                                      #
# --------------------------------------------------------------------------- #


@_slice("fig7.case")
def _fig7_case(workload: str, partitions: int) -> Numbers:
    """YCSB ops/s keyed ``config/workload/partitions``."""
    return {
        f"{kind.value}/{workload}/{partitions}": VoltDbModel(
            make_environment(kind), partitions
        ).evaluate(workload).throughput_ops
        for kind in _ALL_CONFIGS
    }


def _fig7_rows(numbers: Numbers, workload: str,
               partitions: int) -> List[List[str]]:
    base = numbers[f"local/{workload}/{partitions}"]
    rows = []
    for kind in _ALL_CONFIGS:
        ops = numbers[f"{kind.value}/{workload}/{partitions}"]
        rows.append(
            [
                workload,
                str(partitions),
                kind.value,
                f"{ops / 1e3:.1f}K",
                f"{100 * (ops / base - 1):+.2f}%",
            ]
        )
    return rows


def plan_fig7(partitions: Sequence[int] = (4, 32)) -> FigurePlan:
    return FigurePlan(
        "Fig. 7 — YCSB A/E throughput",
        ["wl", "parts", "config", "ops/s", "vs local"],
        _fig7_rows,
        [
            ("fig7.case", {"workload": workload, "partitions": int(count)})
            for workload in "AE"
            for count in partitions
        ],
    )


def fig7(partitions: Sequence[int] = (4, 32)) -> FigureTable:
    """Fig. 7 — YCSB A/E throughput across all five configurations."""
    return _materialize(plan_fig7(partitions=partitions))


# --------------------------------------------------------------------------- #
# Fig. 8                                                                      #
# --------------------------------------------------------------------------- #

_FIG8_ORDER = (
    MemoryConfigKind.LOCAL,
    MemoryConfigKind.INTERLEAVED,
    MemoryConfigKind.SINGLE_DISAGGREGATED,
    MemoryConfigKind.BONDING_DISAGGREGATED,
    MemoryConfigKind.SCALE_OUT,
)

#: Mean GET latency per configuration, µs (§VI-E).
FIG8_PAPER_MEAN_US = {
    "local": 600, "interleaved": 614, "single-disaggregated": 635,
    "bonding-disaggregated": 650, "scale-out": 713,
}


@_slice("fig8.config")
def _fig8_config(kind: str, samples: int) -> Numbers:
    """GET-latency distribution summary for one configuration."""
    # Each configuration draws from its own derived RNG substream, so
    # per-config slices reproduce the serial draws exactly.
    recorder = MemcachedLatencyModel(
        make_environment(MemoryConfigKind(kind))
    ).record(samples)
    return {
        kind: {
            "mean_us": recorder.mean * 1e6,
            "p50_us": recorder.percentile(50) * 1e6,
            "p90_us": recorder.percentile(90) * 1e6,
            "p99_us": recorder.percentile(99) * 1e6,
            "p90_degradation": recorder.degradation_at(90),
            "cdf_decile_us": [
                recorder.percentile(q) * 1e6 for q in range(10, 100, 10)
            ],
        }
    }


def _fig8_rows(numbers: Numbers, kind: str, samples: int) -> List[List[str]]:
    stats = numbers[kind]
    return [
        [
            kind,
            f"{stats['mean_us']:.0f}",
            f"{stats['p90_us']:.0f}",
            f"{100 * stats['p90_degradation']:.0f}%",
            str(FIG8_PAPER_MEAN_US[kind]),
        ]
    ]


def plan_fig8(samples: int = 30_000) -> FigurePlan:
    return FigurePlan(
        "Fig. 8 — Memcached GET latency (µs)",
        ["config", "mean", "p90", "p90 degr.", "paper mean"],
        _fig8_rows,
        [
            ("fig8.config", {"kind": kind.value, "samples": int(samples)})
            for kind in _FIG8_ORDER
        ],
    )


def fig8(samples: int = 30_000) -> FigureTable:
    """Fig. 8 — Memcached GET latency distribution summary."""
    return _materialize(plan_fig8(samples=samples))


# --------------------------------------------------------------------------- #
# Fig. 9                                                                      #
# --------------------------------------------------------------------------- #


@_slice("fig9.case")
def _fig9_case(challenge: str, shards: int) -> Numbers:
    """Nested-track ops/s keyed ``challenge/shards/config``."""
    track = Challenge[challenge]
    return {
        f"{challenge}/{shards}/{kind.value}": ElasticsearchModel(
            make_environment(kind), shards
        ).throughput_qps(track)
        for kind in _ALL_CONFIGS
    }


def _fig9_rows(numbers: Numbers, challenge: str,
               shards: int) -> List[List[str]]:
    so = numbers[f"{challenge}/{shards}/scale-out"]
    rows = []
    for kind in _ALL_CONFIGS:
        qps = numbers[f"{challenge}/{shards}/{kind.value}"]
        rows.append(
            [
                challenge,
                str(shards),
                kind.value,
                f"{qps:.1f}",
                f"{100 * (qps / so - 1):+.1f}%",
            ]
        )
    return rows


def plan_fig9(shards: Sequence[int] = (5, 32)) -> FigurePlan:
    return FigurePlan(
        "Fig. 9 — ESRally nested track (ops/s)",
        ["challenge", "shards", "config", "ops/s", "vs scale-out"],
        _fig9_rows,
        [
            ("fig9.case", {"challenge": challenge.name, "shards": int(count)})
            for challenge in Challenge
            for count in shards
        ],
    )


def fig9(shards: Sequence[int] = (5, 32)) -> FigureTable:
    """Fig. 9 — Elasticsearch nested-track throughput."""
    return _materialize(plan_fig9(shards=shards))


# --------------------------------------------------------------------------- #
# Registries                                                                  #
# --------------------------------------------------------------------------- #


FIGURES = {
    "fig1": fig1,
    "rtt": rtt,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
}

FIGURE_PLANS: Dict[str, Callable[..., FigurePlan]] = {
    "fig1": plan_fig1,
    "rtt": plan_rtt,
    "fig5": plan_fig5,
    "fig6": plan_fig6,
    "fig7": plan_fig7,
    "fig8": plan_fig8,
    "fig9": plan_fig9,
}


def render(table: FigureTable) -> str:
    """Format one figure table as aligned text."""
    title, headers, rows = table
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    lines = [f"== {title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)
