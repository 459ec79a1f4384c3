"""Summaries, the end-to-end metric table and the compare verdicts.

Stdlib only: ``compare`` and the self-tests must run without the
library on the path.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "ALL_WORKLOADS",
    "BENCHMARK_E2E",
    "Metric",
    "METRICS",
    "percentile",
    "summarize",
    "verdict",
]

ALL_WORKLOADS = ("stream", "pingpong", "lossy", "fig1_replay",
                 "cluster_replay", "control")


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric and its regression bound.

    The allowed worsening is ``max(rel * |baseline median|, floor)``;
    ``rel = floor = 0`` means any change in the worse direction counts.
    """

    name: str
    unit: str
    better: str  # "lower" or "higher"
    rel: float
    floor: float
    workloads: Tuple[str, ...]

    def allowed(self, baseline: float) -> float:
        return max(self.rel * abs(baseline), self.floor)


#: Every end-to-end metric, with the workloads it applies to.
METRICS: Dict[str, Metric] = {
    m.name: m
    for m in (
        # For control a unit is one arrival, timed from when it was due.
        Metric("wall_s", "s", "lower", 0.25, 0.0, ALL_WORKLOADS),
        # Set-ups of a few milliseconds sit in the host's noise: compare
        # also allows 20 ms (BENCHMARK.json holds the share only).
        Metric("setup_s", "s", "lower", 0.25, 0.02, ALL_WORKLOADS),
        Metric("peak_rss_mib", "MiB", "lower", 0.05, 0.0, ALL_WORKLOADS),
        Metric("error_rate", "fraction", "lower", 0.0, 0.0, ALL_WORKLOADS),
        # Simulated outcomes of input 0: any change is a model change.
        Metric("sim_bw_gib_s", "GiB/s", "higher", 0.0, 0.0,
               ("stream", "lossy")),
        Metric("sim_rtt_ns", "ns", "lower", 0.0, 0.0, ("pingpong",)),
        Metric("ctl_read_p50_ms", "ms", "lower", 0.25, 0.0, ("control",)),
        Metric("ctl_attach_p50_ms", "ms", "lower", 0.25, 0.0, ("control",)),
        # Refused arrivals count as +inf.
        Metric("ctl_p99_ms", "ms", "lower", 0.25, 0.0, ("control",)),
        Metric("ctl_refused_frac", "fraction", "lower", 0.0, 0.005,
               ("control",)),
    )
}


#: The end-to-end metrics every workload reports, and so the ones a
#: single measuring run prints for ``BENCHMARK.json`` (a self-test keeps
#: the two in step). ``error_rate`` is left out there because it is 0
#: on a healthy run; each result line carries it as ``failed /
#: attempted`` anyway.
BENCHMARK_E2E = ("wall_s", "setup_s", "peak_rss_mib")


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``pct`` percent of the samples at or below it.

    (``repro.control.loadgen.percentile`` rounds the rank half to even,
    so its p50 of 13 samples is the 6th smallest, not the median.)
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100]: {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, min, max, interquartile range and count of a sample."""
    values = list(values)
    if not values:
        raise ValueError("summary of no samples")
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "iqr": iqr,
        "n": len(values),
    }


def verdict(metric: Metric, base: Sequence[float],
            new: Sequence[float]) -> Tuple[str, Optional[float]]:
    """``improved``, ``unchanged``, ``worse`` or ``unresolved``.

    Returns the verdict and the change of the median in the worse
    direction (relative to the baseline median, or absolute when the
    baseline median is 0).

    * The spread of either side (its IQR) wider than the bound makes
      the pair unresolved, unless every new run reads better than every
      baseline run.
    * A median worse by more than the bound is worse.
    * A median better by more than the baseline's own spread, with every
      new run better than every baseline run, is improved.
    """
    a, b = summarize(base), summarize(new)
    sign = 1.0 if metric.better == "lower" else -1.0
    allowed = metric.allowed(a["median"])
    worse_by = sign * (b["median"] - a["median"])
    if sign > 0:
        separated = max(new) < min(base)
    else:
        separated = min(new) > max(base)
    scale = abs(a["median"])
    change = worse_by / scale if scale else worse_by
    if max(a["iqr"], b["iqr"]) > allowed:
        return ("improved" if separated else "unresolved"), change
    if worse_by > allowed:
        return "worse", change
    if -worse_by > a["iqr"] and separated:
        return "improved", change
    return "unchanged", change
