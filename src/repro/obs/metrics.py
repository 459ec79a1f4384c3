"""Hierarchical metrics registry: counters, gauges, histograms, labels.

Naming scheme (see ``docs/observability.md``): metric names are dotted
hierarchies rooted at the owning component (``llc.replays_requested``,
``dram.banks_in_use``, ``net.faults.frames_dropped``); **labels**
identify the instance (``node=node0``, ``endpoint=tf.llc0``). The
qualified form rendered in snapshots is ``name{k=v,...}`` with labels
sorted by key.

Two usage styles:

* **Push** — new instrumentation creates a metric once and updates it
  inline (``registry.counter("x").inc()``).
* **Pull (collectors)** — existing components keep their cheap private
  counters on the hot path and register a *collector* callback that
  copies them into registry gauges at snapshot time. This is how the
  scattered per-component counters (LLC replay counts, fault-injector
  drops, link byte counts, RMMU translations...) surface through one
  audited path with zero steady-state overhead.

Stdlib-only on purpose: the simulation kernel hooks into ``repro.obs``
and must not import back into ``repro.sim``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "parse_qualified",
]

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def qualified_name(name: str, labels: LabelSet) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def parse_qualified(qualified: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`qualified_name`: ``name{k=v,...}`` -> (name, labels).

    Label values containing ``,`` or ``}`` are not representable in the
    qualified form and therefore not parseable back; the components
    (link names, config kinds, targets) never use them.
    """
    if qualified.endswith("}") and "{" in qualified:
        name, _, inner = qualified.partition("{")
        labels = dict(
            item.split("=", 1) for item in inner[:-1].split(",") if item
        )
        return name, labels
    return qualified, {}


class _Metric:
    __slots__ = ("name", "labels")

    kind = "metric"

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels

    @property
    def qualified(self) -> str:
        return qualified_name(self.name, self.labels)

    def sample(self) -> Dict[str, float]:
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet):
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {amount}")
        self.value += amount

    def sample(self) -> Dict[str, float]:
        return {self.qualified: self.value}


class Gauge(_Metric):
    """A value that can go up and down (or mirror a pulled counter)."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet):
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def adjust(self, delta: float) -> None:
        self.value += delta

    def sample(self) -> Dict[str, float]:
        return {self.qualified: self.value}


class HistogramMetric(_Metric):
    """Fixed-bin histogram over ``[low, high)`` with outlier bins.

    Snapshot exposes count / total / mean plus per-bucket cumulative
    counts (``_bucket_le`` keys, Prometheus-style).
    """

    __slots__ = ("low", "high", "bins", "counts", "underflow", "overflow",
                 "count", "total", "_width")

    kind = "histogram"

    def __init__(
        self, name: str, labels: LabelSet, low: float, high: float, bins: int
    ):
        if high <= low:
            raise ValueError(f"need high > low, got [{low}, {high})")
        if bins < 1:
            raise ValueError(f"need bins >= 1, got {bins}")
        super().__init__(name, labels)
        self.low = low
        self.high = high
        self.bins = bins
        self.counts = [0] * bins
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self._width = (high - low) / bins

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.low:
            self.underflow += 1
        elif value >= self.high:
            self.overflow += 1
        else:
            self.counts[int((value - self.low) / self._width)] += 1

    def quantile(self, q: float) -> float:
        """Estimate the q-th percentile (``q`` in [0, 100]).

        Linear interpolation within the bucket holding the rank, with
        every boundary case pinned to a defined value: an empty
        histogram returns 0.0; ranks landing in the underflow region
        return ``low``; ranks landing in the overflow region return
        ``high`` (the histogram genuinely does not know more than the
        bound the outlier crossed); a single-sample histogram
        interpolates inside that sample's bucket for every q, so
        p50/p99/p99.9 are all well-defined and lie within the bucket.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = (q / 100.0) * self.count
        if rank <= self.underflow:
            return self.low
        cumulative = self.underflow
        for index, bucket in enumerate(self.counts):
            if bucket and rank <= cumulative + bucket:
                left = self.low + index * self._width
                return left + (rank - cumulative) / bucket * self._width
            cumulative += bucket
        return self.high

    def sample(self) -> Dict[str, float]:
        base = self.qualified
        out = {
            f"{base}.count": self.count,
            f"{base}.total": self.total,
            f"{base}.mean": self.total / self.count if self.count else 0.0,
            f"{base}.p50": self.quantile(50.0),
            f"{base}.p99": self.quantile(99.0),
            f"{base}.p999": self.quantile(99.9),
        }
        cumulative = self.underflow
        for index, bucket in enumerate(self.counts):
            cumulative += bucket
            edge = self.low + (index + 1) * self._width
            out[f"{base}.bucket_le_{edge:g}"] = cumulative
        out[f"{base}.bucket_le_inf"] = cumulative + self.overflow
        return out


class MetricsRegistry:
    """Get-or-create registry keyed by ``(name, labelset)``.

    ``snapshot()`` first runs every registered collector (the pull
    side), then flattens all metrics into one ``{qualified: value}``
    dict — the exchange format for JSON export and summary rendering.
    """

    def __init__(self, name: str = "repro"):
        self.name = name
        self._metrics: Dict[Tuple[str, LabelSet], _Metric] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- get-or-create ---------------------------------------------------------
    def _get(self, cls, name: str, labels: Dict[str, Any], *args) -> _Metric:
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], *args)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {qualified_name(name, key[1])!r} already "
                f"registered as {metric.kind}, requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        low: float = 0.0,
        high: float = 1.0,
        bins: int = 20,
        **labels: Any,
    ) -> HistogramMetric:
        metric = self._get(HistogramMetric, name, labels, low, high, bins)
        return metric

    # -- pull side -------------------------------------------------------------
    def add_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Register a callback run at every snapshot (pull-model)."""
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector(self)

    def merge_flat(self, flat: Dict[str, Any], **extra_labels: Any) -> None:
        """Merge a flattened snapshot by summation.

        Each ``{qualified: value}`` series is parsed back into (name,
        labels) and accumulated into a gauge, so merging N snapshots
        sums each series across them. Summation is exact for
        counter-style series; derived series (means, percentiles)
        should not be merged this way.

        ``extra_labels`` are stamped onto every merged series (without
        overriding a label the series already carries) — the cluster
        replay folds each rack domain's registry into one parent this
        way, with ``domain="rack0"`` keeping the domains distinct.
        """
        for qualified, value in flat.items():
            name, labels = parse_qualified(qualified)
            for key, extra in extra_labels.items():
                labels.setdefault(key, extra)
            self.gauge(name, **labels).adjust(float(value))

    # -- output ----------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Collect, then flatten every metric into one sorted dict."""
        self.collect()
        flat: Dict[str, float] = {}
        for metric in self._metrics.values():
            flat.update(metric.sample())
        return dict(sorted(flat.items()))

    def value(self, name: str, **labels: Any) -> float:
        """Convenience: one metric's snapshot value (collects first)."""
        self.collect()
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            raise KeyError(qualified_name(name, _labelset(labels)))
        sample = metric.sample()
        return sample[metric.qualified] if metric.qualified in sample else sample

    def metrics(self) -> List[_Metric]:
        """Every registered metric object, in registration order.

        This is the typed view exporters use (e.g. the Prometheus
        text renderer, which needs kind and bucket structure rather
        than the flattened snapshot).
        """
        return list(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MetricsRegistry({self.name!r}, metrics={len(self._metrics)}, "
            f"collectors={len(self._collectors)})"
        )
