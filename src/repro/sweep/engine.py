"""Sweep execution: a result cache in front of in-process runs.

:class:`SweepEngine` takes a list of :class:`~repro.sweep.RunSpec` and
returns one :class:`SweepOutcome` per spec, in order. Every spec is
first looked up in the content-addressed
:class:`~repro.sweep.ResultCache`; hits return without computing, and
misses run one after another in this process, then are written to the
cache. Each run records ``sweep.runs`` and ``sweep.busy_s`` (labeled by
target) in the engine's :class:`~repro.obs.MetricsRegistry`.

Before anything runs or is cached, every spec's kwargs are bound to its
target's signature (:func:`check_spec`), so a bad grid fails whole.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..figures import FIGURES, SLICES
from ..obs import MetricsRegistry
from .cache import ResultCache
from .spec import RunSpec

__all__ = ["SweepEngine", "SweepOutcome", "check_spec", "resolve_target"]

#: Target namespace -> the table its names index.
_TARGETS = {"slice": SLICES, "figure": FIGURES}


def resolve_target(name: str) -> Callable[..., Any]:
    """Map a ``slice:<name>`` or ``figure:<name>`` target to its callable.

    An unknown target raises :class:`KeyError` naming every known one.
    """
    kind, _, key = name.partition(":")
    if key not in _TARGETS.get(kind, {}):
        known = ", ".join(
            f"{prefix}:{entry}"
            for prefix, table in _TARGETS.items() for entry in table
        )
        raise KeyError(f"unknown target {name!r} (known: {known})")
    return _TARGETS[kind][key]


def check_spec(spec: RunSpec) -> None:
    """Bind ``spec``'s kwargs to its target's signature.

    Raises :class:`KeyError` for an unknown target and :class:`TypeError`,
    naming the target's parameters, for kwargs it cannot take.
    """
    signature = inspect.signature(resolve_target(spec.target))
    try:
        signature.bind(**spec.kwargs)
    except TypeError as error:
        raise TypeError(
            f"{spec.target} takes ({', '.join(signature.parameters)}): "
            f"{error}"
        ) from None


@dataclass
class SweepOutcome:
    """One spec's result: the value plus execution provenance."""

    spec: RunSpec
    value: Any
    cached: bool
    elapsed_s: float


class SweepEngine:
    """Cache-fronted, in-process executor for RunSpecs."""

    def __init__(
        self,
        cache: bool = True,
        cache_dir: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache else None
        )
        self.registry = registry or MetricsRegistry("sweep")
        self.specs_seen = 0
        self.cache_hits = 0
        self.executed = 0
        self.wall_s = 0.0

    # -- execution -------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[SweepOutcome]:
        """Execute every spec (cache first, then in process); in order."""
        for spec in specs:
            check_spec(spec)
        started = time.perf_counter()
        outcomes: List[SweepOutcome] = []
        for spec in specs:
            envelope = (
                self.cache.get(spec) if self.cache is not None else None
            )
            if envelope is not None:
                outcomes.append(SweepOutcome(
                    spec=spec,
                    value=envelope["result"],
                    cached=True,
                    elapsed_s=float(envelope.get("elapsed_s", 0.0)),
                ))
                continue
            run_started = time.perf_counter()
            value = resolve_target(spec.target)(**spec.kwargs)
            elapsed = time.perf_counter() - run_started
            outcomes.append(SweepOutcome(
                spec=spec, value=value, cached=False, elapsed_s=elapsed,
            ))
            self.registry.gauge("sweep.runs", target=spec.target).adjust(1)
            self.registry.gauge(
                "sweep.busy_s", target=spec.target
            ).adjust(elapsed)
            if self.cache is not None:
                self.cache.put(spec, value, elapsed)

        wall = time.perf_counter() - started
        hits = sum(outcome.cached for outcome in outcomes)
        self.specs_seen += len(specs)
        self.cache_hits += hits
        self.executed += len(specs) - hits
        self.wall_s += wall
        self.registry.gauge("sweep.specs").adjust(len(specs))
        self.registry.gauge("sweep.cache_hits").adjust(hits)
        self.registry.gauge("sweep.executed").adjust(len(specs) - hits)
        self.registry.gauge("sweep.wall_s").adjust(wall)
        return outcomes

    # -- reporting -------------------------------------------------------------
    def stats_line(self) -> str:
        cached = "off"
        if self.cache is not None:
            cached = f"{self.cache_hits} hits"
        return (
            f"sweep: {self.specs_seen} specs, {self.executed} executed, "
            f"cache {cached}, {self.wall_s:.2f}s wall"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SweepEngine(cache={'on' if self.cache else 'off'}, "
            f"specs={self.specs_seen})"
        )
