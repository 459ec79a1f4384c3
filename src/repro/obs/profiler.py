"""Sampling profiler for the discrete-event kernel.

Answers *which component is the simulation spending its host time in*
(who is expensive to execute: link pump, DRAM bank service, LLC,
RMMU). The kernel's dispatch loop samples every ``stride``-th event:
the profiler stamps the host clock when that event is dispatched and
closes the measurement when the next event is, so it times the sampled
event's own dispatch and charges it, scaled by the stride, to the
component that owned the event, classified into a coarse phase by its
name. A measurement still open when the dispatch loop exits is
discarded.

Sampling keeps overhead bounded and stride-proportional: between
samples the only per-event cost in the hot loop is one local integer
decrement, and when profiling is disabled it is a single local
truthiness check. The output is statistical — with the default stride
of 1024 a STREAM run yields hundreds of samples, plenty to rank
components — and is emitted in two forms: a flame-graph-compatible
folded-stacks file (``sim;phase;component count``, feed straight to
``flamegraph.pl`` or speedscope) and a top-N table in a
:class:`~repro.obs.summary.RunSummary`.

Same guard-flag pattern as ``trace``/``events``, switched on by
:func:`repro.obs.session`; stdlib-only.
"""

from __future__ import annotations

import time as _time
from typing import Any, Dict, List, Optional, Tuple

from .summary import RunSummary

__all__ = [
    "PHASES",
    "classify_phase",
    "SimProfiler",
]

#: Coarse datapath phases, matched against component names in order.
#: First substring hit wins; unmatched components land in "other".
PHASES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("link", ("link", "pump", "serdes", "flit")),
    ("dram", ("dram", "bank", "mem")),
    ("llc", ("llc", "cache")),
    ("rmmu", ("rmmu", "mmu", "translat")),
    ("bus", ("bus", "noc", "switch", "fabric")),
    ("endpoint", ("endpoint", "compute", "lender", "agent", "nic")),
)


def classify_phase(name: str) -> str:
    lowered = name.lower()
    for phase, needles in PHASES:
        for needle in needles:
            if needle in lowered:
                return phase
    return "other"


def _named(obj: Any) -> Optional[str]:
    name = getattr(obj, "name", None)
    return name if isinstance(name, str) and name else None


def _innermost_owner(generator: Any) -> Any:
    """The object whose method a process is suspended in.

    Layers delegate to each other with ``yield from``, so a process's
    own generator is usually just the outermost frame; the innermost
    delegated generator (the end of the ``gi_yieldfrom`` chain) is the
    component actually holding the transaction.
    """
    inner = getattr(generator, "gi_yieldfrom", None)
    if inner is None:
        return None
    while getattr(inner, "gi_yieldfrom", None) is not None:
        inner = inner.gi_yieldfrom
    frame = getattr(inner, "gi_frame", None)
    return frame.f_locals.get("self") if frame is not None else None


def _component(target: Any) -> Tuple[str, str]:
    """Best-effort ``(phase, name)`` for a sampled dispatch target."""
    # A process is named after the component its innermost delegated
    # generator belongs to, falling back to the process's own name.
    name = _named(_innermost_owner(getattr(target, "_generator", None)))
    name = name or _named(target)
    owner = getattr(target, "__self__", None)
    if name is None and owner is not None:
        # Bound method: prefer the owner's name over the method's, so
        # every handler of one component aggregates under that component.
        name = _named(owner) or type(owner).__name__
    if name is None:
        name = getattr(target, "__name__", None)
        if not (isinstance(name, str) and name):
            name = type(target).__name__
    phase = classify_phase(name)
    if phase == "other" and owner is not None:
        # Callbacks of components whose instance names say nothing about
        # their layer (a link named "ch0.ab") classify by their type.
        phase = classify_phase(type(owner).__name__)
    return phase, name


class SimProfiler:
    """Accumulates per-(phase, component) sampled host time.

    ``stride`` is the sampling period in kernel events. The kernel
    calls :meth:`begin_run` when its dispatch loop starts and
    :meth:`sample` at the events its countdown selects; everything
    else here is reporting.
    """

    def __init__(self, stride: int = 1024):
        if stride < 1:
            raise ValueError("profiler stride must be >= 1")
        self.stride = stride
        # (phase, component) -> [samples, host_s]
        self._stats: Dict[Tuple[str, str], List[float]] = {}
        self.samples_taken = 0
        self.runs = 0
        # The sampled event being timed: its key and dispatch stamp.
        self._open: Optional[Tuple[str, str]] = None
        self._opened_at = 0.0

    def begin_run(self) -> None:
        """Discard a measurement the previous dispatch loop left open."""
        self.runs += 1
        self._open = None

    def sample(self, target: Any) -> int:
        """Close the open measurement, open one on ``target`` when this
        event is a sampling point; return the kernel's next countdown.

        The kernel calls this at every ``stride``-th event (the event
        about to dispatch ``target``) and at the event right after it,
        whose dispatch closes the sampled one's measurement.
        """
        host = _time.perf_counter()
        key = self._open
        if key is not None:
            stat = self._stats.get(key)
            if stat is None:
                self._stats[key] = stat = [0, 0.0]
            stat[0] += 1
            stat[1] += (host - self._opened_at) * self.stride
            self.samples_taken += 1
            self._open = None
            if self.stride > 1:
                return self.stride - 1
        # Resolve the name fresh every sample. Dispatch targets are
        # often short-lived bound methods, so memoizing by ``id()``
        # would mis-attribute samples once the allocator reuses an
        # address; sampling is strided, so the getattr chain is cheap
        # in aggregate. Stamp after it, so it is not charged.
        self._open = _component(target)
        self._opened_at = _time.perf_counter()
        return 1

    # -- reporting ----------------------------------------------------------------

    def stats(self) -> Dict[Tuple[str, str], Tuple[int, float]]:
        """``(phase, component) -> (samples, host_s)``."""
        return {key: (int(v[0]), v[1]) for key, v in self._stats.items()}

    def folded(self) -> str:
        """Flame-graph folded-stacks text: ``sim;phase;name count``."""
        lines = []
        for (phase, name), (samples, _host) in sorted(self._stats.items()):
            frame = name.replace(";", "_").replace(" ", "_")
            lines.append(f"sim;{phase};{frame} {int(samples)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_folded(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.folded())

    def top_table(self, n: int = 10) -> RunSummary:
        """Top-N components by sampled host time as a RunSummary."""
        summary = RunSummary("host-time profile")
        total_host = sum(v[1] for v in self._stats.values())
        summary.section("totals")
        summary.row("samples", self.samples_taken)
        summary.row("stride", self.stride, "events")
        summary.row("host time attributed", total_host, "s")
        ranked = sorted(
            self._stats.items(), key=lambda item: item[1][1], reverse=True
        )
        summary.section(f"top {min(n, len(ranked))} by host time")
        for (phase, name), (samples, host_s) in ranked[:n]:
            share = (100.0 * host_s / total_host) if total_host > 0 else 0.0
            summary.row(
                f"{phase}:{name}",
                f"{host_s:.3e} s host ({share:.1f}%), "
                f"{int(samples)} samples",
            )
        return summary

    def describe(self) -> Dict[str, Any]:
        by_phase: Dict[str, Dict[str, Any]] = {}
        for (phase, name), (samples, host_s) in self._stats.items():
            bucket = by_phase.setdefault(phase, {"samples": 0, "host_s": 0.0})
            bucket["samples"] += int(samples)
            bucket["host_s"] += host_s
        return {
            "stride": self.stride,
            "samples": self.samples_taken,
            "runs": self.runs,
            "phases": by_phase,
        }


# -- module-level channel (set by repro.obs.session) -------------------------------

#: Hot-path guard checked once per dispatch-loop entry; the per-event
#: cost while enabled is a local integer countdown in the kernel.
ENABLED = False

_PROFILER: Optional[SimProfiler] = None

