"""Fig. 1 experiment driver: replay a trace against both models.

The scheduler is "an online best-fit allocation policy without resource
overcommitment" (§II). Tasks that cannot be placed wait in a FIFO
pending queue and are retried whenever capacity frees up. Fragmentation
and power-off metrics are sampled time-weighted over the replay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Union

from ..sim.stats import TimeWeightedValue
from .models import (
    AllocationFailure,
    DisaggregatedDatacentre,
    FixedDatacentre,
    Placement,
)
from .trace import EventKind, TraceConfig, TraceEvent, synthesize_trace

__all__ = ["UtilizationReport", "replay_trace", "run_fig1_experiment",
           "scaled_trace_config"]

Datacentre = Union[FixedDatacentre, DisaggregatedDatacentre]


@dataclass
class UtilizationReport:
    """Time-averaged Fig. 1 metrics for one datacentre model."""

    model: str
    cpu_fragmentation_pct: float
    memory_fragmentation_pct: float
    compute_off_pct: float
    memory_off_pct: float
    #: Tasks still resident when the replay stops after the last SUBMIT
    #: (not a count of all placements made).
    placed_tasks: int
    deferred_placements: int
    peak_pending: int

    def as_row(self) -> Dict[str, float]:
        return {
            "model": self.model,
            "frag_cpu_%": round(self.cpu_fragmentation_pct, 2),
            "frag_mem_%": round(self.memory_fragmentation_pct, 2),
            "off_cpu_%": round(self.compute_off_pct, 2),
            "off_mem_%": round(self.memory_off_pct, 2),
        }


def replay_trace(
    datacentre: Datacentre,
    events: List[TraceEvent],
    warmup_fraction: float = 0.25,
) -> UtilizationReport:
    """Replay SUBMIT/FINISH events; returns time-averaged metrics.

    The first ``warmup_fraction`` of simulated time is excluded from the
    averages (the datacentre starts empty; the paper reports steady
    state).

    The metrics are sampled once per event, after it is applied: nothing
    changes between one event's sample and the next event, so the value
    each meter holds over that interval is exact.
    """
    if not events:
        raise ValueError("empty trace")
    start = events[0].time
    # Measure only while load keeps arriving: after the last SUBMIT the
    # datacentre just drains, which says nothing about packing quality.
    end = max(e.time for e in events if e.kind is EventKind.SUBMIT)
    measure_from = start + warmup_fraction * (end - start)

    placements: Dict[int, Placement] = {}
    pending: Deque[TraceEvent] = deque()
    finished_early: set = set()
    deferred = 0
    peak_pending = 0

    # Stranded CPU, stranded memory, CPU off, memory off: in the order
    # of ``datacentre.utilization()``.
    meters = [TimeWeightedValue(start) for _ in range(4)]

    def try_pending(now: float) -> None:
        """Strict-FIFO retry: the queue head either fits or keeps waiting."""
        while pending:
            event = pending[0]
            if event.task.task_id in finished_early:
                finished_early.discard(event.task.task_id)
                pending.popleft()
                continue
            try:
                placements[event.task.task_id] = datacentre.allocate(
                    event.task
                )
                pending.popleft()
            except AllocationFailure:
                break

    warmed_up = False
    for event in events:
        if event.time > end:
            break
        if not warmed_up and event.time >= measure_from:
            # Steady state reached: discard the fill-up transient.
            # ``reset`` keeps each meter's current value.
            for meter in meters:
                meter.reset(event.time)
            warmed_up = True
        if event.kind is EventKind.SUBMIT:
            try:
                placements[event.task.task_id] = datacentre.allocate(event.task)
            except AllocationFailure:
                deferred += 1
                pending.append(event)
                peak_pending = max(peak_pending, len(pending))
        else:
            placement = placements.pop(event.task.task_id, None)
            if placement is None:
                # Task finished while still pending: drop the request.
                finished_early.add(event.task.task_id)
            else:
                datacentre.release(placement)
                try_pending(event.time)
        for meter, value in zip(meters, datacentre.utilization()):
            meter.update(event.time, value)

    frag_cpu, frag_mem, off_cpu, off_mem = (
        meter.time_average(end) for meter in meters
    )
    return UtilizationReport(
        model=type(datacentre).__name__,
        cpu_fragmentation_pct=frag_cpu,
        memory_fragmentation_pct=frag_mem,
        compute_off_pct=off_cpu,
        memory_off_pct=off_mem,
        placed_tasks=len(placements),
        deferred_placements=deferred,
        peak_pending=peak_pending,
    )


def scaled_trace_config(units: int, tasks: Optional[int] = None,
                        seed: int = 17) -> TraceConfig:
    """A trace whose steady-state CPU demand slightly exceeds ``units``.

    The default :class:`TraceConfig` is calibrated for 400 units; this
    helper rescales the task duration so the demand-to-capacity ratio
    (≈1.09, the Fig. 1 operating point) is preserved at any scale.
    """
    base = TraceConfig()
    base_concurrency = base.mean_duration / base.mean_interarrival
    duration = base.mean_duration * units / 400.0
    concurrency = duration / base.mean_interarrival
    if tasks is None:
        # Enough tasks that steady state lasts >= 3x the fill time.
        tasks = int(4 * concurrency)
    return TraceConfig(
        tasks=tasks,
        seed=seed,
        cpu_log_mean=base.cpu_log_mean,
        cpu_log_sigma=base.cpu_log_sigma,
        ratio_log_mean=base.ratio_log_mean,
        ratio_log_sigma=base.ratio_log_sigma,
        mean_interarrival=base.mean_interarrival,
        mean_duration=duration,
    )


def run_fig1_experiment(
    config: Optional[TraceConfig] = None,
    units: int = 400,
    links_per_module: int = 16,
) -> Dict[str, UtilizationReport]:
    """Run both models on the same trace (Fig. 1).

    ``units`` defaults to a ~31× scale-down of the paper's 12 555
    modules; the default :class:`TraceConfig` load is calibrated for
    exactly this capacity (use :func:`scaled_trace_config` for other
    sizes — the load-to-capacity ratio must be preserved or the
    operating point changes).
    """
    config = config or TraceConfig()
    events = synthesize_trace(config)
    fixed = replay_trace(FixedDatacentre(units), events)
    disaggregated = replay_trace(
        DisaggregatedDatacentre(units, units, links_per_module), events
    )
    return {"fixed": fixed, "disaggregated": disaggregated}
