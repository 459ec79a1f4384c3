"""The per-layer ledger, built from outside the program.

Three passes of one unit each, after a warm-up unit:

1. **Untraced**, with only cheap wrappers installed: simulator event
   counts (around ``Simulator.run``), call timings of the public
   control-plane functions, and the server's exact queue-wait and
   service times. Its registry snapshot gives the counters.
2. **Profiled** under ``cProfile``: host self-time per ``repro``
   module, grouped into layers. Self-time of stdlib, builtin and
   site-packages functions is charged to the nearest caller that has a
   layer, split pro rata by the caller table's cumulative time.
3. **Span-traced** with ``repro.obs.trace`` at ``sample_every=1``
   (burst base ids are 1 mod 16, so any stride of 16 traces nothing):
   sim-time per datapath stage.

``obs.profiler`` is not used: it samples before dispatching an event,
so it charges each event's host time to the next event's component.
"""

from __future__ import annotations

import cProfile
import gc
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import repro
from repro.control.api import RestApi
from repro.control.orchestrator import ControlPlane
from repro.control.planner import PathPlanner
from repro.control.server import ControlServer
from repro.core.llc import LlcConfig
from repro.obs import disable_tracing, enable_tracing
from repro.sim.engine import Simulator

from .runner import unit_seed, unit_size, watchdog, watchdog_s
from .stats import percentile
from .workloads import Workload

__all__ = ["LAYERS", "STAGES", "PER_LAYER", "layer_of", "profile_table",
           "host_ledger", "sim_ledger", "trace"]

#: Layers in report order; ``layer_of`` maps a source file to one.
LAYERS = (
    "sim", "sim.domains", "opencapi", "rmmu", "routing", "llc",
    "endpoints", "net", "mem", "accel", "osmodel", "testbed", "obs",
    "cluster", "control.server", "control.api", "control.planner",
    "control.qos", "control.orchestrator", "other", "harness",
)

#: ``repro`` files with a layer of their own; other files take their
#: package's layer (``core`` -> endpoints, ``control`` -> orchestrator)
#: and packages without one are ``other``.
_FILE_LAYERS = {
    "sim/domains.py": "sim.domains",
    "core/rmmu.py": "rmmu",
    "core/routing.py": "routing",
    "core/llc.py": "llc",
    "core/flow.py": "llc",
    "control/server.py": "control.server",
    "control/api.py": "control.api",
    "control/planner.py": "control.planner",
    "control/graph.py": "control.planner",
    "control/qos.py": "control.qos",
}
_PACKAGE_LAYERS = {
    "sim": "sim", "opencapi": "opencapi", "core": "endpoints", "net": "net",
    "mem": "mem", "accel": "accel", "osmodel": "osmodel",
    "testbed": "testbed", "obs": "obs", "cluster": "cluster",
    "control": "control.orchestrator",
}

#: Datapath stages ``repro.obs.trace`` marks, in path order.
STAGES = (
    "bus.issue", "rmmu.translate", "routing.forward", "llc.credit_wait",
    "llc.submit", "llc.frame", "llc.deliver", "dram.service", "dram.done",
    "routing.response", "endpoint.retry", "hbm.hit",
)

#: The per-layer metrics ``--trace 1`` reports: name, unit, better.
#: Host seconds per layer and the control timings are in the full
#: report too, but stay out of this list: a time that is 0 wherever a
#: layer does not run would read the same on every run of those
#: workloads.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    tuple((f"host_share.{layer}", "fraction", "lower") for layer in LAYERS)
    + tuple((f"calls.{layer}", "count", "lower") for layer in LAYERS)
    + tuple((f"sim_share.{stage}", "fraction", "lower") for stage in STAGES)
    + (
        ("sim.traced_txns", "count", "higher"),
        ("sim.events", "count", "lower"),
        ("sim.events_per_s", "1/s", "higher"),
        ("llc.frames", "count", "lower"),
        ("llc.payload_frac", "fraction", "higher"),
        ("llc.replays_requested", "count", "lower"),
        ("llc.timeout_recoveries", "count", "lower"),
        ("llc.credit_stalls", "count", "lower"),
        ("llc.credits_leaked", "count", "lower"),
        ("link.utilization", "fraction", "higher"),
        ("routing.channel_skew", "fraction", "lower"),
        ("dram.accesses", "count", "lower"),
        ("rmmu.translations", "count", "lower"),
        ("endpoint.retries", "count", "lower"),
        ("server.shed", "count", "lower"),
        ("domains.rounds", "count", "lower"),
        ("domains.messages", "count", "lower"),
        ("cluster.attaches", "count", "higher"),
        ("trace.overhead", "ratio", "lower"),
    )
)

_REPRO_DIR = os.path.realpath(os.path.dirname(repro.__file__)) + os.sep
_BENCH_DIR = os.path.realpath(os.path.dirname(__file__)) + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer of a profiled function's file, or None when its time
    is charged to a caller (stdlib, builtins, site-packages)."""
    if filename.startswith(("~", "<")):
        return None
    path = os.path.realpath(filename)
    if path.startswith(_BENCH_DIR):
        return "harness"
    if not path.startswith(_REPRO_DIR):
        return None
    relative = path[len(_REPRO_DIR):].replace(os.sep, "/")
    if relative in _FILE_LAYERS:
        return _FILE_LAYERS[relative]
    return _PACKAGE_LAYERS.get(relative.split("/", 1)[0], "other")


# -- host time -----------------------------------------------------------------


def profile_table(profiler: cProfile.Profile) -> Dict:
    """``{function: [calls, self s, {caller: [calls, cumulative s]}]}``.

    Built from ``getstats()`` and keyed by code object (builtins by
    their name), because ``pstats`` keys by ``(file, line, name)`` and
    lets code objects that share one overwrite each other: every
    dataclass ``__init__`` is ``("<string>", 2, "__init__")``.
    """
    entries = profiler.getstats()
    table: Dict = {}
    for entry in entries:
        row = table.setdefault(entry.code, [0, 0.0, {}])
        row[0] += entry.callcount
        row[1] += entry.inlinetime
    for entry in entries:
        for sub in entry.calls or ():
            callers = table.setdefault(sub.code, [0, 0.0, {}])[2]
            edge = callers.setdefault(entry.code, [0, 0.0])
            edge[0] += sub.callcount
            edge[1] += sub.totaltime
    return table


def _layer_of_code(code) -> Optional[str]:
    return None if isinstance(code, str) else layer_of(code.co_filename)


def host_ledger(table: Dict, layer_for=_layer_of_code) -> Dict[str, Dict]:
    """Self-time and calls per layer from a :func:`profile_table`.

    A function without a layer passes its self-time (plus whatever its
    own callees passed up) to its callers in proportion to each edge's
    cumulative time — or call count when no time was recorded on any
    edge. Time that reaches a function without callers is the
    harness's.
    """
    host_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    pending: Dict = {}
    for func, (count, self_s, _callers) in table.items():
        layer = layer_for(func)
        if layer is None:
            pending[func] = self_s
        else:
            host_s[layer] += self_s
            calls[layer] += count
    # Amounts climb the caller graph until they reach a layer; cycles
    # among layer-less functions shrink geometrically, and whatever is
    # left after the last round is charged to the harness.
    for _round in range(200):
        if not pending:
            break
        climbing: Dict = defaultdict(float)
        for func, amount in pending.items():
            if not amount:
                continue
            edges = {c: e for c, e in table[func][2].items() if c != func}
            weights = {c: e[1] for c, e in edges.items()}
            if not sum(weights.values()):
                weights = {c: e[0] for c, e in edges.items()}
            total = sum(weights.values())
            if not total:
                host_s["harness"] += amount
                continue
            for caller, weight in weights.items():
                share = amount * weight / total
                layer = layer_for(caller)
                if layer is None:
                    climbing[caller] += share
                else:
                    host_s[layer] += share
        pending = climbing
    if pending:
        host_s["harness"] += sum(pending.values())
    return {"host_s": dict(host_s), "calls": dict(calls)}


# -- sim time ------------------------------------------------------------------


def sim_ledger(records) -> Dict:
    """Sim-time per stage over completed transaction records.

    Exact rational arithmetic: the check is that every record's spans
    are contiguous and non-negative, and that the stage totals add up
    to the summed end-to-end latency with no remainder.
    """
    stages: Dict[str, Fraction] = defaultdict(Fraction)
    total = Fraction(0)
    broken = 0
    for record in records:
        segments = record.segments()
        start, end = Fraction(record.start), Fraction(record.end)
        total += end - start
        cursor = start
        for stage, t0, t1, _where in segments:
            t0, t1 = Fraction(t0), Fraction(t1)
            if t0 != cursor or t1 < t0:
                broken += 1
            stages[stage] += t1 - t0
            cursor = t1
        if cursor != end:
            broken += 1
    telescopes = broken == 0 and sum(stages.values(), Fraction(0)) == total
    return {
        "traced_txns": len(records),
        "latency_sum_s": float(total),
        "telescopes": telescopes,
        "stage_s": {stage: float(value) for stage, value in stages.items()},
        "share": {
            stage: float(value / total) if total else 0.0
            for stage, value in stages.items()
        },
    }


# -- wrappers around the program -------------------------------------------------


def _timed(original, sink: List[float]):
    def wrapper(*args, **kwargs):
        started = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(perf_counter() - started)

    return wrapper


@contextmanager
def _instrumented():
    """Cheap wrappers for the untraced pass; restored on exit."""
    timings: Dict[str, List[float]] = defaultdict(list)
    events = [0]
    run = Simulator.run
    observe = ControlServer._observe

    def counting_run(self, *args, **kwargs):
        before = self.event_count
        try:
            return run(self, *args, **kwargs)
        finally:
            events[0] += self.event_count - before

    def observing(self, job, status, started):
        timings["server.queue_wait"].append(started - job.enqueued_at)
        timings["server.service"].append(perf_counter() - started)
        return observe(self, job, status, started)

    patches = [
        (Simulator, "run", counting_run),
        (ControlServer, "_observe", observing),
        (RestApi, "handle", _timed(RestApi.handle, timings["api.handle"])),
        (ControlPlane, "attach",
         _timed(ControlPlane.attach, timings["orchestrator.attach"])),
        (ControlPlane, "detach",
         _timed(ControlPlane.detach, timings["orchestrator.detach"])),
        (PathPlanner, "plan", _timed(PathPlanner.plan, timings["planner.plan"])),
    ]
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in patches]
    for cls, name, wrapper in patches:
        setattr(cls, name, wrapper)
    try:
        yield timings, events
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


# -- counters ------------------------------------------------------------------


def _family(snapshot: Dict[str, float], name: str) -> List[Tuple[str, float]]:
    return [(key, value) for key, value in snapshot.items()
            if key.partition("{")[0] == name]


def _sum(snapshot: Dict[str, float], *names: str) -> float:
    return sum(value for name in names for _k, value in _family(snapshot, name))


def _label(key: str, label: str) -> str:
    for pair in key.partition("{")[2].rstrip("}").split(","):
        name, _, value = pair.partition("=")
        if name == label:
            return value
    return ""


def counters(snapshot: Dict[str, float]) -> Dict[str, float]:
    """The layer counters, summed over every labelled series."""
    config = LlcConfig()
    frames = _sum(snapshot, "llc.frames_built")
    llcs = _family(snapshot, "llc.credits_available")
    by_node: Dict[str, List[float]] = defaultdict(list)
    for key, value in _family(snapshot, "routing.channel_tx"):
        by_node[_label(key, "node") + _label(key, "domain")].append(value)
    skews = [
        (max(tx) - min(tx)) / sum(tx) for tx in by_node.values() if sum(tx)
    ]
    utilizations = [v for _k, v in _family(snapshot, "link.utilization")]
    return {
        "llc.frames": frames,
        "llc.payload_frac": (
            1.0 - _sum(snapshot, "llc.nops_padded")
            / (frames * config.flits_per_frame)
            if frames else 0.0
        ),
        "llc.replays_requested": _sum(snapshot, "llc.replays_requested"),
        "llc.timeout_recoveries": _sum(snapshot, "llc.timeout_recoveries"),
        "llc.credit_stalls": _sum(snapshot, "llc.credit_stalls"),
        "llc.credits_leaked": sum(
            config.rx_queue_slots - value for _k, value in llcs
        ),
        "link.utilization": max(utilizations, default=0.0),
        "routing.channel_skew": max(skews, default=0.0),
        "dram.accesses": _sum(snapshot, "dram.reads", "dram.writes"),
        "rmmu.translations": _sum(snapshot, "rmmu.translations"),
        "endpoint.retries": _sum(snapshot, "endpoint.retries"),
        "server.shed": _sum(snapshot, "server.shed"),
    }


# -- the three passes ------------------------------------------------------------


def _pass(workload: Workload, seed: int, size, before=None, after=None):
    """Set up, run one unit between ``before``/``after``, tear down.

    Returns (wall s, cpu s, unit result, snapshot)."""
    gc.collect()
    state = workload.setup(unit_seed(seed, 0), size)
    try:
        if before:
            before()
        wall, cpu = perf_counter(), time.process_time()
        try:
            result = workload.unit(state)
        finally:
            wall, cpu = perf_counter() - wall, time.process_time() - cpu
            if after:
                after()
        return wall, cpu, result, workload.snapshot(state)
    finally:
        workload.teardown(state)


def _p50_ms(samples: List[float]) -> float:
    return percentile(samples, 50) * 1e3 if samples else 0.0


def trace(workload: Workload, seed: int, seconds: float,
          smoke: bool = False) -> Dict:
    """Run the three passes; returns the ledger and its checks."""
    with watchdog(watchdog_s(seconds)):
        return _trace(workload, seed, seconds, smoke)


def _trace(workload: Workload, seed: int, seconds: float,
           smoke: bool) -> Dict:
    size = unit_size(workload, seconds, smoke)
    if not workload.open_loop:
        _pass(workload, seed, size)  # warm-up

    with _instrumented() as (timings, events):
        untraced_wall, untraced_cpu, result, snapshot = _pass(
            workload, seed, size
        )
    layer_counters = counters(snapshot)
    layer_counters["sim.events"] = events[0]
    layer_counters["sim.events_per_s"] = events[0] / untraced_wall

    profiler = cProfile.Profile()
    profiled_wall, _cpu, _result, _snap = _pass(
        workload, seed, size, before=profiler.enable, after=profiler.disable,
    )
    host = host_ledger(profile_table(profiler))

    tracer_box = []
    traced_wall, traced_cpu, _result, _snap = _pass(
        workload, seed, size,
        before=lambda: tracer_box.append(enable_tracing(sample_every=1)),
        after=disable_tracing,
    )
    sim = sim_ledger(tracer_box[0].completed())

    host_total = sum(host["host_s"].values())
    if workload.open_loop:  # wall time is the schedule's; compare CPU
        overhead = traced_cpu / untraced_cpu
    else:
        overhead = traced_wall / untraced_wall
    checks = {
        "host_reconciles": abs(host_total - profiled_wall)
        <= 0.01 * profiled_wall,
        "sim_telescopes": sim["telescopes"],
        "traced_transactions": sim["traced_txns"] >= 1
        or not workload.datapath,
        "unit_correct": not result.failures,
    }
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        spent = host["host_s"].get(layer, 0.0)
        metrics[f"host_s.{layer}"] = spent
        metrics[f"host_share.{layer}"] = spent / host_total
        metrics[f"calls.{layer}"] = host["calls"].get(layer, 0)
    for stage in STAGES:
        metrics[f"sim_share.{stage}"] = sim["share"].get(stage, 0.0)
    metrics["sim.traced_txns"] = sim["traced_txns"]
    metrics.update(layer_counters)
    for name in ("domains.rounds", "domains.messages", "cluster.attaches"):
        metrics[name] = result.replay.get(name, 0)
    metrics["trace.overhead"] = overhead
    metrics["api.handle_p50_ms"] = _p50_ms(timings["api.handle"])
    metrics["orchestrator.attach_p50_ms"] = _p50_ms(
        timings["orchestrator.attach"])
    metrics["orchestrator.detach_p50_ms"] = _p50_ms(
        timings["orchestrator.detach"])
    metrics["planner.plan_p50_ms"] = _p50_ms(timings["planner.plan"])
    metrics["server.queue_wait_p50_ms"] = _p50_ms(
        timings["server.queue_wait"])
    metrics["server.queue_wait_p99_ms"] = (
        percentile(timings["server.queue_wait"], 99) * 1e3
        if timings["server.queue_wait"] else 0.0
    )
    metrics["server.service_p50_ms"] = _p50_ms(timings["server.service"])
    metrics["loadgen.lag_p99_ms"] = result.values.get("loadgen.lag_p99_ms",
                                                      0.0)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "size": size,
        "walls": {"untraced_s": untraced_wall, "profiled_s": profiled_wall,
                  "traced_s": traced_wall, "host_ledger_s": host_total},
        "checks": checks,
        "correct": all(checks.values()),
        "attempted": result.ops,
        "failed": len(result.failures),
        "failures": result.failures[:10],
        "sim_stage_s": sim["stage_s"],
        "metrics": metrics,
    }
