"""Telemetry-overhead gate: the full observability pipeline must stay
cheap enough to leave on in long experiments.

Interleaved best-of-N STREAM runs through the real datapath with the
whole pipeline enabled (metrics registration + snapshot, structured
event log, sim-time profiler at the default stride) versus everything
off. The acceptance budget is <=10% wall-clock overhead in the full
run (smoke runs on shared CI runners get a relaxed bound — they time a
much shorter run, so fixed costs weigh disproportionately).

A second section times the exposition path itself — rendering a
full-testbed registry to Prometheus text and strict-parsing it back —
because a scrape handler that takes longer than a sim quantum would
distort live experiments.

Results merge into ``BENCH_obs.json`` at the repository root so
overhead regressions show up in review diffs.
"""

from __future__ import annotations

import json
import os
import time

from repro.mem import MIB
from repro.obs import (
    EventLog,
    MetricsRegistry,
    SimProfiler,
    parse_prometheus,
    render_prometheus,
    session,
)
from repro.osmodel import PagePolicy
from repro.testbed import RemoteBuffer, Testbed

SMOKE = os.environ.get("OBS_PERF_SMOKE", "") not in ("", "0")

#: Results land at the repository root.
RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_obs.json",
)

STREAM_BYTES = (128 * 1024) if SMOKE else MIB
#: Acceptance budget: full telemetry costs <= 10% STREAM wall-clock.
#: The smoke bound is looser because the smoke run is ~8x shorter, so
#: per-run fixed costs (registry build, journal setup) loom larger and
#: shared CI runners add noise.
OVERHEAD_BUDGET = 0.30 if SMOKE else 0.10
PROFILER_STRIDE = 1024  # the documented default


def _merge_results(section: str, payload: dict) -> None:
    results = {}
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as handle:
            results = json.load(handle)
    results[section] = payload
    results["smoke"] = SMOKE
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _best_of(runs: int, fn):
    best = float("inf")
    result = None
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best, result


def _stream_workload() -> Testbed:
    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    buffer = RemoteBuffer.allocate(
        testbed.node0,
        STREAM_BYTES,
        policy=PagePolicy.BIND,
        numa_nodes=[attachment.plan.numa_node_id],
        batched=True,
    )
    blob = bytes(range(256)) * (STREAM_BYTES // 256)
    buffer.write(0, blob)
    assert buffer.read(0, STREAM_BYTES) == blob
    buffer.free()
    return testbed


def _baseline_run() -> dict:
    _stream_workload()
    return {}


def _telemetry_run() -> dict:
    """The whole pipeline, end to end, inside the timed region.

    Matches what ``python -m repro metrics`` does: journal + profiler
    on during the run, then registry registration and a snapshot —
    the scrape a live experiment would serve.
    """
    log = EventLog()
    profiler = SimProfiler(stride=PROFILER_STRIDE)
    with session(events=log, profile=profiler):
        testbed = _stream_workload()
        registry = MetricsRegistry()
        testbed.register_observability(registry)
        series = len(registry.snapshot())
    return {
        "events_logged": log.total,
        "profile_samples": profiler.samples_taken,
        "metrics_series": series,
    }


def test_full_telemetry_overhead_within_budget():
    runs = 3 if SMOKE else 5
    _telemetry_run()  # warm-up (imports, allocator, code paths)
    # Interleave by measuring baseline after telemetry too, so slow
    # machine drift hits both sides.
    telemetry_s, stats = _best_of(runs, _telemetry_run)
    baseline_s, _ = _best_of(runs, _baseline_run)
    overhead = telemetry_s / baseline_s - 1.0
    print(
        f"STREAM {STREAM_BYTES >> 10} KiB x2: {baseline_s:.3f}s off, "
        f"{telemetry_s:.3f}s full telemetry "
        f"({overhead * 100.0:+.1f}% overhead; "
        f"{stats['events_logged']} events, "
        f"{stats['profile_samples']} samples, "
        f"{stats['metrics_series']} series)"
    )
    _merge_results(
        "stream_telemetry_overhead",
        {
            "bytes_each_way": STREAM_BYTES,
            "runs": runs,
            "profiler_stride": PROFILER_STRIDE,
            "baseline_s": round(baseline_s, 4),
            "telemetry_s": round(telemetry_s, 4),
            "overhead": round(overhead, 4),
            "budget": OVERHEAD_BUDGET,
            "events_logged": stats["events_logged"],
            "profile_samples": stats["profile_samples"],
            "metrics_series": stats["metrics_series"],
        },
    )
    assert overhead <= OVERHEAD_BUDGET, (
        f"telemetry overhead {overhead * 100.0:.1f}% exceeds the "
        f"{OVERHEAD_BUDGET * 100.0:.0f}% budget"
    )


def test_exposition_render_and_parse_cost():
    """Scrape cost: render + strict-parse a full-testbed registry."""
    testbed = _stream_workload()
    registry = MetricsRegistry()
    testbed.register_observability(registry)
    reps = 20 if SMOKE else 50

    def scrape():
        for _ in range(reps):
            parse_prometheus(render_prometheus(registry))

    scrape()  # warm-up
    best_s, _ = _best_of(3, scrape)
    per_scrape_ms = best_s / reps * 1e3
    series = len(parse_prometheus(render_prometheus(registry))["samples"])
    print(
        f"exposition round-trip: {per_scrape_ms:.2f} ms/scrape "
        f"({series} series)"
    )
    _merge_results(
        "exposition_round_trip",
        {
            "series": series,
            "reps": reps,
            "per_scrape_ms": round(per_scrape_ms, 3),
            "budget_ms": 250.0,
        },
    )
    # A scrape of a full testbed must stay comfortably interactive.
    assert per_scrape_ms <= 250.0
