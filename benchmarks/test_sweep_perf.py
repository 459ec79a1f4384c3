"""Perf-regression harness for the parallel sweep engine.

Measures three ways of regenerating figures 5-9 (the per-configuration
model sweeps; Fig. 1 is a single monolithic cluster replay and is
timed by ``python -m bench``'s ``fig1_replay`` workload instead):

* **serial** — ``jobs=1``, cache off: the pre-engine baseline cost;
* **cold parallel** — ``jobs=4`` into an empty cache: fan-out speedup;
* **warm** — the same run again: content-addressed cache replay.

Results land in ``BENCH_sweeps.json`` at the repository root so
regressions show up in review diffs. The rendered tables from all
three runs must be byte-identical — the speedups are only meaningful
if the parallel and cached paths reproduce the serial output exactly.

Set ``SWEEP_PERF_SMOKE=1`` for a fast CI-sized run with relaxed
thresholds (the full run asserts the ISSUE targets: >=2x cold
parallel, >=10x warm cache). The cold-parallel target presumes the
host can actually run the workers concurrently; like ``--jobs auto``,
the bench never oversubscribes — it fans out with ``min(4, cpus)``
workers — and on hosts with fewer than 4 CPUs the assertion degrades
to an engine-overhead bound while the measured numbers (and the CPU
count) are still recorded in ``BENCH_sweeps.json``.
"""

from __future__ import annotations

import json
import os
import time

from repro.figures import render
from repro.sweep import run_figures

SMOKE = os.environ.get("SWEEP_PERF_SMOKE", "") not in ("", "0")

#: Results land at the repository root.
RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_sweeps.json",
)

FIGURES = ("fig5", "fig6", "fig7", "fig8", "fig9")

# Fan out like ``--jobs auto`` would: up to 4 workers, never more than
# the host has CPUs (oversubscribing a small host only adds thrash).
CPUS = os.cpu_count() or 1
JOBS = min(4, CPUS)

# Fig. 8's latency-sample count dominates the sweep's wall-clock; the
# other figures' slices provide the many-small-specs load.
FIG8_SAMPLES = 150_000 if SMOKE else 800_000

# Required speedups (full run = the ISSUE acceptance targets; smoke
# keeps CI honest without being flaky on loaded shared runners). The
# parallel target only holds where >=4 workers run concurrently; a
# smaller host bounds the engine + pool dispatch overhead instead.
if JOBS >= 4:
    COLD_TARGET = 1.2 if SMOKE else 2.0
elif JOBS > 1:
    COLD_TARGET = 1.05
else:
    COLD_TARGET = 0.8
WARM_TARGET = 3.0 if SMOKE else 10.0


def _figure_kwargs():
    return {"fig8": {"samples": FIG8_SAMPLES}}


def _timed_run(**engine_kwargs):
    started = time.perf_counter()
    tables, engine = run_figures(
        list(FIGURES), figure_kwargs=_figure_kwargs(), **engine_kwargs
    )
    elapsed = time.perf_counter() - started
    rendered = "\n".join(render(tables[name]) for name in FIGURES)
    return rendered, engine, elapsed


def test_sweep_fanout_and_cache_speedup(tmp_path):
    cache_dir = str(tmp_path / "cache")

    serial_text, _, serial_s = _timed_run(jobs=1, cache=False)

    cold_text, cold_engine, cold_s = _timed_run(jobs=JOBS,
                                                cache_dir=cache_dir)
    assert cold_engine.cache_hits == 0 and cold_engine.executed > 0

    warm_text, warm_engine, warm_s = _timed_run(jobs=JOBS,
                                                cache_dir=cache_dir)
    assert warm_engine.executed == 0
    assert warm_engine.cache_hits == warm_engine.specs_seen

    # Correctness first: all three paths render identical tables.
    assert cold_text == serial_text
    assert warm_text == serial_text

    cold_speedup = serial_s / cold_s
    warm_speedup = serial_s / warm_s
    print(
        f"figs 5-9 (fig8 samples={FIG8_SAMPLES:,}, {CPUS} CPUs): "
        f"serial {serial_s:.2f}s, cold x{JOBS} {cold_s:.2f}s "
        f"({cold_speedup:.2f}x), warm {warm_s:.3f}s "
        f"({warm_speedup:.1f}x)"
    )

    report = {
        "figures": list(FIGURES),
        "specs": cold_engine.specs_seen,
        "jobs": JOBS,
        "cpus": CPUS,
        "fig8_samples": FIG8_SAMPLES,
        "serial_s": round(serial_s, 4),
        "cold_parallel_s": round(cold_s, 4),
        "warm_cache_s": round(warm_s, 4),
        "cold_speedup": round(cold_speedup, 3),
        "warm_speedup": round(warm_speedup, 3),
        "cold_target": COLD_TARGET,
        "warm_target": WARM_TARGET,
        "smoke": SMOKE,
    }
    with open(RESULTS_PATH, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert cold_speedup >= COLD_TARGET, (
        f"cold parallel sweep {cold_speedup:.2f}x < {COLD_TARGET}x target"
    )
    assert warm_speedup >= WARM_TARGET, (
        f"warm cache replay {warm_speedup:.2f}x < {WARM_TARGET}x target"
    )
