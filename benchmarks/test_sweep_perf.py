"""Perf-regression harness for the sweep engine's result cache.

Measures two ways of regenerating figures 5-9 (the per-configuration
model sweeps; Fig. 1 is a single monolithic cluster replay and is
timed by ``python -m bench``'s ``fig1_replay`` workload instead):

* **serial** — every slice runs in process into an empty cache;
* **warm** — the same run again: content-addressed cache replay.

Results land in ``BENCH_sweeps.json`` at the repository root so
regressions show up in review diffs. The rendered tables of both runs
must be byte-identical — the speedup is only meaningful if the cached
path reproduces the serial output exactly.

Set ``SWEEP_PERF_SMOKE=1`` for a fast CI-sized run with a relaxed
threshold (the full run asserts >=10x warm cache, smoke >=3x).
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

# Fig. 8's latency-sample count dominates the sweep's wall-clock; the
# other figures' slices provide the many-small-specs load.
FIG8_SAMPLES = 150_000 if SMOKE else 800_000

# Required warm-cache speedup (smoke keeps CI honest without being
# flaky on loaded shared runners).
WARM_TARGET = 3.0 if SMOKE else 10.0


def _timed_run(cache_dir):
    started = time.perf_counter()
    tables, engine = run_figures(
        list(FIGURES), cache_dir=cache_dir,
        figure_kwargs={"fig8": {"samples": FIG8_SAMPLES}},
    )
    elapsed = time.perf_counter() - started
    rendered = "\n".join(render(tables[name]) for name in FIGURES)
    return rendered, engine, elapsed


def test_sweep_cache_speedup(tmp_path):
    cache_dir = str(tmp_path / "cache")

    serial_text, serial_engine, serial_s = _timed_run(cache_dir)
    assert serial_engine.cache_hits == 0
    assert serial_engine.executed == serial_engine.specs_seen > 0

    warm_text, warm_engine, warm_s = _timed_run(cache_dir)
    assert warm_engine.executed == 0
    assert warm_engine.cache_hits == warm_engine.specs_seen

    # Correctness first: both paths render identical tables.
    assert warm_text == serial_text

    warm_speedup = serial_s / warm_s
    print(
        f"figs 5-9 (fig8 samples={FIG8_SAMPLES:,}): serial "
        f"{serial_s:.2f}s, warm {warm_s:.3f}s ({warm_speedup:.1f}x)"
    )

    report = {
        "figures": list(FIGURES),
        "specs": serial_engine.specs_seen,
        "cpus": os.cpu_count() or 1,
        "fig8_samples": FIG8_SAMPLES,
        "serial_s": round(serial_s, 4),
        "warm_cache_s": round(warm_s, 4),
        "warm_speedup": round(warm_speedup, 3),
        "warm_target": WARM_TARGET,
        "smoke": SMOKE,
    }
    with open(RESULTS_PATH, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert warm_speedup >= WARM_TARGET, (
        f"warm cache replay {warm_speedup:.2f}x < {WARM_TARGET}x target"
    )
