"""Throughput-vs-latency benchmark of the async control-plane server.

Runs the standard three-tenant load test (see
:mod:`repro.control.loadgen`) through the real ``python -m repro
loadtest`` entry point and persists the full report — per-stage
throughput and latency percentiles, the validation-latency CDF, shed
counts and peak RSS — to ``BENCH_control.json`` at the repository
root, so control-plane performance regressions show up in review
diffs.

The assertions are the PR's acceptance criteria, CI-enforced:

* the server *sheds* under overload (429s from quotas, 503s from the
  bounded admission queue) instead of collapsing;
* latency at the non-overloaded stages stays within target;
* validation reads (GET of a just-created attachment) stay fast;
* peak RSS stays bounded.

Set ``CONTROL_PERF_SMOKE=1`` (CI) to run the short smoke preset and
relax the latency targets for noisy shared runners; the shed-behavior
assertions are unconditional.
"""

from __future__ import annotations

import io
import json
import os
import time
from contextlib import redirect_stdout

from repro.__main__ import main

SMOKE = os.environ.get("CONTROL_PERF_SMOKE", "") not in ("", "0")

#: Results land at the repository root.
RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_control.json",
)

#: p95 latency target (ms) for every stage offered below saturation,
#: and the validation-read p99 target. Generous on shared CI runners.
P95_TARGET_MS = 250.0 if SMOKE else 100.0
#: Validation reads issued *during* the overload stage wait behind the
#: bounded admission queue, so their worst case is queue-depth x
#: service time (~hundreds of ms) — bounded by construction, which is
#: exactly the claim this target enforces. An unbounded queue would
#: blow through it into seconds.
VALIDATION_P99_TARGET_MS = 500.0
PEAK_RSS_TARGET_MIB = 512


def test_control_loadtest_sheds_instead_of_collapsing():
    argv = ["loadtest", "--out", RESULTS_PATH]
    if SMOKE:
        argv.append("--smoke")
    stdout = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(stdout):
        code = main(argv)
    wall_s = time.perf_counter() - started
    assert code == 0
    print(stdout.getvalue())

    with open(RESULTS_PATH) as fh:
        report = json.load(fh)
    report["wall_s"] = wall_s
    with open(RESULTS_PATH, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    stages = report["stages"]
    totals = report["totals"]

    # -- shed, don't collapse (unconditional) -----------------------------------
    assert totals["quota_429"] > 0, (
        "the best-effort tenant never hit its quota: no 429s observed"
    )
    assert totals["shed_503"] > 0, (
        "the admission queue never shed: no 503s observed"
    )
    # ...and the server-side counters agree that shedding happened.
    assert report["server"]["queue_shed"] > 0
    # Overload did not zero throughput: the final (overload) stage still
    # completed a solid majority of the pre-overload stage's rate.
    overload = stages[-1]
    steady = stages[-2]
    assert overload["throughput_rps"] >= 0.5 * steady["throughput_rps"], (
        f"throughput collapsed under overload: "
        f"{overload['throughput_rps']:.0f} rps after "
        f"{steady['throughput_rps']:.0f} rps"
    )
    # Every response was a structured status, not a dropped connection.
    assert totals["conn_errors"] == 0

    # -- latency targets --------------------------------------------------------
    for stage in stages[:-1]:  # all pre-overload stages
        assert stage["latency_ms"]["p95"] <= P95_TARGET_MS, (
            f"stage {stage['rate_rps']} rps: p95 "
            f"{stage['latency_ms']['p95']:.1f} ms > {P95_TARGET_MS} ms"
        )
    validation = report["validation"]
    assert validation["count"] > 0
    assert validation["latency_ms"]["p99"] <= VALIDATION_P99_TARGET_MS
    assert len(validation["cdf"]) > 0

    # -- footprint --------------------------------------------------------------
    assert report["peak_rss_kib"] / 1024 <= PEAK_RSS_TARGET_MIB

    # -- bookkeeping converged --------------------------------------------------
    for tenant in report["tenant_usage"]:
        assert tenant["attachments"] == 0, (
            f"tenant {tenant['name']} leaked attachments: {tenant}"
        )
