"""One measuring run of one workload, with telemetry off.

A batch workload runs units for ``WARMUP_S`` untimed, then sets up and
runs fresh units until ``seconds`` have passed. Unit ``k`` replays its
own input, generated from ``(seed, k)``: the run's median then averages
over many inputs instead of timing one input many times, which keeps it
steady from seed to seed where the work depends on the input (the
cluster replay's attach count does). The timed units restart at
``k = 0``, so each input the warm-up ran is run again and must produce
the same simulated outcome.

An open-loop workload warms up on several short windows, each on a
freshly booted server, then boots once more and serves one window of
``seconds`` of arrivals; ``setup_s`` is the median boot.

Failures never escape a unit: they are counted against the operations
attempted.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import signal
import sys
import traceback
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List

from .stats import summarize
from .workloads import UnitResult, Workload

__all__ = ["host_info", "measure", "unit_seed", "unit_size", "watchdog",
           "watchdog_s"]

#: Untimed work before timing starts: the first seconds of a process
#: were seen to run slow (a fixed Python loop took 1.5x as long in the
#: first 2 s as afterwards).
WARMUP_S = 2.0
#: Timed units a batch run makes at least, however short ``seconds``.
MIN_UNITS = 3
#: Warm-up windows of an open-loop run, each on its own server; with
#: the measured window's, their boots give ``setup_s``.
BOOTS = 9
#: Failure messages kept in a report.
KEEP_FAILURES = 10


def unit_size(workload: Workload, seconds: float, smoke: bool):
    if workload.open_loop:
        return seconds
    return workload.smoke_size if smoke else workload.size


def unit_seed(seed: int, index: int) -> int:
    """The input seed of unit ``index`` of a run seeded with ``seed``."""
    digest = hashlib.sha256(f"bench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:6], "little")


def watchdog_s(seconds: float) -> float:
    """Three times the expected length of a run: its window, plus
    warm-up and start-up."""
    return 3.0 * (seconds + WARMUP_S + 8.0)


class RunOverrun(Exception):
    """The run took more than three times its expected time."""


@contextmanager
def watchdog(limit_s: float):
    def expire(_signum, _frame):
        raise RunOverrun(f"run exceeded its {limit_s:.0f} s watchdog")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _Tally:
    """Operations attempted and failed; fingerprints per input."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.fingerprints: Dict[int, str] = {}

    def fail(self, ops: int, message: str) -> None:
        self.attempted += ops
        self.failed += ops
        if len(self.failures) < KEEP_FAILURES:
            self.failures.append(message)

    def add(self, result: UnitResult, index: int) -> None:
        self.attempted += result.ops
        self.failed += len(result.failures)
        for message in result.failures[: KEEP_FAILURES - len(self.failures)]:
            self.failures.append(message)
        if result.fingerprint is None:
            return
        known = self.fingerprints.setdefault(index, result.fingerprint)
        if known != result.fingerprint:
            self.fail(1, f"input {index}: simulated outcome differs between "
                         f"two runs of it: {result.fingerprint} != {known}")


def _one(workload: Workload, seed: int, index: int, size, tally: _Tally):
    """Set up and run unit ``index``; returns (setup s, unit s, result).

    Every unit starts from a collected heap, so the cyclic collector
    runs at the same points in each one instead of landing on whichever
    unit crosses its threshold.
    """
    gc.collect()
    started = perf_counter()
    try:
        state = workload.setup(unit_seed(seed, index), size)
        built = perf_counter()
        try:
            result = workload.unit(state)
        finally:
            workload.teardown(state)
        done = perf_counter()
    except RunOverrun:
        raise
    except Exception as exc:  # one broken unit must not end the run
        traceback.print_exc(file=sys.stderr)
        tally.fail(1, f"input {index}: {type(exc).__name__}: {exc}")
        return None
    tally.add(result, index)
    return built - started, done - built, result


def host_info() -> Dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def measure(workload: Workload, seed: int, seconds: float,
            smoke: bool = False) -> Dict:
    """Measure ``workload`` for ``seconds``; returns the run's report."""
    size = unit_size(workload, seconds, smoke)
    tally = _Tally()
    setups: List[float] = []
    walls: List[float] = []
    values: Dict[str, float] = {}
    with watchdog(watchdog_s(seconds)):
        try:
            if workload.open_loop:
                _measure_open_loop(workload, seed, size, tally, setups,
                                   walls, values)
            else:
                _measure_batch(workload, seed, seconds, size, tally, setups,
                               walls, values)
        except Exception as exc:  # a broken run still reports
            traceback.print_exc(file=sys.stderr)
            tally.fail(1, f"{type(exc).__name__}: {exc}")
    metrics = {
        "wall_s": summarize(walls)["median"] if walls else math.nan,
        "setup_s": summarize(setups)["median"] if setups else math.nan,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": tally.failed / max(tally.attempted, 1),
    }
    metrics.update(values)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "size": size,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "fingerprints": [
            tally.fingerprints[k] for k in sorted(tally.fingerprints)
        ],
        "correct": tally.failed == 0 and bool(walls),
        "metrics": metrics,
        "spread": {
            name: summarize(samples)
            for name, samples in (("wall_s", walls), ("setup_s", setups))
            if samples
        },
        "host": host_info(),
    }


def _measure_batch(workload, seed, seconds, size, tally, setups, walls,
                   values) -> None:
    warm_until = perf_counter() + WARMUP_S
    index = 0
    while index == 0 or perf_counter() < warm_until:
        _one(workload, seed, index, size, tally)
        index += 1
    deadline = perf_counter() + seconds
    index = 0
    while len(walls) < MIN_UNITS or perf_counter() < deadline:
        outcome = _one(workload, seed, index, size, tally)
        if outcome is not None:
            setup_s, wall_s, result = outcome
            setups.append(setup_s)
            walls.append(wall_s)
            if index == 0:
                # Simulated values come from input 0, which every run of
                # a seed replays, so they compare exactly between runs.
                values.update(result.values)
        elif perf_counter() >= deadline:
            return
        index += 1


def _measure_open_loop(workload, seed, size, tally, setups, walls,
                       values) -> None:
    # Warm-up: BOOTS short windows, each on a freshly booted server, so
    # the timed boots are spread over seconds instead of one burst.
    for boot in range(BOOTS + 1):
        last = boot == BOOTS
        gc.collect()
        started = perf_counter()
        state = workload.setup(unit_seed(seed, 0 if last else -1 - boot),
                               size if last else min(size, WARMUP_S / BOOTS))
        setups.append(perf_counter() - started)
        try:
            result = workload.unit(state)
        finally:
            workload.teardown(state)
        tally.add(result, 0 if last else -1 - boot)
    walls.extend(x for x in result.latencies if math.isfinite(x))
    values.update(result.values)
