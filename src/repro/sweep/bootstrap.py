"""Worker-process bootstrap for the sweep engine's process pool.

The sweep engine fans independent :class:`~repro.sweep.RunSpec` runs
out over a ``ProcessPoolExecutor``. This module holds what its workers
and its callers share:

* **Tracing hygiene** — a worker forked mid-trace would inherit the
  parent's live tracer; every worker starts from a clean
  observability slate.
* **Job-count normalization** — :func:`normalize_jobs` turns
  ``'auto'`` into the CPU count.
* **Registry capture** — :func:`worker_run_snapshot` is the flattened
  per-run metrics record workers ship back for the parent registry to
  ``merge_flat``.
"""

from __future__ import annotations

import os
from typing import Dict, Union

from ..obs import MetricsRegistry, disable_tracing

__all__ = [
    "normalize_jobs",
    "pool_worker_init",
    "worker_run_snapshot",
]


def normalize_jobs(jobs: Union[int, str, None]) -> int:
    """``'auto'`` -> CPU count; anything else -> positive int."""
    if jobs in (None, "", "auto"):
        return max(1, os.cpu_count() or 1)
    count = int(jobs)
    if count < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {jobs!r}")
    return count


def pool_worker_init() -> None:
    """Initializer every pool worker runs before its first task.

    A worker forked mid-trace would inherit the parent's live tracer;
    every task must simulate from a clean observability slate.
    """
    disable_tracing()


def worker_run_snapshot(pool: str, elapsed_s: float,
                        **labels: str) -> Dict[str, float]:
    """Flattened per-run metrics record a worker ships to its parent.

    Each run returns ``{pool}.worker.runs`` / ``{pool}.worker.busy_s``
    series; the parent folds them with
    :meth:`~repro.obs.MetricsRegistry.merge_flat` so N workers' busy
    time sums into one fleet-wide summary.
    """
    registry = MetricsRegistry(f"{pool}-worker")
    registry.gauge(f"{pool}.worker.runs", **labels).adjust(1)
    registry.gauge(f"{pool}.worker.busy_s", **labels).adjust(elapsed_s)
    return registry.snapshot()
