"""repro.sweep — parallel experiment engine with a result cache.

The layer every large-scale campaign runs on (see
``docs/performance.md``): describe each run as a declarative, hashable
:class:`RunSpec`; fan independent specs out over worker processes with
:class:`SweepEngine`; and front execution with the content-addressed
:class:`ResultCache` so a configuration is never simulated twice for
the same code. Parallel results are bit-identical to serial ones
(``tests/test_sweep_determinism.py`` enforces this), and warm re-runs
return without simulating at all.

Quick use::

    from repro.sweep import make_spec, SweepEngine

    specs = [make_spec("slice:fig8.config", kind=k, samples=30_000)
             for k in ("local", "scale-out")]
    outcomes = SweepEngine(jobs="auto").run(specs)

Figure regeneration goes through :func:`run_figures` (the
``python -m repro figures --jobs N`` CLI is a thin wrapper over it).
"""

from .bootstrap import (
    normalize_jobs,
    pool_worker_init,
    resolve_jobs,
    worker_run_snapshot,
)
from .cache import ResultCache, default_cache_dir
from .engine import SweepEngine, SweepOutcome, resolve_target
from .fingerprint import combine_fingerprints, file_digest, source_fingerprint
from .runner import figure_specs, run_figures
from .spec import RunSpec, make_spec

__all__ = [
    "RunSpec",
    "make_spec",
    "ResultCache",
    "default_cache_dir",
    "SweepEngine",
    "SweepOutcome",
    "normalize_jobs",
    "resolve_jobs",
    "pool_worker_init",
    "worker_run_snapshot",
    "resolve_target",
    "figure_specs",
    "run_figures",
    "source_fingerprint",
    "file_digest",
    "combine_fingerprints",
]
