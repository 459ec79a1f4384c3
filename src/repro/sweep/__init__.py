"""repro.sweep — experiment engine with a result cache.

Describe each run as a declarative, hashable :class:`RunSpec`; run a
list of specs with :class:`SweepEngine`, which fronts execution with
the content-addressed :class:`ResultCache` so a configuration is never
simulated twice for the same code. Cache misses run in this process,
and a warm re-run is byte-identical to the cold one
(``tests/test_sweep_determinism.py`` enforces this) without simulating
at all.

Quick use::

    from repro.sweep import make_spec, SweepEngine

    specs = [make_spec("slice:fig8.config", kind=k, samples=30_000)
             for k in ("local", "scale-out")]
    outcomes = SweepEngine().run(specs)

Figure regeneration goes through :func:`run_figures` (the
``python -m repro figures`` CLI is a thin wrapper over it).
"""

from .cache import ResultCache, default_cache_dir
from .engine import SweepEngine, SweepOutcome, check_spec, resolve_target
from .fingerprint import source_fingerprint
from .runner import figure_specs, run_figures
from .spec import RunSpec, make_spec

__all__ = [
    "RunSpec",
    "make_spec",
    "ResultCache",
    "default_cache_dir",
    "SweepEngine",
    "SweepOutcome",
    "check_spec",
    "resolve_target",
    "figure_specs",
    "run_figures",
    "source_fingerprint",
]
