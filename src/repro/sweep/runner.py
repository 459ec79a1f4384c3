"""Figure regeneration on top of the sweep engine.

``repro.figures`` describes every figure as a *plan*: a title, headers,
a formatter and an ordered list of independent slice calls (see
``repro.figures.FIGURE_PLANS``). This module turns plans into
:class:`~repro.sweep.RunSpec` lists, executes them through one
:class:`~repro.sweep.SweepEngine` — all figures' slices in one run,
each served from the cache when it can be — and formats the slices'
numbers into the same ``(title, headers, rows)`` tables the serial
functions return, so cold and warm output are byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..figures import FIGURE_PLANS, FigurePlan, FigureTable, tabulate
from .engine import SweepEngine
from .spec import RunSpec, make_spec

__all__ = ["figure_specs", "run_figures"]


def figure_specs(
    name: str,
    fingerprint: Optional[str] = None,
    **kwargs: Any,
) -> Tuple[FigurePlan, List[RunSpec]]:
    """One figure's plan and its slice calls as specs."""
    plan = FIGURE_PLANS[name](**kwargs)
    specs = [
        make_spec(f"slice:{slice_name}", fingerprint=fingerprint, **call_kwargs)
        for slice_name, call_kwargs in plan.calls
    ]
    return plan, specs


def run_figures(
    names: Optional[Sequence[str]] = None,
    *,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    figure_kwargs: Optional[Dict[str, Dict[str, Any]]] = None,
    engine: Optional[SweepEngine] = None,
) -> Tuple[Dict[str, FigureTable], SweepEngine]:
    """Regenerate figures through the engine.

    Returns ``(tables, engine)`` where ``tables`` maps figure name to
    the familiar ``(title, headers, rows)`` tuple and ``engine`` holds
    the cache statistics and the per-target run metrics.
    ``figure_kwargs`` optionally overrides one figure's plan kwargs,
    e.g. ``{"fig8": {"samples": 500_000}}``.
    """
    if names is None:
        names = sorted(FIGURE_PLANS)
    unknown = [name for name in names if name not in FIGURE_PLANS]
    if unknown:
        raise KeyError(
            f"unknown figure(s) {unknown}; available: "
            f"{sorted(FIGURE_PLANS)}"
        )
    if engine is None:
        engine = SweepEngine(cache=cache, cache_dir=cache_dir)

    layout = []  # (name, plan, first spec index, spec count)
    all_specs: List[RunSpec] = []
    for name in names:
        overrides = (figure_kwargs or {}).get(name, {})
        plan, specs = figure_specs(name, **overrides)
        layout.append((name, plan, len(all_specs), len(specs)))
        all_specs.extend(specs)

    outcomes = engine.run(all_specs)

    tables: Dict[str, FigureTable] = {}
    for name, plan, start, count in layout:
        values = [outcome.value for outcome in outcomes[start:start + count]]
        tables[name] = tabulate(plan, values)
    return tables, engine
