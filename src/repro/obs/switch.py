"""The one telemetry switch: :func:`session`.

Three channels observe a run: the transaction tracer (:mod:`.trace`),
the event journal (:mod:`.events`) and the kernel profiler
(:mod:`.profiler`). Each module holds its collector in a module global
beside an ``ENABLED`` hot-path flag that instrumented call sites read
before anything else. This module sets both, and keeps each flag equal
to "a collector is installed".

Stdlib-only, like the rest of ``repro.obs``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from . import events as _events
from . import profiler as _profiler
from . import trace as _trace
from .events import EventLog
from .profiler import SimProfiler
from .trace import Tracer

__all__ = ["session", "all_off"]

#: Each channel: its module and the global holding its collector.
_CHANNELS = (
    (_trace, "_TRACER"),
    (_events, "_LOG"),
    (_profiler, "_PROFILER"),
)


def _install(channel, collector) -> None:
    module, name = channel
    setattr(module, name, collector)
    module.ENABLED = collector is not None


@contextmanager
def session(
    *,
    trace: Optional[Tracer] = None,
    events: Optional[EventLog] = None,
    profile: Optional[SimProfiler] = None,
) -> Iterator[None]:
    """Route telemetry into the given collectors for the block.

    Each collector given is installed; a channel given none keeps what
    it had, so a scenario that journals into its own log inside a
    traced block leaves tracing on. On exit, also on an exception,
    every channel the session changed gets its previous collector back,
    so sessions nest.
    """
    saved = []
    for channel, collector in zip(_CHANNELS, (trace, events, profile)):
        if collector is not None:
            saved.append((channel, getattr(*channel)))
            _install(channel, collector)
    try:
        yield
    finally:
        for channel, collector in saved:
            _install(channel, collector)


def all_off() -> None:
    """Switch every channel off: a process forked inside a session (a
    sweep pool worker) must not collect into its parent's copies."""
    for channel in _CHANNELS:
        _install(channel, None)
