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

from typing import Optional

from . import events as _events
from . import profiler as _profiler
from . import trace as _trace
from .events import EventLog
from .profiler import SimProfiler
from .trace import Tracer

__all__ = ["session"]

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


class session:
    """Route telemetry into the given collectors for the block.

    Each collector given is installed; a channel given none keeps what
    it had, so a scenario that journals into its own log inside a
    traced block leaves tracing on. On exit, also on an exception,
    every channel the session changed gets its previous collector back,
    so sessions nest.

    A plain class, not a generator context manager, so one session can
    be built once and entered many times: a rack domain enters its
    journal once per sync window.
    """

    __slots__ = ("_collectors", "_saved")

    def __init__(
        self,
        *,
        trace: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
        profile: Optional[SimProfiler] = None,
    ):
        self._collectors = (trace, events, profile)
        #: One list of (channel, previous collector) per open block.
        self._saved: list = []

    def __enter__(self) -> None:
        saved = []
        for channel, collector in zip(_CHANNELS, self._collectors):
            if collector is not None:
                saved.append((channel, getattr(*channel)))
                _install(channel, collector)
        self._saved.append(saved)

    def __exit__(self, *exc_info) -> None:
        for channel, collector in self._saved.pop():
            _install(channel, collector)
