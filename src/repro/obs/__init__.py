"""repro.obs — end-to-end observability for the simulated stack.

The cooperating pieces (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — a span-based transaction tracer. Every
  instrumented component marks the stage boundaries a transaction
  crosses (bus issue, RMMU translate, routing, LLC framing, wire,
  DRAM service, completion); the tracer derives contiguous per-layer
  spans from those marks, so one transaction's child spans tile its
  end-to-end latency exactly.
* :mod:`repro.obs.metrics` — a hierarchical registry of counters,
  gauges and histograms with label sets. Components expose their
  counters through ``register_metrics`` hooks; the registry pulls them
  at snapshot time, so the hot path pays nothing.
* :mod:`repro.obs.export` — exporters: Chrome ``trace_event`` JSON
  (loadable in Perfetto / chrome://tracing), a flat metrics snapshot
  dict/JSON, and a human-readable end-of-run summary table built on
  :mod:`repro.obs.summary`.
* :mod:`repro.obs.promtext` — Prometheus text-format exposition of the
  registry plus the strict parser the tests round-trip through.
* :mod:`repro.obs.events` — a bounded structured event journal
  (JSON-lines) of control/resilience/endpoint happenings, with
  sim-time and correlation ids linking events to trace spans.
* :mod:`repro.obs.profiler` — a sampling profiler over the
  discrete-event kernel attributing host time to component/phase,
  exported as folded stacks for flame graphs.
* :mod:`repro.obs.slo` — declarative service-level objectives
  evaluated against the registry, with breach events and a CI exit
  mode.

One switch turns the three collecting channels on and off, for a
block::

    tracer, log, profiler = Tracer(), EventLog(), SimProfiler()
    with session(trace=tracer, events=log, profile=profiler):
        ...  # run the workload

:func:`session` installs the collectors it is given, leaves the other
channels as they are, and on exit (also on an exception) gives every
channel it changed its previous collector back, so sessions nest.
Callers build the collectors, which own their knobs: ``sample_every``
on :class:`Tracer`, ``capacity`` on :class:`EventLog`, ``stride`` on
:class:`SimProfiler`. :func:`active_event_log` reads the installed
journal. ``enable_tracing``/``disable_tracing`` remain only for the
benchmark ledger and are deleted with ROADMAP item 5.

Instrumentation is **off by default**: every call site is guarded by
its channel's module-level ``ENABLED`` flag (such as
:data:`repro.obs.trace.ENABLED`), checked before any allocation, so
the fast-path wins of the simulation kernel are preserved when
observability is not requested. When on, 1-in-N
transaction sampling (``sample_every``) bounds tracing volume further.

This package deliberately imports nothing from the rest of ``repro``
(stdlib only): the simulation kernel itself hooks into it, and a
dependency back into :mod:`repro.sim` would be circular.
"""

from .trace import (
    Tracer,
    TxnRecord,
    disable_tracing,
    enable_tracing,
)
from .metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    parse_qualified,
)
from .summary import RunSummary, summary_from_snapshot
from .export import (
    chrome_trace,
    render_metrics_summary,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from .promtext import (
    CONTENT_TYPE,
    PromParseError,
    parse_prometheus,
    render_prometheus,
)
from .events import (
    Event,
    EventLog,
    active_event_log,
    merge_event_streams,
    validate_event_jsonl,
)
from .profiler import SimProfiler
from .switch import session
from .slo import (
    SloEngine,
    SloReport,
    SloSpec,
    parse_slo_specs,
)

__all__ = [
    "session",
    "Tracer",
    "TxnRecord",
    "enable_tracing",
    "disable_tracing",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "parse_qualified",
    "RunSummary",
    "summary_from_snapshot",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "write_metrics_json",
    "render_metrics_summary",
    "CONTENT_TYPE",
    "PromParseError",
    "render_prometheus",
    "parse_prometheus",
    "Event",
    "EventLog",
    "active_event_log",
    "merge_event_streams",
    "validate_event_jsonl",
    "SimProfiler",
    "SloSpec",
    "SloEngine",
    "SloReport",
    "parse_slo_specs",
]
