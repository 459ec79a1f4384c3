"""Datacentre-scale study: trace, models, scheduler, multi-rack replay."""

from .models import (
    AllocationFailure,
    DisaggregatedDatacentre,
    FixedDatacentre,
    Placement,
)
from .replay import run_cluster, write_artifacts
from .simulation import (
    UtilizationReport,
    replay_trace,
    run_fig1_experiment,
    scaled_trace_config,
)
from .topology import (
    GOOGLE_TRACE_MACHINES,
    TASK_CLASSES,
    ClusterConfig,
    RackDomain,
    RackPool,
    build_rack_domain,
    cluster_trace_events,
    machines_in_rack,
)
from .trace import (
    EventKind,
    TaskRequest,
    TraceConfig,
    TraceEvent,
    downsample_trace,
    ratio_span_orders_of_magnitude,
    synthesize_trace,
    trace_window,
)

__all__ = [
    "TaskRequest",
    "TraceEvent",
    "EventKind",
    "TraceConfig",
    "synthesize_trace",
    "downsample_trace",
    "trace_window",
    "ratio_span_orders_of_magnitude",
    "GOOGLE_TRACE_MACHINES",
    "ClusterConfig",
    "RackPool",
    "RackDomain",
    "TASK_CLASSES",
    "build_rack_domain",
    "cluster_trace_events",
    "machines_in_rack",
    "run_cluster",
    "write_artifacts",
    "FixedDatacentre",
    "DisaggregatedDatacentre",
    "Placement",
    "AllocationFailure",
    "UtilizationReport",
    "replay_trace",
    "run_fig1_experiment",
    "scaled_trace_config",
]
