"""Cluster replay engine: rack domains under the domain coordinator.

Glue between :mod:`repro.cluster.topology` (what one rack does) and
:mod:`repro.sim.domains` (how racks advance together): synthesize the
trace once, build one domain per rack from its slice, hand the
coordinator the trace horizon and the inter-rack latency as the
conservative lookahead, then assemble the per-rack artifacts into one
deterministic cluster artifact.

The artifact contract is the headline of this subsystem: everything in
:func:`run_cluster`'s first return value derives from ``(config,
seed)`` alone — no wall-clock, no job count, no pid — so a parallel
run is byte-identical to a serial one and CI can ``cmp`` the files.
Runtime provenance (jobs, wall/busy seconds) travels in the *second*
return value, never in the artifact.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Tuple

from ..obs import MetricsRegistry
from ..obs.events import merge_event_streams
from ..sim.domains import DomainCoordinator
from .topology import TASK_CLASSES, ClusterConfig, cluster_trace_events

__all__ = ["BUILDER_TARGET", "run_cluster", "write_artifacts"]

#: Importable-by-name builder the pool workers resolve.
BUILDER_TARGET = "py:repro.cluster.topology:build_rack_domain"


def run_cluster(
    config: ClusterConfig,
    jobs: int = 1,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Replay the cluster trace across ``config.racks`` rack domains.

    Returns ``(artifact, runtime)``. ``artifact`` is deterministic and
    byte-comparable across job counts; ``runtime`` carries the
    non-deterministic provenance (``jobs``, ``wall_s``, ``busy_s``,
    speedup inputs). When ``registry`` is given, every rack's metric
    snapshot is merged into it with a ``domain="rackN"`` label.
    """
    events, horizon = cluster_trace_events(config)
    slices = [[] for _ in range(config.racks)]
    for event in events:
        slices[event.task.task_id % config.racks].append(event)
    builders = [
        (BUILDER_TARGET, {"rack_index": rack, "config": config,
                          "events": slices[rack], "horizon": horizon})
        for rack in range(config.racks)
    ]
    coordinator = DomainCoordinator(
        builders,
        lookahead=config.inter_rack_latency,
        horizon=horizon,
        jobs=jobs,
    )
    result = coordinator.run()
    racks = result["artifacts"]

    journal = merge_event_streams(
        {f"rack{artifact['rack']}": artifact["events"] for artifact in racks}
    )
    if registry is not None:
        for artifact in racks:
            registry.merge_flat(
                artifact["metrics"], domain=f"rack{artifact['rack']}"
            )

    classes = {name: 0 for name in TASK_CLASSES}
    counters: Dict[str, int] = {}
    tasks = 0
    for artifact in racks:
        stats = artifact["stats"]
        tasks += stats["tasks"]
        for name, value in stats["classes"].items():
            classes[name] += value
        for name, value in stats["counters"].items():
            counters[name] = counters.get(name, 0) + value

    artifact = {
        "config": config.describe(),
        "horizon": horizon,
        "rounds": result["rounds"],
        "messages": result["messages"],
        "summary": {
            "tasks": tasks,
            "classes": classes,
            "counters": dict(sorted(counters.items())),
            "journal_events": len(journal),
        },
        "racks": [
            {
                "rack": rack["rack"],
                "sim_now": rack["sim_now"],
                "stats": rack["stats"],
                "metrics": rack["metrics"],
                "events_total": rack["events_total"],
                "events_evicted": rack["events_evicted"],
            }
            for rack in racks
        ],
        "journal": journal,
    }
    runtime = {
        "jobs": result["jobs"],
        "wall_s": result["wall_s"],
        "busy_s": result["busy_s"],
    }
    return artifact, runtime


def write_artifacts(artifact: Dict[str, Any], out_dir: str) -> Dict[str, str]:
    """Write ``cluster-summary.json`` + ``cluster-journal.jsonl``.

    Canonical serialization (sorted keys, fixed indent, trailing
    newline) so two runs of the same config produce files ``cmp`` can
    diff byte-for-byte — the CI determinism gate.
    """
    os.makedirs(out_dir, exist_ok=True)
    summary = {key: value for key, value in artifact.items()
               if key != "journal"}
    summary_path = os.path.join(out_dir, "cluster-summary.json")
    with open(summary_path, "w") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    journal_path = os.path.join(out_dir, "cluster-journal.jsonl")
    lines = [json.dumps(record, sort_keys=True)
             for record in artifact["journal"]]
    with open(journal_path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return {"summary": summary_path, "journal": journal_path}
