"""Command line: regenerate paper figures, run the demo, trace, sweep.

Every command is one entry of :data:`COMMANDS`, which builds both the
parser and the dispatch. ``python -m repro --help`` lists the commands;
``python -m repro <command> --help`` shows one command's options.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .figures import FIGURES, render


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fraction(text: str) -> float:
    """argparse type: a float in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _workload_bytes(text: str) -> int:
    """argparse type: a size rounded down to 256 B, at least 256."""
    nbytes = int(text)
    return max(256, nbytes - nbytes % 256)


def _add_bytes_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bytes",
        type=_workload_bytes,
        default=128 * 1024,
        dest="nbytes",
        help="workload size in bytes (rounded down to 256 B, min 256)",
    )


def _add_slo_argument(parser: argparse.ArgumentParser, note: str) -> None:
    parser.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="SPEC",
        dest="slos",
        help="SLO spec 'name: metric{k=v,...} op threshold' " + note,
    )


def _run_figure(args, parser) -> int:
    names = sorted(FIGURES) if args.command == "all" else [args.command]
    for name in names:
        print(render(FIGURES[name]()))
        print()
    return 0


def _run_list(args, parser) -> int:
    for command in COMMANDS:
        if command.name in FIGURES:
            print(f"{command.name:6s} {command.help}")
    return 0


def _run_demo(args, parser) -> int:
    from .mem import MIB
    from .obs import MetricsRegistry, RunSummary, summary_from_snapshot
    from .testbed import Testbed

    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    window = testbed.remote_window_range(attachment)
    payload = bytes(range(128))
    testbed.node0.run_store(window.start, payload)
    assert testbed.node0.run_load(window.start) == payload
    for _ in range(16):
        testbed.node0.run_load(window.start)
    rtt = testbed.node0.device.compute.rtt.mean
    testbed.detach(attachment)

    summary = RunSummary("repro demo — attach, store/load, detach")
    summary.section("attachment")
    summary.row("size", "4 MiB of node1 on node0")
    summary.row(
        "real-address window", f"[{window.start:#x}, {window.end:#x})"
    )
    summary.row("NUMA node", attachment.plan.numa_node_id)
    summary.section("datapath")
    summary.row("remote load/store", "roundtrip OK")
    summary.row("unloaded RTT", rtt * 1e9, "ns")
    summary.section("control plane")
    summary.row("teardown", "detached cleanly")
    print(summary.render())

    registry = MetricsRegistry()
    testbed.register_observability(registry)
    print()
    print(
        summary_from_snapshot(
            "end-of-run metrics",
            registry.snapshot(),
            prefixes=["bus", "endpoint", "llc", "dram"],
        ).render()
    )
    return 0


# -- traced workloads ------------------------------------------------------------


def _trace_stream(nbytes: int):
    """STREAM-style bulk transfer: burst write + read-back over the wire."""
    from .mem import MIB
    from .osmodel import PagePolicy
    from .testbed import RemoteBuffer, Testbed

    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    buffer = RemoteBuffer.allocate(
        testbed.node0,
        nbytes,
        policy=PagePolicy.BIND,
        numa_nodes=[attachment.plan.numa_node_id],
        batched=True,
    )
    blob = bytes(range(256)) * (nbytes // 256)
    buffer.write(0, blob)
    assert buffer.read(0, nbytes) == blob
    buffer.free()
    return testbed


def _trace_pingpong(nbytes: int):
    """Per-cacheline load/store roundtrips (latency-bound)."""
    from .mem import MIB
    from .testbed import Testbed

    testbed = Testbed()
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    window = testbed.remote_window_range(attachment)
    payload = bytes(range(128))
    rounds = max(1, min(nbytes // 128, 64))
    for index in range(rounds):
        testbed.node0.run_store(window.start + index * 128, payload)
        testbed.node0.run_load(window.start + index * 128)
    return testbed


def _trace_fault(nbytes: int):
    """Forced frame drops on channel 0 exercising the LLC replay path."""
    from .mem import MIB
    from .net.faults import FaultInjector
    from .testbed import Testbed

    injector = FaultInjector()
    testbed = Testbed(fault_injectors={0: injector})
    attachment = testbed.attach("node0", 4 * MIB, memory_host="node1")
    window = testbed.remote_window_range(attachment)
    payload = bytes(range(128))
    testbed.node0.run_store(window.start, payload)
    injector.force_drop_next(2)
    rounds = max(4, min(nbytes // 128, 32))
    for _ in range(rounds):
        testbed.node0.run_load(window.start)
    return testbed


_TRACE_WORKLOADS = {
    "stream": _trace_stream,
    "pingpong": _trace_pingpong,
    "fault": _trace_fault,
}


def _build_trace_workload(workload: str, nbytes: int):
    """Run a traced workload from transaction id 1, as a fresh process
    would, so its artifacts do not depend on what ran before."""
    from .opencapi.transactions import reset_txn_ids

    reset_txn_ids()
    return _TRACE_WORKLOADS[workload](nbytes)


def _trace_arguments(parser: argparse.ArgumentParser) -> None:
    from .resilience import SCENARIOS

    parser.add_argument(
        "workload",
        choices=sorted(_TRACE_WORKLOADS) + ["chaos"],
        nargs="?",
        help="workload to trace",
    )
    _add_bytes_argument(parser)
    parser.add_argument(
        "--sample",
        type=_positive_int,
        default=1,
        help="trace 1 in N transactions (default: every transaction)",
    )
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="link-kill-failover",
        help="resilience scenario for the chaos workload",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="scenario seed for the chaos workload",
    )
    parser.add_argument(
        "--out",
        default="trace-artifacts",
        help="output directory for the exported artifacts",
    )


def _run_trace(args, parser) -> int:
    if args.workload is None:
        parser.print_help()
        return 0
    if args.workload == "chaos":
        return _trace_chaos(args)

    from .obs import (
        MetricsRegistry,
        Tracer,
        render_metrics_summary,
        session,
        write_chrome_trace,
        write_metrics_json,
    )

    os.makedirs(args.out, exist_ok=True)
    tracer = Tracer(sample_every=args.sample)
    with session(trace=tracer):
        testbed = _build_trace_workload(args.workload, args.nbytes)
    registry = MetricsRegistry()
    testbed.register_observability(registry)

    trace_path = os.path.join(args.out, f"trace-{args.workload}.json")
    metrics_path = os.path.join(args.out, f"metrics-{args.workload}.json")
    write_chrome_trace(tracer, trace_path)
    write_metrics_json(registry, metrics_path)
    print(render_metrics_summary(registry, f"repro trace {args.workload}"))
    print()
    completed = len(tracer.completed())
    print(
        f"traced {len(tracer.transactions)} transactions "
        f"({completed} completed end-to-end, 1-in-{tracer.sample_every} "
        f"sampling)"
    )
    print(f"chrome trace : {trace_path}")
    print(f"metrics json : {metrics_path}")
    return 0


def _trace_chaos(args) -> int:
    """Traced resilience scenario: validated Chrome trace + journal."""
    from .obs import Tracer, chrome_trace, session, validate_chrome_trace
    from .resilience import run_scenario

    os.makedirs(args.out, exist_ok=True)
    tracer = Tracer(sample_every=args.sample)
    with session(trace=tracer):
        result = run_scenario(args.scenario, seed=args.seed)

    document = chrome_trace(tracer)
    count = validate_chrome_trace(document)

    stem = f"chaos-{args.scenario}"
    trace_path = os.path.join(args.out, f"trace-{stem}.json")
    metrics_path = os.path.join(args.out, f"metrics-{stem}.json")
    events_path = os.path.join(args.out, f"events-{stem}.jsonl")
    with open(trace_path, "w") as handle:
        json.dump(document, handle)
        handle.write("\n")
    with open(metrics_path, "w") as handle:
        json.dump(result["metrics"], handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(events_path, "w") as handle:
        for event in result["events"]:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")

    verdict = "OK" if result["verified"] else "FAILED"
    print(f"chaos {args.scenario} (seed {args.seed}): {verdict}")
    print(
        f"traced {len(tracer.transactions)} transactions, "
        f"{count} chrome-trace events (validated), "
        f"{len(result['events'])} journal events"
    )
    slo = result.get("slo")
    if slo is not None:
        print(f"SLOs: {slo['total'] - slo['breached']}/{slo['total']} ok")
    print(f"chrome trace : {trace_path}")
    print(f"metrics json : {metrics_path}")
    print(f"event journal: {events_path}")
    return 0 if result["verified"] else 1


# -- telemetry pipeline -----------------------------------------------------------


def _metrics_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "workload",
        choices=sorted(_TRACE_WORKLOADS),
        nargs="?",
        help="workload to run with telemetry on",
    )
    _add_bytes_argument(parser)
    parser.add_argument(
        "--stride",
        type=_positive_int,
        default=1024,
        help="profiler sampling stride in kernel events",
    )
    _add_slo_argument(
        parser, "(repeatable); any breach makes the exit code non-zero"
    )
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="profiler components to show in the top-N table",
    )
    parser.add_argument(
        "--out",
        default="metrics-artifacts",
        help="output directory for the exported artifacts",
    )


def _run_metrics(args, parser) -> int:
    if args.workload is None:
        parser.print_help()
        return 0

    from .obs import (
        EventLog,
        MetricsRegistry,
        SimProfiler,
        parse_prometheus,
        render_prometheus,
        session,
    )
    from .obs.slo import SloEngine, parse_slo_specs

    specs = parse_slo_specs(args.slos)

    os.makedirs(args.out, exist_ok=True)
    log = EventLog()
    profiler = SimProfiler(stride=args.stride)
    # SLOs are evaluated inside the session so breach events land in
    # the journal with the workload as correlation context.
    with session(events=log, profile=profiler):
        testbed = _build_trace_workload(args.workload, args.nbytes)
        registry = MetricsRegistry()
        testbed.register_observability(registry)
        report = None
        if specs:
            report = SloEngine(specs).evaluate(
                registry,
                now=testbed.sim.now,
                context={"workload": args.workload},
            )

    exposition = render_prometheus(registry)
    parsed = parse_prometheus(exposition)  # strict self-check

    prom_path = os.path.join(args.out, f"metrics-{args.workload}.prom")
    events_path = os.path.join(args.out, f"events-{args.workload}.jsonl")
    folded_path = os.path.join(args.out, f"profile-{args.workload}.folded")
    with open(prom_path, "w") as handle:
        handle.write(exposition)
    log.write_jsonl(events_path)
    profiler.write_folded(folded_path)

    print(exposition, end="")
    print()
    print(profiler.top_table(args.top).render())
    if report is not None:
        print()
        print(report.render())
    print()
    print(
        f"{len(parsed['samples'])} series across "
        f"{len(parsed['types'])} families (strict parse OK); "
        f"{log.total} journal events ({log.evicted} evicted); "
        f"{profiler.samples_taken} profiler samples @ stride {args.stride}"
    )
    print(f"exposition   : {prom_path}")
    print(f"event journal: {events_path}")
    print(f"folded stacks: {folded_path}")
    return report.exit_code() if report is not None else 0


# -- sweep-engine subcommands ----------------------------------------------------


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache entirely",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: benchmarks/results/cache)",
    )


def _make_engine(args):
    from .sweep import SweepEngine

    return SweepEngine(cache=not args.no_cache, cache_dir=args.cache_dir)


def _figures_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="figure",
        help=f"figure ids to regenerate (default: all of "
             f"{', '.join(sorted(FIGURES))})",
    )
    _add_engine_arguments(parser)


def _run_figures(args, parser) -> int:
    from .obs import summary_from_snapshot
    from .sweep import run_figures

    names = args.figures or sorted(FIGURES)
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        parser.error(
            f"unknown figure(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(FIGURES))})"
        )
    tables, engine = run_figures(names, engine=_make_engine(args))
    for name in names:
        print(render(tables[name]))
        print()
    print(engine.stats_line())
    if engine.executed:
        print()
        print(
            summary_from_snapshot(
                "sweep metrics",
                engine.registry.snapshot(),
                prefixes=["sweep"],
            ).render()
        )
    return 0


def _parse_value(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_assignment(parser, option: str, text: str):
    if "=" not in text:
        parser.error(f"{option} expects KEY=VALUE, got {text!r}")
    key, _, value = text.partition("=")
    return key, value


def _sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "target", help="target to run (slice:<name> or figure:<name>)"
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="fixed",
        help="fixed kwarg for every run (VALUE parsed as JSON, else string)",
    )
    parser.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        dest="swept",
        help="kwarg swept over comma-separated values (cartesian product)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object per run instead of the table",
    )
    _add_engine_arguments(parser)


def _run_sweep(args, parser) -> int:
    from .sweep import check_spec, make_spec

    fixed = dict(
        (key, _parse_value(value))
        for key, value in (
            _parse_assignment(parser, "--set", item) for item in args.fixed
        )
    )
    axes = []
    for item in args.swept:
        key, values = _parse_assignment(parser, "--sweep", item)
        axes.append(
            (key, [_parse_value(value) for value in values.split(",")])
        )

    grids = [dict(zip([k for k, _ in axes], combo))
             for combo in itertools.product(*[v for _, v in axes])]
    specs = [make_spec(args.target, **{**fixed, **grid}) for grid in grids]
    try:
        for spec in specs:
            check_spec(spec)
    except (KeyError, TypeError) as error:
        parser.error(error.args[0])
    engine = _make_engine(args)
    outcomes = engine.run(specs)

    for outcome in outcomes:
        record = {
            "key": outcome.spec.key,
            "target": outcome.spec.target,
            "kwargs": outcome.spec.kwargs,
            "cached": outcome.cached,
            "elapsed_s": round(outcome.elapsed_s, 6),
            "result": outcome.value,
        }
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            preview = json.dumps(outcome.value)
            if len(preview) > 72:
                preview = preview[:69] + "..."
            source = "cache" if outcome.cached else "run"
            print(
                f"{outcome.spec.key[:12]}  {source:5s} "
                f"{outcome.elapsed_s:8.3f}s  "
                f"{outcome.spec.kwargs_json}  {preview}"
            )
    print(engine.stats_line())
    return 0


# -- chaos engineering -----------------------------------------------------------


def _chaos_arguments(parser: argparse.ArgumentParser) -> None:
    from .resilience import SCENARIOS

    parser.add_argument(
        "scenario",
        choices=sorted(SCENARIOS),
        nargs="?",
        help="scenario to run",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="campaign/workload seed (same seed => identical metrics)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory for the chaos-<scenario>.json artifact",
    )


def _run_chaos(args, parser) -> int:
    if args.scenario is None:
        parser.print_help()
        return 0

    from .resilience import run_scenario

    result = run_scenario(args.scenario, seed=args.seed)
    verdict = "OK" if result["verified"] else "FAILED"
    print(f"chaos {args.scenario} (seed {args.seed}): {verdict}")
    for key in ("failed_at_offset", "failovers", "endpoint_retries",
                "frames_dropped", "drained_at_s"):
        if key in result:
            print(f"  {key:18s} {result[key]}")
    if "report" in result:
        report = result["report"]
        print(
            f"  failover           #{report['old_attachment']} "
            f"({report['old_memory_host']}) -> "
            f"#{report['new_attachment']} ({report['new_memory_host']}) "
            f"in {report['recovery_time_s'] * 1e6:.1f} us, "
            f"{report['replayed_bytes']} bytes replayed"
        )
    if "slo" in result:
        slo = result["slo"]
        print(
            f"  SLOs               {slo['total'] - slo['breached']}"
            f"/{slo['total']} ok, {len(result.get('events', []))} "
            f"journal events"
        )
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"chaos-{args.scenario}.json")
        with open(path, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"result json : {path}")
    return 0 if result["verified"] else 1


# -- multi-rack cluster replay ----------------------------------------------------


def _cluster_arguments(parser: argparse.ArgumentParser) -> None:
    from .cluster import ClusterConfig

    parser.add_argument(
        "--racks", type=_positive_int, default=4,
        help="rack domains (each a full packet-switched testbed)",
    )
    parser.add_argument(
        "--nodes", type=int, default=4,
        help="nodes per rack; first half borrow, second half lend",
    )
    parser.add_argument(
        "--scale", type=_fraction, default=None,
        help="size the logical-machine fleet as a fraction of the "
             "Google trace's 12555 machines (overrides --machines)",
    )
    parser.add_argument(
        "--machines", type=int, default=None,
        help="logical machines across the cluster (default 160)",
    )
    parser.add_argument(
        "--tasks", type=int, default=None,
        help="trace length; default sizes it from the machine count",
    )
    parser.add_argument(
        "--sample", type=_fraction, default=1.0,
        help="deterministically keep this fraction of the trace's "
             "tasks (0 < f <= 1)",
    )
    parser.add_argument(
        "--seed", type=int, default=17,
        help="trace seed (same seed + config => identical artifact)",
    )
    parser.add_argument(
        "--local-fraction", type=float, metavar="F",
        default=ClusterConfig.local_memory_fraction,
        help="machine memory that is local; tasks above it lease from "
             "the rack pool (default 0.1)",
    )
    parser.add_argument(
        "--latency", type=float, metavar="T",
        default=ClusterConfig.inter_rack_latency,
        help="one-way inter-rack latency in trace time units — also "
             "the sync lookahead / window width (default 50)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="crash each rack's first memory lender mid-run "
             "(force-detach its leases, remap borrowers)",
    )
    parser.add_argument(
        "--out", default=None,
        help="directory for cluster-summary.json + cluster-journal.jsonl",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the summary JSON instead of the text rendering",
    )


def _run_cluster(args, parser) -> int:
    from .cluster import (
        GOOGLE_TRACE_MACHINES,
        ClusterConfig,
        run_cluster,
        write_artifacts,
    )

    machines = args.machines
    if args.scale is not None:
        machines = max(args.racks, round(GOOGLE_TRACE_MACHINES * args.scale))
    config = ClusterConfig(
        racks=args.racks,
        nodes_per_rack=args.nodes,
        machines=machines if machines is not None else 160,
        tasks=args.tasks,
        seed=args.seed,
        sample=args.sample,
        chaos=args.chaos,
        local_memory_fraction=args.local_fraction,
        inter_rack_latency=args.latency,
    )

    artifact, runtime = run_cluster(config)
    summary = artifact["summary"]

    if args.json:
        print(json.dumps(
            {
                "config": artifact["config"],
                "horizon": artifact["horizon"],
                "rounds": artifact["rounds"],
                "messages": artifact["messages"],
                "summary": summary,
                "runtime": runtime,
            },
            sort_keys=True,
        ))
    else:
        print(
            f"cluster : {config.racks} racks x {config.nodes_per_rack} "
            f"nodes, {config.machines} machines, "
            f"{summary['tasks']} tasks, seed {config.seed}"
            f"{', chaos' if config.chaos else ''}"
        )
        print(
            f"sync    : {artifact['rounds']} windows of "
            f"{config.inter_rack_latency:g} (horizon "
            f"{artifact['horizon']:.0f}), {artifact['messages']} "
            "inter-rack messages"
        )
        total = max(summary["tasks"], 1)
        share = "  ".join(
            f"{name} {100.0 * count / total:.1f}%"
            for name, count in summary["classes"].items()
        )
        print(f"classes : {share}")
        counters = {k: v for k, v in summary["counters"].items() if v}
        if counters:
            print(
                "traffic : "
                + "  ".join(f"{k} {v}" for k, v in sorted(counters.items()))
            )
        print(f"wall    : {runtime['wall_s']:.2f} s")
    if args.out is not None:
        paths = write_artifacts(artifact, args.out)
        print(f"summary : {paths['summary']}")
        print(f"journal : {paths['journal']}")
    return 0


# -- control-plane server + load test --------------------------------------------


def _serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080,
                        help="0 picks an ephemeral port")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-depth", type=int, default=256,
                        help="bounded admission-queue depth")


def _run_serve(args, parser) -> int:
    import asyncio

    from .control.api import RestApi
    from .control.qos import QosClass
    from .control.server import ControlServer, ServerConfig
    from .obs import EventLog, MetricsRegistry, session
    from .testbed import Testbed

    async def serve() -> None:
        testbed = Testbed()
        registry = MetricsRegistry()
        api = RestApi(testbed.plane, registry=registry)
        demo_tenant = testbed.plane.register_tenant(
            "demo", qos=QosClass.BURSTABLE,
            max_attachments=16, max_bytes=64 << 20,
        )
        server = ControlServer(
            api,
            ServerConfig(host=args.host, port=args.port,
                         workers=args.workers,
                         max_queue_depth=args.queue_depth),
            registry=registry,
        )
        await server.start()
        print(f"listening    : http://{args.host}:{server.port}")
        print(f"admin token  : {testbed.admin_token}")
        print(f"demo tenant  : {demo_tenant} (burstable)")
        print(f"catalogue    : GET /v1   (unauthenticated)")
        print(f"scrape       : GET /v1/metrics")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining ...")
            await server.drain()
            print(f"served {server.requests_served} requests, "
                  f"shed {server.queue.shed_count}")

    try:
        with session(events=EventLog()):
            asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def _loadtest_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--smoke", action="store_true",
                        help="short CI preset (seconds, still sheds)")
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument("--out", default="BENCH_control.json")
    parser.add_argument("--json", action="store_true",
                        help="print the full report as JSON")


def _run_loadtest(args, parser) -> int:
    from .control.loadgen import run_control_benchmark

    report = run_control_benchmark(
        smoke=args.smoke, queue_depth=args.queue_depth
    )
    report["preset"] = "smoke" if args.smoke else "full"
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    print(f"preset  : {report['preset']}  "
          f"(queue depth {args.queue_depth})")
    print("stage      offered      ok  tput_rps   p50_ms   p95_ms   p99_ms")
    for stage in report["stages"]:
        lat = stage["latency_ms"]
        print(f"{stage['rate_rps']:>7.0f}/s  {stage['offered']:>7} "
              f"{stage['ok']:>7}  {stage['throughput_rps']:>8.1f} "
              f"{lat['p50']:>8.1f} {lat['p95']:>8.1f} {lat['p99']:>8.1f}")
    totals = report["totals"]
    validation = report["validation"]
    print(f"shed    : {totals['quota_429']} x 429 (quota), "
          f"{totals['shed_503']} x 503 (overload/headroom)")
    print(f"validate: n={validation['count']} "
          f"p50={validation['latency_ms']['p50']:.1f}ms "
          f"p99={validation['latency_ms']['p99']:.1f}ms")
    print(f"peak rss: {report['peak_rss_kib'] / 1024:.1f} MiB")
    print(f"report  : {args.out}")
    return 0


# -- entry point -----------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One subcommand: ``arguments(parser)`` adds its options to its
    subparser; ``run(args, parser)`` gets that subparser back and returns
    the exit code."""

    name: str
    help: str
    run: Callable[[argparse.Namespace, argparse.ArgumentParser], int]
    arguments: Callable[[argparse.ArgumentParser], None] = lambda parser: None
    description: Optional[str] = None
    epilog: Optional[str] = None


#: Every ``python -m repro`` command, in ``--help`` order.
COMMANDS = (
    Command("list", "list every regenerable figure", _run_list),
    Command("all", "regenerate every figure serially", _run_figure),
    *(
        Command(name, fn.__doc__.strip().splitlines()[0], _run_figure)
        for name, fn in sorted(FIGURES.items())
    ),
    Command("demo", "attach/detach walk-through with summary", _run_demo),
    Command(
        "trace",
        "traced workload run with Chrome-trace + metrics artifacts",
        _run_trace,
        _trace_arguments,
        description="Run one workload with end-to-end tracing enabled and "
                    "write the Chrome-trace JSON "
                    "(Perfetto/chrome://tracing), the metrics snapshot JSON "
                    "and a terminal summary. The 'chaos' workload traces a "
                    "resilience scenario (--scenario) and additionally "
                    "writes its event journal.",
    ),
    Command(
        "metrics",
        "telemetry run: Prometheus exposition, event log, profiler",
        _run_metrics,
        _metrics_arguments,
        description="Run one workload with the full telemetry pipeline "
                    "enabled (metrics registry + structured event log + "
                    "host-time profiler) and print the registry in Prometheus "
                    "text exposition format. Writes the exposition, the "
                    "JSON-lines event journal and a flame-graph "
                    "folded-stacks profile; --slo evaluates declarative "
                    "objectives against the final registry and exits "
                    "non-zero on breach.",
    ),
    Command(
        "figures",
        "cached figure regeneration (--no-cache, --cache-dir)",
        _run_figures,
        _figures_arguments,
        description="Regenerate paper figures through the sweep engine: "
                    "cached slices are not recomputed, and the rest run in "
                    "this process. Output tables are byte-identical to the "
                    "serial figure functions.",
    ),
    Command(
        "sweep",
        "fan a target out over a parameter grid (--sweep k=v1,v2)",
        _run_sweep,
        _sweep_arguments,
        description="Fan one target out over a parameter grid through the "
                    "sweep engine. Targets: 'slice:<name>' (figure slices) "
                    "and 'figure:<name>' (whole figures).",
        epilog="example: python -m repro sweep slice:fig8.config --sweep "
               "kind=local,scale-out --set samples=10000",
    ),
    Command(
        "chaos",
        "deterministic fault-recovery scenario (--seed N, --out DIR)",
        _run_chaos,
        _chaos_arguments,
        description="Run one deterministic fault-recovery scenario (seeded "
                    "campaigns, monitored failover, journal replay) and "
                    "print its verdict; optionally write the full JSON "
                    "result with a sorted metrics snapshot for byte-for-byte "
                    "diffing.",
    ),
    Command(
        "cluster",
        "multi-rack trace replay under conservative time sync "
        "(--racks N, --scale S, --chaos)",
        _run_cluster,
        _cluster_arguments,
        description="Rack-domain simulation: replay the cluster trace as "
                    "live attach/detach/steal traffic across N rack "
                    "testbeds, each its own simulation domain under "
                    "conservative (Chandy-Misra) time sync. The artifact is "
                    "byte-identical for the same config.",
        epilog="examples: python -m repro cluster --racks 4 --tasks 2000; "
               "python -m repro cluster --scale 0.013 --chaos --out "
               "cluster-artifacts",
    ),
    Command(
        "serve",
        "serve the control plane over HTTP (--port, --workers)",
        _run_serve,
        _serve_arguments,
        description="Boot the prototype testbed and serve its control plane "
                    "over HTTP (asyncio, stdlib-only). Prints the issued "
                    "credentials; Ctrl-C drains gracefully.",
    ),
    Command(
        "loadtest",
        "throughput-vs-latency load test of the control-plane server "
        "(--smoke, --out BENCH_control.json)",
        _run_loadtest,
        _loadtest_arguments,
        description="Open-loop load test of the control-plane HTTP server: "
                    "stages of rising request rate against three tenants "
                    "(guaranteed/burstable/best-effort), reporting "
                    "throughput, latency percentiles, the validation-latency "
                    "CDF, shed counts and peak RSS to BENCH_control.json.",
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "ThymesisFlow (MICRO 2020) reproduction: regenerate the "
            "paper's figures from the simulated stack."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command in COMMANDS:
        sub_parser = sub.add_parser(
            command.name,
            help=command.help,
            description=command.description,
            epilog=command.epilog,
        )
        command.arguments(sub_parser)
        sub_parser.set_defaults(
            run=functools.partial(command.run, parser=sub_parser)
        )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly the way
        # well-behaved Unix filters do (128 + SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
