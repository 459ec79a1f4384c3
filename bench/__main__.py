"""``python -m bench {run,trace,compare,point}``.

* ``point`` — one measuring run of one workload in this process. Its
  last stdout line is the result object ``BENCHMARK.json`` describes;
  the line before it is the full report.
* ``run`` — ``point`` runs in fresh subprocesses, round-robin across
  workloads for ``--repeat`` rounds; median, min, IQR and n per metric.
* ``trace`` — one ``point --trace 1`` run per workload: the per-layer
  ledger and its reconciliation checks.
* ``compare A B`` — verdicts between two ``run`` reports.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List

from .stats import ALL_WORKLOADS, BENCHMARK_E2E, METRICS, summarize, verdict

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_results"
#: Window of one run: five rounds of six workloads stay under 5 minutes
#: with ``run``, one pass of each under 3 with ``trace``.
_DEFAULT_SECONDS = {"run": 6.0, "trace": 5.0}


def _import_library():
    try:
        import repro  # noqa: F401
    except ModuleNotFoundError as exc:
        sys.exit(f"bench: cannot import the library ({exc}); run from a "
                 f"checkout that has src/repro")


# -- point -----------------------------------------------------------------------


def _point(args) -> int:
    _import_library()
    from .workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        from .ledger import PER_LAYER, trace

        report = trace(workload, args.seed, args.seconds, smoke=args.smoke)
        names = tuple((name, unit) for name, unit, _better in PER_LAYER)
    else:
        from .runner import measure

        report = measure(workload, args.seed, args.seconds, smoke=args.smoke)
        names = tuple((name, METRICS[name].unit) for name in BENCHMARK_E2E)
    print(json.dumps({"detail": report}))
    metrics = {
        name: {"value": report["metrics"].get(name, math.nan), "unit": unit}
        for name, unit in names
    }
    missing = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    if missing:
        print(f"bench: no measurement for {missing}; failures: "
              f"{report['failures']}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def _subprocess_point(name: str, seed: int, seconds: float, smoke: bool,
                      trace: bool) -> Dict:
    """One ``point`` run in a fresh interpreter; a failed or overrunning
    child comes back as one failed operation."""
    from .runner import watchdog_s

    command = [sys.executable, "-m", "bench", "point", "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    if smoke:
        command.append("--smoke")
    limit = watchdog_s(seconds) + 30.0
    failed = {"workload": name, "attempted": 1, "failed": 1, "metrics": {},
              "fingerprints": [], "correct": False}
    try:
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return dict(failed, failures=[f"no result within {limit:.0f} s"])
    for line in child.stdout.splitlines():
        if line.startswith('{"detail"'):
            return json.loads(line)["detail"]
    tail = child.stderr.strip().splitlines()[-5:]
    return dict(failed, failures=[f"exit {child.returncode}: " + " | ".join(tail)])


# -- run -------------------------------------------------------------------------


def _disagreements(details: List[Dict]) -> List[str]:
    """Runs of one seed replay the same inputs: for each input, every run
    whose simulated outcome differs from the most common one gets one
    more failed operation."""
    messages = []
    longest = max(len(d["fingerprints"]) for d in details)
    for index in range(longest):
        runs = [d for d in details if len(d["fingerprints"]) > index]
        seen = Counter(d["fingerprints"][index] for d in runs)
        if len(seen) < 2:
            continue
        common = seen.most_common(1)[0][0]
        for detail in runs:
            if detail["fingerprints"][index] != common:
                detail["failed"] += 1
                messages.append(f"input {index}: simulated outcome differs "
                                f"between repeats of one seed")
    return messages


def _aggregate(runs: Dict[str, List[Dict]]) -> Dict:
    """Per workload: ops, failures, and a summary of every metric."""
    out = {}
    for name, details in runs.items():
        failures = [f for d in details for f in d["failures"]]
        failures += _disagreements(details)
        for detail in details:
            detail["metrics"]["error_rate"] = (
                detail["failed"] / max(detail["attempted"], 1)
            )
        metrics = {}
        for metric in METRICS.values():
            if name not in metric.workloads:
                continue
            values = [d["metrics"][metric.name] for d in details
                      if metric.name in d["metrics"]]
            values = [v for v in values if math.isfinite(v)]
            if values:
                metrics[metric.name] = dict(
                    summarize(values), unit=metric.unit,
                    better=metric.better, values=values,
                )
        out[name] = {
            "attempted": sum(d["attempted"] for d in details),
            "failed": sum(d["failed"] for d in details),
            "failures": failures[:10],
            "metrics": metrics,
        }
    return out


def _run(args) -> int:
    _import_library()
    from .runner import host_info

    names = args.workloads
    runs: Dict[str, List[Dict]] = {name: [] for name in names}
    # Round-robin: every workload's run k happens before any run k+1, so
    # slow drift of the host hits every workload alike.
    for round_index in range(args.repeat):
        for name in names:
            detail = _subprocess_point(name, args.seed, args.seconds,
                                       args.smoke, trace=False)
            runs[name].append(detail)
            wall = detail["metrics"].get("wall_s", math.nan)
            print(f"run {round_index + 1}/{args.repeat} {name:<15} "
                  f"wall_s={wall:.4f} failed={detail['failed']}",
                  file=sys.stderr)
    report = {
        "schema": "bench-run/1",
        "host": host_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "smoke": args.smoke,
        "workloads": _aggregate(runs),
    }
    _write(args.out, report)
    _print_run(report)
    return 0 if all(w["failed"] == 0 for w in report["workloads"].values()) \
        else 1


def _print_run(report: Dict) -> None:
    print(f"{'workload':<15} {'metric':<18} {'median':>12} {'min':>12} "
          f"{'iqr':>10} {'n':>3}  unit")
    for name, workload in report["workloads"].items():
        for metric, s in workload["metrics"].items():
            print(f"{name:<15} {metric:<18} {s['median']:>12.6g} "
                  f"{s['min']:>12.6g} {s['iqr']:>10.4g} {s['n']:>3}  "
                  f"{s['unit']}")
        for failure in workload["failures"]:
            print(f"{name:<15} FAILED: {failure}")


def _write(path: Path, report: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


# -- trace -----------------------------------------------------------------------


def _trace(args) -> int:
    _import_library()
    details = {}
    for name in args.workloads:
        details[name] = _subprocess_point(name, args.seed, args.seconds,
                                          args.smoke, trace=True)
        _print_ledger(details[name])
    _write(args.out, {"schema": "bench-trace/1", "seed": args.seed,
                      "seconds": args.seconds, "smoke": args.smoke,
                      "workloads": details})
    return 0 if all(d["correct"] for d in details.values()) else 1


def _print_ledger(detail: Dict) -> None:
    name = detail["workload"]
    if "checks" not in detail:
        print(f"{name}: FAILED {detail.get('failures')}")
        return
    metrics, walls = detail["metrics"], detail["walls"]
    print(f"\n== {name}: profiled {walls['profiled_s']:.3f} s, ledger "
          f"{walls['host_ledger_s']:.3f} s, trace.overhead "
          f"{metrics['trace.overhead']:.3f}, checks {detail['checks']}")
    rows = sorted(
        (key.split(".", 1)[1] for key in metrics if key.startswith("host_s.")),
        key=lambda layer: -metrics[f"host_s.{layer}"],
    )
    for layer in rows:
        if metrics[f"host_s.{layer}"] > 0:
            print(f"  host  {layer:<22} {metrics[f'host_s.{layer}']:9.4f} s "
                  f"{100 * metrics[f'host_share.{layer}']:6.2f} %  "
                  f"{metrics[f'calls.{layer}']:>10.0f} calls")
    for key, value in metrics.items():
        if key.startswith("sim_share.") and value:
            print(f"  sim   {key[10:]:<22} {100 * value:6.2f} %")
    for key, value in metrics.items():
        if not key.startswith(("host_", "calls.", "sim_share.")) and value:
            print(f"  layer {key:<28} {value:.6g}")


# -- compare ---------------------------------------------------------------------


def _compare(args) -> int:
    base = json.loads(Path(args.baseline).read_text())["workloads"]
    new = json.loads(Path(args.candidate).read_text())["workloads"]
    print(f"{'workload':<15} {'metric':<18} {'baseline':>22} "
          f"{'candidate':>22} {'change':>8} {'bound':>14}  verdict")
    bad = 0
    for name in (w for w in ALL_WORKLOADS if w in base and w in new):
        for metric in METRICS.values():
            a = base[name]["metrics"].get(metric.name)
            b = new[name]["metrics"].get(metric.name)
            if a is None or b is None:
                continue
            result, change = verdict(metric, a["values"], b["values"])
            bad += result in ("worse", "unresolved")
            bound = " | ".join(
                text for value, text in (
                    (metric.rel, f"{100 * metric.rel:.0f}%"),
                    (metric.floor, f"{metric.floor:g} abs"),
                ) if value
            ) or "exact"
            shown = (f"{100 * change:+.1f}%" if a["median"]
                     else f"{change:+.3g}")
            print(f"{name:<15} {metric.name:<18} "
                  f"{a['median']:>12.6g} ±{a['iqr']:<8.3g} "
                  f"{b['median']:>12.6g} ±{b['iqr']:<8.3g} "
                  f"{shown:>8} {bound:>14}  {result}")
    return 1 if bad else 0


# -- command line ------------------------------------------------------------------


def _workload_list(text: str) -> List[str]:
    names = [name for name in text.split(",") if name]
    unknown = sorted(set(names) - set(ALL_WORKLOADS))
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown workloads {unknown}")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    point = commands.add_parser("point", help="one measuring run")
    point.add_argument("--workload", required=True, choices=ALL_WORKLOADS)
    point.add_argument("--seed", type=int, default=17)
    point.add_argument("--seconds", type=float, required=True)
    point.add_argument("--trace", type=int, choices=(0, 1), default=0)
    point.add_argument("--smoke", action="store_true")
    point.set_defaults(func=_point)

    for name, func, help_text in (
        ("run", _run, "end-to-end metrics, fresh process per run "
                      "(default 6 s x 5 rounds)"),
        ("trace", _trace, "per-layer ledger, one pass per workload "
                          "(default 5 s)"),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--workloads", type=_workload_list,
                         default=list(ALL_WORKLOADS))
        sub.add_argument("--seed", type=int, default=17)
        sub.add_argument("--seconds", type=float)
        sub.add_argument("--smoke", action="store_true",
                         help="small units, 1 s windows, one round")
        sub.add_argument("--out", type=Path, default=RESULTS / f"{name}.json")
        if name == "run":
            sub.add_argument("--repeat", type=int)
        sub.set_defaults(func=func)

    compare = commands.add_parser("compare", help="verdicts between runs")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    compare.set_defaults(func=_compare)

    args = parser.parse_args(argv)
    if args.command in ("run", "trace") and args.seconds is None:
        args.seconds = 1.0 if args.smoke else _DEFAULT_SECONDS[args.command]
    if args.command == "run" and args.repeat is None:
        args.repeat = 1 if args.smoke else 5
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
