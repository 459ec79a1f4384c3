"""Self-tests of the benchmark: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from bench.__main__ import _aggregate, main
from bench.stats import (
    ALL_WORKLOADS,
    BENCHMARK_E2E,
    METRICS,
    Metric,
    percentile,
    summarize,
    verdict,
)

ROOT = Path(__file__).resolve().parent.parent


# -- statistics ------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [7, 1, 9, 3, 5, 2, 8, 4, 10, 6]
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 99) == 10
    assert percentile(values, 100) == 10
    assert percentile(values, 10) == 1
    assert percentile(values, 11) == 2
    assert percentile([4.0], 99) == 4.0
    assert percentile(range(1, 14), 50) == 7  # the median, not the 6th
    # 99 % of 4000 samples leaves exactly 40 above the p99.
    ranked = list(range(4000))
    assert sum(v > percentile(ranked, 99) for v in ranked) == 40


@pytest.mark.parametrize("bad", [0, -1, 100.5])
def test_percentile_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        percentile([1.0], bad)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summarize_reports_median_min_iqr_n():
    summary = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert summary["median"] == 3.0
    assert summary["min"] == 1.0
    assert summary["n"] == 5
    assert summary["iqr"] == pytest.approx(52.0 - 1.5)
    assert summarize([2.5])["iqr"] == 0.0


# -- verdicts ---------------------------------------------------------------------

WALL = Metric("t_s", "s", "lower", 0.10, 0.0, ("stream",))  # 10 % bound


def test_verdict_unchanged_within_bound():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(WALL, base, [1.05, 1.04, 1.06, 1.05, 1.03])[0] == \
        "unchanged"


def test_verdict_worse_beyond_bound():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    result, change = verdict(WALL, base, [1.20, 1.21, 1.19, 1.22, 1.20])
    assert result == "worse"
    assert change == pytest.approx(0.20)


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
    assert verdict(WALL, noisy, [0.9, 1.1, 1.4, 0.75, 1.0])[0] == \
        "unresolved"
    # ... unless every new run beats every baseline run.
    assert verdict(WALL, noisy, [0.5, 0.55, 0.6, 0.52, 0.58])[0] == \
        "improved"


def test_verdict_improved_needs_separation_and_more_than_spread():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(WALL, base, [0.90, 0.91, 0.92, 0.90, 0.89])[0] == \
        "improved"
    # Better median but overlapping runs: not a claimable gain.
    assert verdict(WALL, base, [0.97, 1.005, 0.96, 0.98, 0.95])[0] == \
        "unchanged"


def test_verdict_higher_is_better_and_exact_bounds():
    bandwidth = METRICS["sim_bw_gib_s"]
    assert verdict(bandwidth, [1.3163] * 5, [1.3163] * 5)[0] == "unchanged"
    assert verdict(bandwidth, [1.3163] * 5, [1.3162] * 5)[0] == "worse"
    assert verdict(bandwidth, [1.3163] * 5, [1.4] * 5)[0] == "improved"
    rtt = METRICS["sim_rtt_ns"]
    assert verdict(rtt, [1033.11] * 3, [1033.12] * 3)[0] == "worse"


def test_verdict_absolute_bounds():
    refused = METRICS["ctl_refused_frac"]
    assert verdict(refused, [0.0] * 5, [0.004] * 5)[0] == "unchanged"
    assert verdict(refused, [0.0] * 5, [0.006] * 5)[0] == "worse"
    errors = METRICS["error_rate"]
    # One failing run in five: the median is unmoved but the spread
    # exceeds a bound of zero, so it is not "unchanged".
    assert verdict(errors, [0.0] * 5, [0.0, 0.0, 0.001, 0.0, 0.0])[0] == \
        "unresolved"
    assert verdict(errors, [0.0] * 5, [0.001] * 5)[0] == "worse"


def test_compare_exit_code_and_rows(tmp_path, capsys):
    def report(values):
        return {"workloads": {"stream": {"metrics": {"wall_s": dict(
            summarize(values), unit="s", better="lower", values=values)}}}}

    base = tmp_path / "a.json"
    same = tmp_path / "b.json"
    slow = tmp_path / "c.json"
    base.write_text(json.dumps(report([1.0, 1.01, 0.99])))
    same.write_text(json.dumps(report([1.0, 1.02, 0.98])))
    slow.write_text(json.dumps(report([1.3, 1.31, 1.29])))
    assert main(["compare", str(base), str(same)]) == 0
    assert "unchanged" in capsys.readouterr().out
    assert main(["compare", str(base), str(slow)]) == 1
    assert "worse" in capsys.readouterr().out


def test_repeats_that_disagree_count_as_failures():
    def detail(*fingerprints):
        return {"attempted": 10, "failed": 0,
                "fingerprints": list(fingerprints), "failures": [],
                "metrics": {"wall_s": 1.0, "setup_s": 0.1,
                            "peak_rss_mib": 60.0}}

    out = _aggregate({"stream": [detail("a", "x"), detail("a", "x", "y"),
                                 detail("b", "x")]})
    assert out["stream"]["failed"] == 1
    assert out["stream"]["metrics"]["error_rate"]["values"] == [0, 0, 0.1]


# -- ledger ------------------------------------------------------------------------


def test_caller_charging_on_a_synthetic_table():
    """Layer-less self-time climbs to the nearest layered callers, split
    by the edges' cumulative time; totals are preserved."""
    from bench.ledger import host_ledger

    layers = {"llc_fn": "llc", "plan_fn": "control.planner",
              "bench_fn": "harness"}
    table = {
        # function: [calls, self s, {caller: [calls, cumulative s]}]
        "bench_fn": [1, 0.1, {}],
        "llc_fn": [10, 2.0, {"bench_fn": [10, 5.0]}],
        "plan_fn": [4, 1.0, {"bench_fn": [4, 3.0]}],
        # stdlib helper called from both layers, 3:1 by cumulative time
        "heapq": [50, 0.8, {"llc_fn": [40, 0.9], "plan_fn": [10, 0.3]}],
        # builtin under the helper: charged through it
        "builtin": [80, 0.4, {"heapq": [80, 0.4]}],
        # mutual recursion with one way out
        "rec_a": [5, 0.2, {"rec_b": [2, 0.1], "plan_fn": [3, 0.5]}],
        "rec_b": [2, 0.1, {"rec_a": [2, 0.3]}],
        # no caller at all: the harness's
        "orphan": [1, 0.05, {}],
    }
    ledger = host_ledger(table, layer_for=layers.get)
    host = ledger["host_s"]
    assert host["llc"] == pytest.approx(2.0 + 0.75 * 1.2)
    assert host["control.planner"] == pytest.approx(1.0 + 0.25 * 1.2 + 0.3)
    assert host["harness"] == pytest.approx(0.15)
    assert sum(host.values()) == pytest.approx(
        sum(row[1] for row in table.values()))
    assert ledger["calls"] == {"harness": 1, "llc": 10, "control.planner": 4}


def test_edges_without_time_split_by_calls():
    from bench.ledger import host_ledger

    table = {
        "a": [3, 1.0, {}],
        "b": [1, 1.0, {}],
        "tiny": [4, 0.4, {"a": [3, 0.0], "b": [1, 0.0]}],
    }
    host = host_ledger(table, layer_for={"a": "llc", "b": "net"}.get)
    assert host["host_s"] == pytest.approx({"llc": 1.3, "net": 1.1})


def test_layer_of_maps_modules_to_layers():
    import repro
    from bench.ledger import LAYERS, layer_of

    base = os.path.dirname(repro.__file__)
    cases = {
        "sim/engine.py": "sim", "sim/domains.py": "sim.domains",
        "core/llc.py": "llc", "core/flow.py": "llc",
        "core/rmmu.py": "rmmu", "core/routing.py": "routing",
        "core/endpoints.py": "endpoints", "opencapi/bus.py": "opencapi",
        "control/graph.py": "control.planner",
        "control/server.py": "control.server",
        "control/health.py": "control.orchestrator",
        "sweep/engine.py": "other", "errors.py": "other",
    }
    for relative, layer in cases.items():
        assert layer_of(os.path.join(base, relative)) == layer
        assert layer in LAYERS
    assert layer_of(__file__) == "harness"
    assert layer_of(json.__file__) is None
    assert layer_of("~") is None
    assert layer_of("<string>") is None


class _Record:
    def __init__(self, marks):
        self.marks = marks

    start = property(lambda self: self.marks[0][0])
    end = property(lambda self: self.marks[-1][0])

    def segments(self):
        return [(stage, t0, self.marks[i + 1][0], "")
                for i, (t0, stage, _) in enumerate(self.marks[:-1])]


def test_sim_ledger_telescopes_exactly():
    from bench.ledger import sim_ledger

    records = [
        _Record([(0.1, "bus.issue", ""), (0.1 + 3e-9, "llc.frame", ""),
                 (0.1 + 1e-7, "dram.service", ""), (0.1 + 2e-7, "complete", "")]),
        _Record([(1e-9, "bus.issue", ""), (7e-9, "llc.frame", ""),
                 (1.1e-8, "complete", "")]),
    ]
    ledger = sim_ledger(records)
    assert ledger["telescopes"]
    assert ledger["traced_txns"] == 2
    assert sum(ledger["share"].values()) == pytest.approx(1.0)


def test_sim_ledger_flags_spans_that_do_not_tile():
    from bench.ledger import sim_ledger

    class Gappy(_Record):
        def segments(self):
            return [("bus.issue", 0.0, 1.0, ""), ("llc.frame", 1.5, 2.0, "")]

    assert not sim_ledger([Gappy([(0.0, "bus.issue", ""),
                                  (2.0, "complete", "")])])["telescopes"]


# -- workloads -----------------------------------------------------------------------


def test_fig1_unit_is_run_fig1_experiment():
    from dataclasses import asdict

    from repro.cluster.simulation import (
        run_fig1_experiment,
        scaled_trace_config,
    )

    from bench.workloads import WORKLOADS, _digest

    workload = WORKLOADS["fig1_replay"]
    result = workload.unit(workload.setup(5, 30))
    reports = run_fig1_experiment(scaled_trace_config(30, seed=5), units=30)
    assert result.fingerprint == _digest(
        {k: asdict(r) for k, r in reports.items()})


def test_benchmark_json_matches_the_code():
    from bench.ledger import PER_LAYER
    from bench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "-m", "bench", "point"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(ALL_WORKLOADS)
    assert list(WORKLOADS) == list(ALL_WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert [m["name"] for m in spec["end_to_end"]] == list(BENCHMARK_E2E)
    for entry in spec["end_to_end"]:
        metric = METRICS[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == \
            (metric.unit, metric.better, metric.rel)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    assert all(set(m) == {"name", "unit", "better"}
               for m in spec["per_layer"])


@pytest.mark.parametrize("name", ALL_WORKLOADS)
def test_smoke_point_runs(name, capsys):
    """Every workload, both modes: the printed schema, correctness and
    the ledger's reconciliation checks."""
    from bench.ledger import PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, names in ((0, [m["name"] for m in spec["end_to_end"]]),
                         (1, [m for m, _, _ in PER_LAYER])):
        code = main(["point", "--workload", name, "--seed", "11",
                     "--seconds", "1", "--trace", str(trace), "--smoke"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], detail["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == names
        for value in result["metrics"].values():
            assert set(value) == {"value", "unit"}
            assert math.isfinite(value["value"])
        if trace:
            assert all(detail["checks"].values()), detail["checks"]
            shares = [result["metrics"][f"host_share.{layer}"]["value"]
                      for layer in {m.split(".", 1)[1] for m in names
                                    if m.startswith("host_share.")}]
            assert sum(shares) == pytest.approx(1.0)


def test_point_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, a run exits non-zero
    and prints no result."""
    import shutil
    import subprocess
    import sys

    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "-m", "bench", "point", "--workload", "stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""

