"""Differential determinism of the sweep engine.

The contract the result cache rests on:

* a figure regenerated through the engine is **byte-identical** to the
  serial ``fig*()`` function;
* a warm (cached) re-run is byte-identical to the cold run;
* the content address commits to target, kwargs and source
  fingerprint — change any one and the cache cold-runs.
"""

import json
import os

import pytest

from repro.figures import FIGURES, render
from repro.obs import MetricsRegistry, parse_qualified
from repro.sweep import (
    ResultCache,
    SweepEngine,
    check_spec,
    make_spec,
    run_figures,
    source_fingerprint,
)

#: Small figure parameterizations so the differential run stays quick.
SMALL = {
    "fig5": {"threads": (4, 8)},
    "fig6": {"partitions": (4, 16)},
    "fig7": {"partitions": (4,)},
    "fig8": {"samples": 3_000},
    "fig9": {"shards": (5,)},
    "rtt": {"samples": 4},
}


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestEngineMatchesSerial:
    def test_cold_and_cached_runs_match_serial(self, cache_dir):
        names = sorted(SMALL)
        serial = {
            name: render(FIGURES[name](**SMALL[name])) for name in names
        }

        tables, engine = run_figures(
            names, cache_dir=cache_dir,
            figure_kwargs={k: dict(v) for k, v in SMALL.items()},
        )
        assert engine.executed > 0 and engine.cache_hits == 0
        for name in names:
            assert render(tables[name]) == serial[name], name

        # Warm re-run: everything served from cache, still identical.
        warm_tables, warm_engine = run_figures(
            names, cache_dir=cache_dir,
            figure_kwargs={k: dict(v) for k, v in SMALL.items()},
        )
        assert warm_engine.executed == 0
        assert warm_engine.cache_hits == warm_engine.specs_seen > 0
        for name in names:
            assert render(warm_tables[name]) == serial[name], name

    def test_serial_engine_matches_direct_call(self, cache_dir):
        tables, _ = run_figures(
            ["fig8"], cache_dir=cache_dir,
            figure_kwargs={"fig8": {"samples": 2_000}},
        )
        assert render(tables["fig8"]) == render(FIGURES["fig8"](samples=2_000))


class TestRunSpecKeys:
    def test_key_is_stable_and_canonical(self):
        a = make_spec("slice:fig8.config", kind="local", samples=100)
        b = make_spec("slice:fig8.config", samples=100, kind="local")
        assert a.key == b.key
        assert a == b

    def test_key_commits_to_every_field(self):
        base = make_spec("slice:fig8.config", kind="local", samples=100)
        assert base.key != make_spec(
            "slice:fig8.config", kind="local", samples=101
        ).key
        assert base.key != make_spec(
            "slice:fig9.case", kind="local", samples=100
        ).key
        assert base.key != make_spec(
            "slice:fig8.config", kind="local", samples=100, fingerprint="x"
        ).key

    def test_kwargs_round_trip_to_json_types(self):
        spec = make_spec("slice:fig6.workload", workload="A",
                         partitions=(4, 16))
        assert spec.kwargs == {"workload": "A", "partitions": [4, 16]}

    def test_default_fingerprint_is_source_tree(self):
        spec = make_spec("slice:rtt.loads", samples=1)
        assert spec.fingerprint == source_fingerprint()
        assert len(spec.fingerprint) == 64

    def test_explicit_fingerprint_untouched(self):
        from repro.sweep import make_spec

        spec = make_spec("slice:fig8.config", fingerprint="pinned")
        assert spec.fingerprint == "pinned"


class TestResultCache:
    def test_fingerprint_mismatch_is_a_miss(self, cache_dir):
        cache = ResultCache(cache_dir)
        old = make_spec("slice:rtt.loads", fingerprint="old-code", samples=1)
        cache.put(old, [["row"]], elapsed_s=0.1)
        assert cache.get(old)["result"] == [["row"]]
        new = make_spec("slice:rtt.loads", fingerprint="new-code", samples=1)
        assert cache.get(new) is None

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        cache = ResultCache(cache_dir)
        spec = make_spec("slice:rtt.loads", fingerprint="f", samples=1)
        cache.put(spec, {"ok": True}, elapsed_s=0.0)
        with open(os.path.join(cache_dir, f"{spec.key}.json"), "w") as fh:
            fh.write("{not json")
        assert cache.get(spec) is None

    def test_prune_removes_stale_entries(self, cache_dir):
        cache = ResultCache(cache_dir)
        cache.put(make_spec("slice:rtt.loads", fingerprint="old", samples=1),
                  1, 0.0)
        keep = make_spec("slice:rtt.loads", fingerprint="new", samples=1)
        cache.put(keep, 2, 0.0)
        assert cache.prune("new") == 1
        assert cache.entries() == [keep.key]

    def test_entry_file_is_content_addressed_json(self, cache_dir):
        cache = ResultCache(cache_dir)
        spec = make_spec("slice:rtt.loads", fingerprint="f", samples=3)
        path = cache.put(spec, [[1, 2]], elapsed_s=0.5)
        assert os.path.basename(path) == f"{spec.key}.json"
        with open(path) as fh:
            envelope = json.load(fh)
        assert envelope["kwargs"] == {"samples": 3}
        assert envelope["fingerprint"] == "f"
        assert envelope["result"] == [[1, 2]]


class TestRegistryMerge:
    def test_merge_flat_sums_across_snapshots(self):
        rack_a = MetricsRegistry("a")
        rack_a.gauge("cluster.attaches", kind="borrow").adjust(2)
        rack_a.gauge("cluster.busy_s", kind="borrow").adjust(0.5)
        rack_b = MetricsRegistry("b")
        rack_b.gauge("cluster.attaches", kind="borrow").adjust(3)

        parent = MetricsRegistry("parent")
        parent.merge_flat(rack_a.snapshot())
        parent.merge_flat(rack_b.snapshot())
        snapshot = parent.snapshot()
        assert snapshot["cluster.attaches{kind=borrow}"] == 5
        assert snapshot["cluster.busy_s{kind=borrow}"] == 0.5

    def test_parse_qualified_inverts_rendering(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("llc.replays", endpoint="tf.llc0", node="n0")
        assert parse_qualified(gauge.qualified) == (
            "llc.replays", {"endpoint": "tf.llc0", "node": "n0"}
        )
        assert parse_qualified("plain.name") == ("plain.name", {})


class TestEngineBasics:
    def test_engine_records_per_target_runs(self, cache_dir):
        engine = SweepEngine(cache_dir=cache_dir)
        specs = [
            make_spec("slice:fig5.threads", count=count) for count in (4, 8)
        ]
        outcomes = engine.run(specs)
        snapshot = engine.registry.snapshot()
        assert snapshot["sweep.runs{target=slice:fig5.threads}"] == 2
        assert snapshot[
            "sweep.busy_s{target=slice:fig5.threads}"
        ] == pytest.approx(sum(outcome.elapsed_s for outcome in outcomes))
        assert snapshot["sweep.executed"] == 2

    def test_cache_off_always_executes(self, tmp_path):
        engine = SweepEngine(cache=False)
        spec = make_spec("slice:fig5.threads", count=4)
        engine.run([spec])
        engine.run([spec])
        assert engine.executed == 2
        assert engine.cache_hits == 0

    def test_bad_spec_fails_the_whole_run_before_any_write(self, cache_dir):
        engine = SweepEngine(cache_dir=cache_dir)
        good = make_spec("slice:fig5.threads", count=4)
        with pytest.raises(TypeError, match=r"takes \(count\)"):
            engine.run([good, make_spec("slice:fig5.threads", seed=3)])
        with pytest.raises(KeyError, match="slice:fig8.config"):
            check_spec(make_spec("py:os:getcwd"))
        assert engine.executed == 0
        assert not os.path.exists(cache_dir)
