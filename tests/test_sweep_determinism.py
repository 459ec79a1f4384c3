"""Differential determinism of the sweep engine.

The contract the whole caching/parallelism story rests on:

* a figure regenerated with ``jobs=4`` is **byte-identical** to the
  serial ``fig*()`` function;
* a warm (cached) re-run is byte-identical to the cold run;
* the content address commits to target, kwargs, seed and source
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
    make_spec,
    normalize_jobs,
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


class TestParallelMatchesSerial:
    def test_jobs4_byte_identical_and_cached_rerun_identical(self, cache_dir):
        names = sorted(SMALL)
        serial = {
            name: render(FIGURES[name](**SMALL[name])) for name in names
        }

        tables, engine = run_figures(
            names, jobs=4, cache_dir=cache_dir,
            figure_kwargs={k: dict(v) for k, v in SMALL.items()},
        )
        assert engine.executed > 0 and engine.cache_hits == 0
        for name in names:
            assert render(tables[name]) == serial[name], name

        # Warm re-run: everything served from cache, still identical.
        warm_tables, warm_engine = run_figures(
            names, jobs=4, cache_dir=cache_dir,
            figure_kwargs={k: dict(v) for k, v in SMALL.items()},
        )
        assert warm_engine.executed == 0
        assert warm_engine.cache_hits == warm_engine.specs_seen > 0
        for name in names:
            assert render(warm_tables[name]) == serial[name], name

    def test_serial_engine_matches_direct_call(self, cache_dir):
        tables, _ = run_figures(
            ["fig8"], jobs=1, cache_dir=cache_dir,
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
            "slice:fig8.config", kind="local", samples=100, seed=7
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


class TestWorkerMetricsMerge:
    def test_merge_flat_sums_across_workers(self):
        worker_a = MetricsRegistry("a")
        worker_a.gauge("sweep.worker.runs", target="slice:x").adjust(2)
        worker_a.gauge("sweep.worker.busy_s", target="slice:x").adjust(0.5)
        worker_b = MetricsRegistry("b")
        worker_b.gauge("sweep.worker.runs", target="slice:x").adjust(3)

        parent = MetricsRegistry("parent")
        parent.merge_flat(worker_a.snapshot())
        parent.merge_flat(worker_b.snapshot())
        snapshot = parent.snapshot()
        assert snapshot["sweep.worker.runs{target=slice:x}"] == 5
        assert snapshot["sweep.worker.busy_s{target=slice:x}"] == 0.5

    def test_parse_qualified_inverts_rendering(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("llc.replays", endpoint="tf.llc0", node="n0")
        assert parse_qualified(gauge.qualified) == (
            "llc.replays", {"endpoint": "tf.llc0", "node": "n0"}
        )
        assert parse_qualified("plain.name") == ("plain.name", {})

    def test_engine_merges_worker_counters(self, cache_dir):
        engine = SweepEngine(jobs=2, cache_dir=cache_dir)
        specs = [
            make_spec("slice:fig5.threads", count=count) for count in (4, 8)
        ]
        engine.run(specs)
        snapshot = engine.registry.snapshot()
        assert snapshot[
            "sweep.worker.runs{target=slice:fig5.threads}"
        ] == 2
        assert snapshot["sweep.executed"] == 2


class TestEngineBasics:
    def test_normalize_jobs(self):
        assert normalize_jobs("auto") >= 1
        assert normalize_jobs(None) >= 1
        assert normalize_jobs(3) == 3
        assert normalize_jobs("2") == 2
        with pytest.raises(ValueError):
            normalize_jobs(0)

    def test_seed_is_forwarded_to_accepting_targets(self, cache_dir):
        engine = SweepEngine(jobs=1, cache_dir=cache_dir)
        baseline, seeded = engine.run(
            [
                make_spec("py:sweep_targets:seeded_value", scale=2),
                make_spec("py:sweep_targets:seeded_value", scale=2,
                          seed=11),
            ]
        )
        assert baseline.value == {"seed": 0, "scale": 2}
        assert seeded.value == {"seed": 11, "scale": 2}

    def test_cache_off_always_executes(self, tmp_path):
        engine = SweepEngine(jobs=1, cache=False)
        spec = make_spec("slice:fig5.threads", count=4)
        engine.run([spec])
        engine.run([spec])
        assert engine.executed == 2
        assert engine.cache_hits == 0


class TestSharedBootstrap:
    """The worker-bootstrap helpers the sweep pool and its callers share."""

    def test_engine_reexports_normalize_jobs(self):
        from repro.sweep import bootstrap, engine

        assert engine.normalize_jobs is bootstrap.normalize_jobs

    def test_worker_run_snapshot_shape(self):
        from repro.sweep.bootstrap import worker_run_snapshot

        snap = worker_run_snapshot("sweep", 0.25, target="t")
        runs = [v for k, v in snap.items()
                if k.startswith("sweep.worker.runs")]
        busy = [v for k, v in snap.items()
                if k.startswith("sweep.worker.busy_s")]
        assert runs == [1.0] and busy == [0.25]

    def test_pool_workers_start_with_every_channel_off(self):
        """A pool forked inside a session must not inherit its
        collectors: each worker switches all three channels off."""
        from repro.obs import EventLog, SimProfiler, Tracer, session

        engine = SweepEngine(jobs=2, cache=False)
        specs = [
            make_spec("py:sweep_targets:obs_channels", tag=tag)
            for tag in (1, 2)
        ]
        with session(trace=Tracer(), events=EventLog(),
                     profile=SimProfiler()):
            outcomes = engine.run(specs)
        assert [o.value for o in outcomes] == [(False, False, False)] * 2
