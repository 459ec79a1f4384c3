"""Tests for the Fig. 1 motivation study (trace, models, replay)."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AllocationFailure,
    DisaggregatedDatacentre,
    FixedDatacentre,
    TraceConfig,
    ratio_span_orders_of_magnitude,
    replay_trace,
    run_fig1_experiment,
    synthesize_trace,
)
from repro.cluster.models import best_fit
from repro.cluster.trace import EventKind, TaskRequest


def task(task_id=0, cpu=0.1, memory=0.1):
    return TaskRequest(task_id, cpu, memory, submit_time=0.0, duration=1.0)


#: Allocations interleaved with releases (of the placement at index
#: ``n % len(placements)``), for the churn properties below. Repeated
#: large memory requests leave every module partly full, so later ones
#: have to split across modules.
CHURN = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"),
                  st.floats(min_value=0.01, max_value=0.6),
                  st.one_of(st.sampled_from([0.4, 0.7]),
                            st.floats(min_value=0.01, max_value=0.9))),
        st.tuples(st.just("release"), st.integers(min_value=0)),
    ),
    min_size=10,
    max_size=40,
)


def churn(datacentre, steps, check):
    """Apply ``steps`` to ``datacentre``, calling ``check`` after each."""
    placements = []
    for index, step in enumerate(steps):
        if step[0] == "allocate":
            try:
                placement = datacentre.allocate(task(index, *step[1:]))
            except AllocationFailure:
                pass
            else:
                placements.append(placement)
                if len(placement.memory_shares) > 1:
                    event("memory split across modules")
        elif placements:
            datacentre.release(placements.pop(step[1] % len(placements)))
        check(datacentre)


def stranded_pct(free, on, units):
    return float(free[on].sum()) / units * 100.0


class TestBestFit:
    def test_zero_length_places_nothing(self):
        assert best_fit(np.array([], dtype=bool), np.array([])) is None

    def test_all_infeasible_places_nothing(self):
        feasible = np.zeros(3, dtype=bool)
        assert best_fit(feasible, np.array([0.3, 0.1, 0.2])) is None

    def test_ties_pick_the_lowest_index(self):
        feasible = np.array([False, True, True, True])
        slack = np.array([0.0, 0.5, 0.2, 0.2])
        assert best_fit(feasible, slack) == 2

    @settings(max_examples=100, deadline=None)
    @given(
        pool=st.lists(
            st.tuples(
                st.booleans(),
                st.one_of(st.sampled_from([0.0, 0.25, 1.0]),
                          st.floats(min_value=-2.0, max_value=2.0)),
            ),
            max_size=12,
        )
    )
    def test_matches_reference(self, pool):
        feasible = np.array([f for f, _ in pool], dtype=bool)
        slack = np.array([s for _, s in pool], dtype=float)
        expected = (None if not feasible.any()
                    else int(np.argmin(np.where(feasible, slack, np.inf))))
        got = best_fit(feasible, slack)
        assert got == expected
        assert got is None or type(got) is int


class TestTrace:
    def test_events_sorted_and_paired(self):
        events = synthesize_trace(TraceConfig(tasks=200))
        times = [e.time for e in events]
        assert times == sorted(times)
        submits = sum(1 for e in events if e.kind is EventKind.SUBMIT)
        assert submits == 200
        assert len(events) == 400

    def test_finish_after_submit(self):
        events = synthesize_trace(TraceConfig(tasks=100))
        submit_time = {}
        for event in events:
            if event.kind is EventKind.SUBMIT:
                submit_time[event.task.task_id] = event.time
            else:
                assert event.time > submit_time[event.task.task_id]

    def test_deterministic(self):
        a = synthesize_trace(TraceConfig(tasks=100, seed=5))
        b = synthesize_trace(TraceConfig(tasks=100, seed=5))
        assert a == b

    def test_requests_within_machine_bounds(self):
        events = synthesize_trace(TraceConfig(tasks=500))
        for event in events:
            assert 0 < event.task.cpu <= 1.0
            assert 0 < event.task.memory <= 1.0

    def test_ratio_spans_three_orders_of_magnitude(self):
        """§I: memory/CPU demand ratios span 3 orders of magnitude."""
        events = synthesize_trace(TraceConfig(tasks=5000))
        span = ratio_span_orders_of_magnitude(iter(events))
        assert span >= 2.5


class TestFixedDatacentre:
    def test_allocate_reduces_free(self):
        dc = FixedDatacentre(4)
        dc.allocate(task(cpu=0.5, memory=0.25))
        assert dc.cpu_free.sum() == pytest.approx(3.5)
        assert dc.mem_free.sum() == pytest.approx(3.75)

    def test_release_restores(self):
        dc = FixedDatacentre(4)
        placement = dc.allocate(task(cpu=0.5, memory=0.25))
        dc.release(placement)
        assert dc.cpu_free.sum() == pytest.approx(4.0)
        assert dc.servers_off() == 4

    def test_best_fit_packs_tightly(self):
        dc = FixedDatacentre(4)
        dc.allocate(task(0, cpu=0.6, memory=0.6))
        # Second task fits next to the first; best fit should reuse it.
        dc.allocate(task(1, cpu=0.3, memory=0.3))
        assert dc.servers_off() == 3

    def test_infeasible_raises(self):
        dc = FixedDatacentre(1)
        dc.allocate(task(0, cpu=0.9, memory=0.9))
        with pytest.raises(AllocationFailure):
            dc.allocate(task(1, cpu=0.5, memory=0.1))

    def test_stranding_metrics(self):
        dc = FixedDatacentre(2)
        dc.allocate(task(0, cpu=0.2, memory=0.9))
        # Server 0 on: 0.8 CPU stranded, 0.1 memory stranded.
        assert dc.stranded_cpu() == pytest.approx(0.8)
        assert dc.stranded_memory() == pytest.approx(0.1)
        assert dc.servers_off() == 1

    @settings(max_examples=50, deadline=None)
    @given(steps=CHURN)
    def test_property_off_count_never_drifts(self, steps):
        def check(dc):
            off = int((dc.tasks_on == 0).sum())
            assert dc.servers_off() == off
            on = dc.tasks_on > 0
            assert dc.utilization() == (
                stranded_pct(dc.cpu_free, on, dc.servers),
                stranded_pct(dc.mem_free, on, dc.servers),
                off / dc.servers * 100.0,
                off / dc.servers * 100.0,
            )

        churn(FixedDatacentre(5), steps, check)


class TestDisaggregatedDatacentre:
    def test_memory_can_split_across_modules(self):
        dc = DisaggregatedDatacentre(2, 2, links_per_module=16)
        first = dc.allocate(task(0, cpu=0.1, memory=0.9))
        dc.allocate(task(1, cpu=0.1, memory=0.9))
        # 0.1 free on each module: a 0.15 request must span both.
        placement = dc.allocate(task(2, cpu=0.1, memory=0.15))
        assert len(placement.memory_shares) == 2
        # Each module stays on while any share of any task uses it.
        dc.release(first)
        assert dc.memory_off() == 0
        dc.release(placement)
        assert dc.memory_off() == 1

    def test_split_respects_link_budget(self):
        dc = DisaggregatedDatacentre(1, 4, links_per_module=2)
        dc.cpu_free[0] = 1.0
        # Fill modules to force a >2-way split which must fail.
        for index in range(4):
            dc.mem_free[index] = 0.2
        with pytest.raises(AllocationFailure):
            dc.allocate(task(0, cpu=0.1, memory=0.7))

    def test_release_restores_links(self):
        dc = DisaggregatedDatacentre(2, 2, links_per_module=4)
        placement = dc.allocate(task(0, cpu=0.5, memory=0.5))
        used_links = len(placement.memory_shares)
        assert dc.compute_links_free[placement.compute_unit] == 4 - used_links
        dc.release(placement)
        assert (dc.compute_links_free == 4).all()
        assert (dc.memory_links_free == 4).all()

    def test_off_counts(self):
        dc = DisaggregatedDatacentre(4, 4)
        dc.allocate(task(0, cpu=0.5, memory=0.5))
        assert dc.compute_off() == 3
        assert dc.memory_off() == 3

    def test_conservation_after_churn(self):
        dc = DisaggregatedDatacentre(8, 8)
        placements = [
            dc.allocate(task(i, cpu=0.1 + 0.05 * (i % 5), memory=0.2))
            for i in range(20)
        ]
        for placement in placements:
            dc.release(placement)
        assert dc.cpu_free.sum() == pytest.approx(8.0)
        assert dc.mem_free.sum() == pytest.approx(8.0)
        assert dc.compute_off() == 8 and dc.memory_off() == 8

    @settings(max_examples=25, deadline=None)
    @given(
        tasks=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=0.5),
                st.floats(min_value=0.01, max_value=0.9),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_property_no_negative_capacity(self, tasks):
        dc = DisaggregatedDatacentre(6, 6)
        placements = []
        for index, (cpu, memory) in enumerate(tasks):
            try:
                placements.append(dc.allocate(task(index, cpu, memory)))
            except AllocationFailure:
                pass
        assert (dc.cpu_free >= -1e-9).all()
        assert (dc.mem_free >= -1e-9).all()
        assert (dc.compute_links_free >= 0).all()
        for placement in placements:
            total = sum(amount for _u, amount in placement.memory_shares)
            assert total == pytest.approx(placement.task.memory)

    @settings(max_examples=50, deadline=None)
    @given(steps=CHURN)
    def test_property_off_counts_never_drift(self, steps):
        def check(dc):
            compute_off = int((dc.compute_tasks == 0).sum())
            memory_off = int((dc.memory_users == 0).sum())
            assert dc.compute_off() == compute_off
            assert dc.memory_off() == memory_off
            compute, memory = dc.compute_modules, dc.memory_modules
            assert dc.utilization() == (
                stranded_pct(dc.cpu_free, dc.compute_tasks > 0, compute),
                stranded_pct(dc.mem_free, dc.memory_users > 0, memory),
                compute_off / compute * 100.0,
                memory_off / memory * 100.0,
            )

        # Two memory modules for four compute modules: about a third of
        # the examples split a request across memory modules.
        churn(DisaggregatedDatacentre(4, 2, links_per_module=4), steps, check)


class TestFig1Experiment:
    @pytest.fixture(scope="class")
    def reports(self):
        from repro.cluster import scaled_trace_config

        return run_fig1_experiment(scaled_trace_config(units=160), units=160)

    def test_disaggregation_reduces_fragmentation(self, reports):
        fixed, disagg = reports["fixed"], reports["disaggregated"]
        assert disagg.cpu_fragmentation_pct < fixed.cpu_fragmentation_pct
        assert disagg.memory_fragmentation_pct < fixed.memory_fragmentation_pct

    def test_fragmentation_reduction_factor_matches_paper(self, reports):
        """Fig. 1 ratios: CPU 16→3.86 (≈4.1×), MEM 29.5→9.2 (≈3.2×)."""
        fixed, disagg = reports["fixed"], reports["disaggregated"]
        cpu_factor = fixed.cpu_fragmentation_pct / disagg.cpu_fragmentation_pct
        mem_factor = (
            fixed.memory_fragmentation_pct / disagg.memory_fragmentation_pct
        )
        assert 2.0 <= cpu_factor <= 8.0
        assert 2.0 <= mem_factor <= 6.0

    def test_memory_fragments_more_than_cpu(self, reports):
        for report in reports.values():
            assert (
                report.memory_fragmentation_pct > report.cpu_fragmentation_pct
            )

    def test_disaggregation_powers_off_more_memory(self, reports):
        fixed, disagg = reports["fixed"], reports["disaggregated"]
        assert disagg.memory_off_pct > fixed.memory_off_pct + 5.0

    def test_replay_is_deterministic(self):
        from repro.cluster import scaled_trace_config

        config = scaled_trace_config(units=80, tasks=2000)
        a = run_fig1_experiment(config, units=80)
        b = run_fig1_experiment(config, units=80)
        assert a["fixed"].as_row() == b["fixed"].as_row()
        assert a["disaggregated"].as_row() == b["disaggregated"].as_row()

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            replay_trace(FixedDatacentre(4), [])


class TestDownsampleTrace:
    """Deterministic task-level thinning (the replay --sample knob)."""

    def trace(self, tasks=400, seed=5):
        return synthesize_trace(TraceConfig(tasks=tasks, seed=seed))

    def test_fraction_one_is_identity(self):
        from repro.cluster import downsample_trace

        events = self.trace()
        assert downsample_trace(events, 1.0) == events

    def test_fraction_bounds_enforced(self):
        from repro.cluster import downsample_trace

        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                downsample_trace(self.trace(tasks=10), bad)

    def test_deterministic_under_fixed_seed(self):
        from repro.cluster import downsample_trace

        events = self.trace()
        first = downsample_trace(events, 0.4, seed=9)
        second = downsample_trace(events, 0.4, seed=9)
        assert first == second
        other_seed = downsample_trace(events, 0.4, seed=10)
        assert {e.task.task_id for e in other_seed} != \
            {e.task.task_id for e in first}

    def test_keeps_submit_finish_pairs(self):
        from collections import Counter

        from repro.cluster import downsample_trace

        sampled = downsample_trace(self.trace(), 0.3, seed=2)
        per_task = Counter(e.task.task_id for e in sampled)
        assert per_task and set(per_task.values()) == {2}

    def test_larger_fraction_is_superset(self):
        """Nested subsets: sweeping --sample only adds tasks."""
        from repro.cluster import downsample_trace

        events = self.trace()
        small = {e.task.task_id
                 for e in downsample_trace(events, 0.2, seed=3)}
        large = {e.task.task_id
                 for e in downsample_trace(events, 0.6, seed=3)}
        assert small <= large
        assert len(small) < len(large) < 400

    def test_kept_fraction_tracks_request(self):
        from repro.cluster import downsample_trace

        events = self.trace(tasks=2000)
        kept = downsample_trace(events, 0.5, seed=1)
        assert 0.4 < len(kept) / len(events) < 0.6


class TestTraceWindow:
    def test_half_open_interval(self):
        from repro.cluster import trace_window

        events = synthesize_trace(TraceConfig(tasks=50, seed=3))
        lo, hi = events[10].time, events[30].time
        window = trace_window(events, lo, hi)
        assert window and all(lo <= e.time < hi for e in window)
        assert events[10] in window and events[30] not in window

    def test_empty_windows_return_empty(self):
        from repro.cluster import trace_window

        events = synthesize_trace(TraceConfig(tasks=20, seed=3))
        assert trace_window(events, 5.0, 5.0) == []      # zero width
        assert trace_window(events, 9.0, 2.0) == []      # inverted
        assert trace_window([], 0.0, 100.0) == []        # no events
        horizon = events[-1].time
        assert trace_window(events, horizon + 1, horizon + 2) == []


class TestCapacityClamping:
    """Requests are machine-normalized: draws above 1.0 clamp to 1.0
    and stay valid, they do not escape the unit interval."""

    def test_extreme_draws_clamp_to_unit_capacity(self):
        config = TraceConfig(tasks=300, seed=13,
                             cpu_log_mean=1.5, cpu_log_sigma=1.0,
                             ratio_log_mean=1.5, ratio_log_sigma=1.0)
        events = synthesize_trace(config)
        cpus = [e.task.cpu for e in events]
        mems = [e.task.memory for e in events]
        assert max(cpus) == 1.0 and max(mems) == 1.0
        assert all(0 < v <= 1.0 for v in cpus + mems)

    def test_clamped_memory_never_exceeds_cpu_times_ratio(self):
        config = TraceConfig(tasks=100, seed=13,
                             ratio_log_mean=3.0, ratio_log_sigma=0.5)
        for event in synthesize_trace(config):
            assert event.task.memory <= 1.0
