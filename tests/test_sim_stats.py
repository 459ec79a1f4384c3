"""Tests for the statistics instrumentation (the code every benchmark
reports numbers through)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    LatencyRecorder,
    RunningStats,
    TimeWeightedValue,
    cdf_points,
    percentile,
)


class TestPercentile:
    def test_single_value(self):
        assert percentile([5.0], 50) == 5.0

    def test_median_of_two(self):
        assert percentile([1.0, 3.0], 50) == 2.0

    def test_extremes(self):
        values = sorted([4.0, 1.0, 9.0, 2.0])
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=80,
        ),
        q=st.floats(min_value=0, max_value=100),
    )
    def test_matches_numpy_linear_method(self, values, q):
        ordered = sorted(values)
        ours = percentile(ordered, q)
        theirs = float(np.percentile(ordered, q))
        assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-9)


class TestRunningStats:
    def test_mean_and_variance(self):
        stats = RunningStats()
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        assert stats.variance == pytest.approx(32.0 / 7.0)

    def test_min_max_total(self):
        stats = RunningStats()
        stats.extend([3.0, -1.0, 7.0])
        assert stats.minimum == -1.0
        assert stats.maximum == 7.0
        assert stats.total == 9.0

    def test_empty_stats_safe(self):
        stats = RunningStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        left=st.lists(st.floats(min_value=-1e4, max_value=1e4,
                                allow_nan=False), min_size=1, max_size=40),
        right=st.lists(st.floats(min_value=-1e4, max_value=1e4,
                                 allow_nan=False), min_size=1, max_size=40),
    )
    def test_merge_equals_sequential(self, left, right):
        a = RunningStats()
        a.extend(left)
        b = RunningStats()
        b.extend(right)
        merged = a.merge(b)
        sequential = RunningStats()
        sequential.extend(left + right)
        assert merged.count == sequential.count
        assert merged.mean == pytest.approx(sequential.mean, abs=1e-6)
        assert merged.variance == pytest.approx(
            sequential.variance, rel=1e-6, abs=1e-6
        )
        assert merged.minimum == sequential.minimum
        assert merged.maximum == sequential.maximum


class TestLatencyRecorder:
    def test_cdf_monotone(self):
        recorder = LatencyRecorder()
        recorder.extend([5.0, 1.0, 3.0, 2.0, 4.0])
        cdf = recorder.cdf()
        values = [v for v, _p in cdf]
        probs = [p for _v, p in cdf]
        assert values == sorted(values)
        assert probs == sorted(probs)
        assert probs[-1] == 1.0

    def test_fraction_below(self):
        recorder = LatencyRecorder()
        recorder.extend([1.0, 2.0, 3.0, 4.0])
        assert recorder.fraction_below(2.5) == 0.5
        assert recorder.fraction_below(0.5) == 0.0
        assert recorder.fraction_below(10.0) == 1.0

    def test_degradation_at(self):
        recorder = LatencyRecorder()
        recorder.extend([1.0] * 9 + [11.0])
        # mean = 2.0; p90 ≈ 2.0 → degradation ≈ 0
        assert recorder.degradation_at(90) == pytest.approx(
            recorder.percentile(90) / 2.0 - 1.0
        )

    def test_cdf_points_helper(self):
        points = cdf_points([3.0, 1.0])
        assert points == [(1.0, 0.5), (3.0, 1.0)]
        assert cdf_points([]) == []


class TestTimeWeightedValue:
    def test_constant_signal(self):
        meter = TimeWeightedValue(0.0, initial=5.0)
        assert meter.time_average(10.0) == 5.0

    def test_step_signal(self):
        meter = TimeWeightedValue(0.0, initial=0.0)
        meter.update(5.0, 10.0)   # 0 for 5s, then 10
        assert meter.time_average(10.0) == pytest.approx(5.0)

    def test_adjust(self):
        meter = TimeWeightedValue(0.0, initial=2.0)
        meter.adjust(4.0, +3.0)
        assert meter.value == 5.0
        assert meter.time_average(8.0) == pytest.approx(
            (2.0 * 4 + 5.0 * 4) / 8
        )

    def test_reset_discards_history(self):
        meter = TimeWeightedValue(0.0, initial=100.0)
        meter.update(10.0, 1.0)
        meter.reset(10.0)
        assert meter.time_average(20.0) == pytest.approx(1.0)

    def test_time_going_backwards_rejected(self):
        meter = TimeWeightedValue(5.0)
        with pytest.raises(ValueError):
            meter.update(4.0, 1.0)

    def test_zero_span_returns_current(self):
        meter = TimeWeightedValue(3.0, initial=7.0)
        assert meter.time_average(3.0) == 7.0


class TestEdgeCases:
    """Boundary behaviour the summary/exporter paths rely on."""

    def test_percentile_q0_and_q100_single_element(self):
        assert percentile([42.0], 0) == 42.0
        assert percentile([42.0], 100) == 42.0

    def test_percentile_q0_q100_are_min_max(self):
        values = sorted([3.0, -1.0, 7.5, 0.0, 2.0])
        assert percentile(values, 0) == min(values)
        assert percentile(values, 100) == max(values)

    def test_percentile_boundary_qs_accepted(self):
        # 0 and 100 are inclusive endpoints, not out-of-range.
        assert percentile([1.0, 2.0], 0.0) == 1.0
        assert percentile([1.0, 2.0], 100.0) == 2.0
        with pytest.raises(ValueError):
            percentile([1.0], -0.001)

    def test_latency_recorder_zero_samples(self):
        recorder = LatencyRecorder("idle")
        assert recorder.count == 0
        assert recorder.mean == 0.0
        assert recorder.cdf() == []
        assert recorder.fraction_below(1.0) == 0.0
        assert recorder.degradation_at(99) == 0.0
        with pytest.raises(ValueError):
            recorder.percentile(50)


class TestStatsAddRepeated:
    def test_matches_sequential_adds_exactly(self):
        from repro.sim.stats import RunningStats

        loop = RunningStats("loop")
        batch = RunningStats("batch")
        rng = random.Random(3)
        for _ in range(25):
            value = rng.random() * 1e-6
            count = rng.randrange(1, 9)
            for _ in range(count):
                loop.add(value)
            batch.add_repeated(value, count)
        assert batch.count == loop.count
        assert batch.total == loop.total
        assert batch.mean == loop.mean
        assert batch.variance == loop.variance
        assert batch.minimum == loop.minimum
        assert batch.maximum == loop.maximum

    def test_latency_recorder_add_repeated(self):
        from repro.sim.stats import LatencyRecorder

        loop = LatencyRecorder("loop")
        batch = LatencyRecorder("batch")
        for value, count in [(3.0, 4), (1.0, 2), (2.0, 3)]:
            for _ in range(count):
                loop.add(value)
            batch.add_repeated(value, count)
        assert batch.count == loop.count
        assert batch.percentile(50) == loop.percentile(50)
        assert batch.cdf() == loop.cdf()

    def test_zero_and_negative_counts_are_noops(self):
        from repro.sim.stats import RunningStats

        stats = RunningStats()
        stats.add_repeated(5.0, 0)
        stats.add_repeated(5.0, -3)
        assert stats.count == 0
