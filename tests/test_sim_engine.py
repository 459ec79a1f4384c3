"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Signal, SimulationError, Simulator


class TestScheduling:
    def test_starts_at_time_zero(self):
        sim = Simulator()
        assert sim.now == 0.0

    def test_callback_runs_at_scheduled_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.run()
        assert sim.now == 10.0

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_event_count_increments(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.event_count == 4

    def test_max_events_guard_trips_on_livelock(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError, match="events"):
            sim.run(max_events=100)


class TestProcesses:
    def test_process_timeout_advances_time(self):
        sim = Simulator()

        def proc():
            yield 2.5
            return sim.now

        assert sim.run_process(proc()) == 2.5

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()

        def proc():
            yield 1.0
            yield 2.0
            return sim.now

        assert sim.run_process(proc()) == 3.0

    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield 0.0
            return 42

        assert sim.run_process(proc()) == 42

    def test_waiting_on_child_process(self):
        sim = Simulator()

        def child():
            yield 3.0
            return "done"

        def parent():
            result = yield sim.process(child())
            return (result, sim.now)

        assert sim.run_process(parent()) == ("done", 3.0)

    def test_waiting_on_finished_process_resumes_immediately(self):
        sim = Simulator()

        def empty():
            return
            yield  # pragma: no cover - makes this a generator

        child = sim.process(empty())
        sim.run()

        def parent():
            yield child
            return sim.now

        assert sim.run_process(parent()) == 0.0

    def test_yielding_garbage_raises(self):
        sim = Simulator()

        def proc():
            yield "not a waitable"

        with pytest.raises(SimulationError, match="yielded"):
            sim.run_process(proc())

    def test_crash_in_process_propagates(self):
        sim = Simulator()

        def proc():
            yield 1.0
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            sim.run_process(proc())

    def test_deadlocked_process_detected(self):
        sim = Simulator()

        def proc():
            yield Signal("never-fires")

        with pytest.raises(SimulationError, match="did not finish"):
            sim.run_process(proc())

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_all_of_waits_for_every_child(self):
        sim = Simulator()

        def child(delay, tag):
            yield delay
            return tag

        children = [sim.process(child(d, i)) for i, d in enumerate([3.0, 1.0, 2.0])]

        def parent():
            results = yield sim.all_of(children)
            return (results, sim.now)

        results, when = sim.run_process(parent())
        assert results == [0, 1, 2]
        assert when == 3.0

    def test_process_after_starts_at_its_first_wait(self):
        """``process_after(d, gen)`` resumes ``gen`` at exactly the
        instant a process starting with ``yield d`` would, with one
        event fewer."""
        seen = []

        def body(tag):
            seen.append((tag, sim.now))
            yield 2.5e-9
            seen.append((tag, sim.now))

        def waits_first():
            yield 1.5e-7
            yield from body("spawned")

        sim = Simulator()
        sim.schedule(1e-7, lambda: sim.process(waits_first()))
        sim.run()
        spawned_events = sim.event_count
        sim = Simulator()
        sim.schedule(1e-7, lambda: sim.process_after(1.5e-7, body("after")))
        sim.run()
        assert [t for _tag, t in seen[:2]] == [t for _tag, t in seen[2:]]
        assert sim.event_count == spawned_events - 1

    def test_process_after_rejects_a_negative_delay(self):
        sim = Simulator()

        def body():
            yield 1.0

        with pytest.raises(SimulationError):
            sim.process_after(-1e-9, body())


class TestSignals:
    def test_fire_wakes_waiter_with_value(self):
        sim = Simulator()
        signal = Signal("data")

        def waiter():
            value = yield signal
            return (value, sim.now)

        proc = sim.process(waiter())
        sim.schedule(4.0, signal.fire, "hello")
        sim.run()
        assert proc.result == ("hello", 4.0)

    def test_fire_wakes_all_waiters(self):
        sim = Simulator()
        signal = Signal()
        results = []

        def waiter(tag):
            yield signal
            results.append(tag)

        for tag in range(3):
            sim.process(waiter(tag))
        sim.schedule(1.0, signal.fire)
        sim.run()
        assert sorted(results) == [0, 1, 2]

    def test_reusable_signal_resets_after_fire(self):
        sim = Simulator()
        signal = Signal()
        wakeups = []

        def waiter():
            yield signal
            wakeups.append(sim.now)
            yield signal
            wakeups.append(sim.now)

        sim.process(waiter())
        sim.schedule(1.0, signal.fire)
        sim.schedule(2.0, signal.fire)
        sim.run()
        assert wakeups == [1.0, 2.0]

    def test_oneshot_signal_latches(self):
        sim = Simulator()
        signal = Signal(oneshot=True)
        signal.fire("latched")

        def late_waiter():
            value = yield signal
            return value

        assert sim.run_process(late_waiter()) == "latched"


class TestYieldedNumbers:
    def test_int_and_float_yields_give_identical_timestamps(self):
        def stamps(step):
            sim = Simulator()
            seen = []

            def ticker():
                for _ in range(3):
                    yield step
                    seen.append(sim.now)
                yield step * 0
                seen.append(sim.now)

            sim.run_process(ticker())
            return seen

        assert stamps(1) == stamps(1.0) == [1.0, 2.0, 3.0, 3.0]

    @pytest.mark.parametrize("delay", [-1, -1.0, float("nan")])
    def test_negative_number_raises_naming_the_process(self, delay):
        sim = Simulator()

        def sleeper():
            yield delay

        with pytest.raises(SimulationError, match="'sleeper' yielded"):
            sim.run_process(sleeper())


class TestCrashPropagation:
    def test_joiner_catches_error_of_process_that_later_raises(self):
        sim = Simulator()

        def doomed():
            yield 2.0
            raise ValueError("boom")

        def joiner():
            try:
                yield sim.process(doomed())
            except ValueError as exc:
                caught = (str(exc), sim.now)
            yield 1.0
            return caught, sim.now

        assert sim.run_process(joiner()) == (("boom", 2.0), 3.0)

    def test_joiner_catches_error_of_already_crashed_process(self):
        sim = Simulator()

        def doomed():
            yield 1.0
            raise ValueError("boom")

        child = sim.process(doomed())
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert child.alive is False

        def joiner():
            try:
                yield child
            except ValueError as exc:
                return str(exc), sim.now

        assert sim.run_process(joiner()) == ("boom", 1.0)

    def test_uncaught_error_comes_out_of_run(self):
        sim = Simulator()

        def doomed():
            yield 1.0
            raise ValueError("boom")

        def joiner():
            yield sim.process(doomed())

        sim.process(joiner())
        with pytest.raises(ValueError, match="boom") as info:
            sim.run()
        assert "raised inside process 'joiner'" in info.value.__notes__
        assert sim.now == 1.0


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def worker(tag, delay):
                yield delay
                trace.append((tag, sim.now))
                yield delay * 2
                trace.append((tag, sim.now))

            for tag in range(5):
                sim.process(worker(tag, 0.5 + tag * 0.25))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()
