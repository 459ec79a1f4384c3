"""Unit tests for Resource, Store and CreditPool."""

import pytest

from repro.sim import (
    CreditPool,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


class TestResource:
    def test_acquire_within_capacity_is_immediate(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)

        def proc():
            yield resource.acquire()
            return sim.now

        assert sim.run_process(proc()) == 0.0

    def test_acquire_blocks_until_release(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        timeline = []

        def holder():
            yield resource.acquire()
            yield 5.0
            resource.release()

        def waiter():
            yield 1.0
            yield resource.acquire()
            timeline.append(sim.now)
            resource.release()

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert timeline == [5.0]

    def test_fifo_granting(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        order = []

        def holder():
            yield resource.acquire()
            yield 10.0
            resource.release()

        def waiter(tag, arrive):
            yield arrive
            yield resource.acquire()
            order.append(tag)
            resource.release()

        sim.process(holder())
        for tag, arrive in [("first", 1.0), ("second", 2.0), ("third", 3.0)]:
            sim.process(waiter(tag, arrive))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_available_tracks_usage(self):
        sim = Simulator()
        resource = Resource(sim, capacity=3)

        def proc():
            yield resource.acquire()
            yield resource.acquire()
            assert resource.available == 1
            resource.release()
            assert resource.available == 2
            resource.release()

        sim.run_process(proc())
        assert resource.available == 3

    def test_try_acquire_takes_free_slots_only_without_waiters(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        assert resource.try_acquire(2)
        assert not resource.try_acquire()
        grant = resource.acquire(2)  # queued behind the full pool
        resource.release()
        assert not grant.fired and resource.in_use == 1
        assert not resource.try_acquire()  # a free slot, but a waiter
        with pytest.raises(SimulationError):
            resource.try_acquire(3)

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)

        def proc():
            yield store.put("item")
            value = yield store.get()
            return value

        assert sim.run_process(proc()) == "item"

    def test_get_blocks_until_put(self):


        sim = Simulator()
        store = Store(sim)

        def consumer():
            value = yield store.get()
            return (value, sim.now)

        def producer():
            yield 3.0
            yield store.put("late")

        proc = sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert proc.result == ("late", 3.0)

    def test_fifo_ordering_of_items(self):


        sim = Simulator()
        store = Store(sim)

        def producer():
            for item in range(5):
                yield store.put(item)

        def consumer():
            got = []
            for _ in range(5):
                got.append((yield store.get()))
            return got

        sim.process(producer())
        proc = sim.process(consumer())
        sim.run()
        assert proc.result == [0, 1, 2, 3, 4]

    def test_bounded_put_blocks_when_full(self):


        sim = Simulator()
        store = Store(sim, capacity=1)
        timeline = []

        def producer():
            yield store.put("a")
            yield store.put("b")  # blocks until consumer drains "a"
            timeline.append(sim.now)

        def consumer():
            yield 4.0
            yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert timeline == [4.0]

    def test_try_put_respects_capacity(self):


        sim = Simulator()
        store = Store(sim, capacity=2)
        assert store.try_put(1) is True
        assert store.try_put(2) is True
        assert store.try_put(3) is False
        assert len(store) == 2

    def test_try_get_returns_none_when_empty(self):


        store = Store(Simulator())
        assert store.try_get() is None
        store.try_put("x")
        assert store.try_get() == "x"

    def test_counters(self):


        store = Store(Simulator())
        for i in range(3):
            store.try_put(i)
        store.try_get()
        assert store.total_put == 3
        assert store.total_got == 1


class TestCreditPool:
    def test_try_consume_and_grant(self):
        sim = Simulator()
        pool = CreditPool(sim, initial=2)
        assert pool.try_consume() is True
        assert pool.try_consume() is True
        assert pool.try_consume() is False
        pool.grant(1)
        assert pool.try_consume() is True

    def test_consume_blocks_at_zero_until_grant(self):
        sim = Simulator()
        pool = CreditPool(sim, initial=0)
        timeline = []

        def transmitter():
            yield pool.consume()
            timeline.append(sim.now)

        sim.process(transmitter())
        sim.schedule(2.0, pool.grant, 1)
        sim.run()
        assert timeline == [2.0]

    def test_blocked_consumers_served_fifo(self):
        sim = Simulator()
        pool = CreditPool(sim, initial=0)
        order = []

        def transmitter(tag, arrive):
            yield arrive
            yield pool.consume()
            order.append(tag)

        for tag, arrive in [("a", 0.1), ("b", 0.2), ("c", 0.3)]:
            sim.process(transmitter(tag, arrive))
        sim.schedule(1.0, pool.grant, 3)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_multi_credit_consume_waits_for_full_amount(self):
        sim = Simulator()
        pool = CreditPool(sim, initial=1)
        timeline = []

        def transmitter():
            yield pool.consume(3)
            timeline.append(sim.now)

        sim.process(transmitter())
        sim.schedule(1.0, pool.grant, 1)
        sim.schedule(2.0, pool.grant, 1)
        sim.run()
        assert timeline == [2.0]

    def test_stall_count_records_backpressure(self):
        sim = Simulator()
        pool = CreditPool(sim, initial=0)

        def transmitter():
            yield pool.consume()

        sim.process(transmitter())
        sim.schedule(1.0, pool.grant, 1)
        sim.run()
        assert pool.stall_count == 1

    def test_accounting_totals(self):
        sim = Simulator()
        pool = CreditPool(sim, initial=5)
        pool.try_consume(1)
        pool.try_consume(1)
        pool.grant(3)
        assert pool.total_consumed == 2
        assert pool.total_granted == 3
        assert pool.credits == 6

    def test_negative_arguments_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            CreditPool(sim, initial=-1)
        pool = CreditPool(sim, initial=1)
        with pytest.raises(SimulationError):
            pool.grant(-1)
        with pytest.raises(SimulationError):
            pool.consume(0)
