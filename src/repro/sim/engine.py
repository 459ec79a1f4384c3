"""Deterministic discrete-event simulation kernel.

Every timed component in the ThymesisFlow reproduction (serdes lanes, LLC
framers, DRAM banks, application thread pools) runs on this engine. The
design goals are:

* **Determinism** — events scheduled for the same timestamp fire in
  insertion order, so simulations are bit-reproducible for a given seed.
* **Coroutine processes** — model code is written as generators, in the
  style of SimPy, which keeps pipeline stages readable.  A process
  yields one of three things: a non-negative number of seconds to
  sleep, a :class:`Signal` to wait on, or a :class:`Process` to join.
* **No wall-clock dependence** — simulated time is a plain ``float`` of
  seconds; nothing here ever consults the host clock.

Performance notes (see ``docs/performance.md``): the kernel is the hot
loop under every benchmark, so it uses a bucketed two-tier event queue:

* ``_buckets`` — a dict mapping an exact float timestamp to the list of
  ``(key, target, payload)`` entries pending at that instant, plus
  ``_times``, a heap of the *distinct* timestamps only.  Simulations of
  clocked hardware dispatch many events per instant (every flit of a
  frame, every line of a burst), so scheduling is usually a dict hit
  and a list append — the heap is touched once per distinct timestamp
  instead of once per event, and heap entries are bare floats, which
  compare much faster than tuples.  ``key`` is the insertion sequence,
  so appends keep every bucket in key order.
* ``_ready`` — a plain list of ``(key, target, payload)`` entries for
  the timestamp currently being dispatched.  Zero-delay wakeups (signal
  fires, process spawns, join notifications — the bulk of datapath
  traffic) append here and are consumed by index, skipping the bucket
  machinery entirely.  Entries landing in ``_ready`` always carry
  larger keys than the bucket being dispatched, so draining the bucket
  and then ``_ready`` preserves global key order.

``target`` is either a :class:`Process` (resume its generator with
``payload``) or a plain callback (apply ``payload`` as an args tuple).
:meth:`Simulator.run` is the one place a generator is resumed and the
one place a yield is interpreted: per event it sends (or throws a
crashed dependency's error) and files the process under what it
yielded, without any intermediate Python call.
"""

from __future__ import annotations

import heapq
import itertools
from heapq import heappush
from operator import itemgetter
from types import GeneratorType
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from ..obs import profiler as _obs_profiler
from ..obs import trace as _obs_trace

__all__ = [
    "Simulator",
    "Process",
    "Signal",
    "SimulationError",
]

#: Sort key for merging a spilled batch back into its timestamp bucket.
_ENTRY_KEY = itemgetter(0)


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. yielding junk)."""


class Signal:
    """A one-shot or reusable event that processes can wait on.

    ``fire(value)`` wakes every currently-waiting process with ``value``.
    By default a signal is *reusable*: after firing it resets and can be
    waited on again (useful for "new frame arrived" notifications).  Pass
    ``oneshot=True`` for latching semantics: once fired, later waiters
    resume immediately with the fired value.
    """

    __slots__ = ("name", "oneshot", "fired", "value", "_waiters")

    def __init__(self, name: str = "", oneshot: bool = False):
        self.name = name
        self.oneshot = oneshot
        self.fired = False
        self.value: Any = None
        self._waiters: List[Process] = []

    def fire(self, value: Any = None) -> None:
        """Wake all waiters, delivering ``value`` from their ``yield``."""
        self.fired = True
        self.value = value
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            sim = process.sim
            if sim._running:
                sim._ready.append((next(sim._seq), process, value))
            else:
                sim._push(sim._now, next(sim._seq), process, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else "pending"
        return f"Signal({self.name!r}, {state})"


class Process:
    """A coroutine running inside the simulator.

    Wraps a generator; each ``yield`` hands the kernel a number of
    seconds, a :class:`Signal` or a :class:`Process`.  Yielding a process
    suspends the yielder until the target returns, delivering its return
    value — or, if the target crashed, raising its error at the
    ``yield``.
    """

    __slots__ = (
        "sim",
        "_name",
        "_generator",
        "alive",
        "result",
        "error",
        "_joiners",
        "_pending_error",
    )

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if generator.__class__ is not GeneratorType and not hasattr(
            generator, "send"
        ):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        self.sim = sim
        #: Resolved lazily by the ``name`` property — reading the
        #: generator's ``__name__`` per spawn is measurable overhead in
        #: spawn-heavy datapaths (every bus load/store is a process).
        self._name = name
        self._generator = generator
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._joiners: List[Process] = []
        #: A crashed dependency's error, thrown into the generator at
        #: its next resume instead of sending a value.
        self._pending_error: Optional[BaseException] = None

    @property
    def name(self) -> str:
        n = self._name
        if not n:
            n = self._name = getattr(self._generator, "__name__", "process")
        return n

    def _crash(self, error: BaseException) -> bool:
        """Terminate the process with ``error``.

        Crash propagation: the error is thrown *into* every joiner at its
        next resume, so model code can catch domain errors across process
        waits (``try: yield bus.store(...) except RemoteMemoryError``) and
        the whole waiting chain unwinds via normal exception semantics.
        Returns True when nobody was waiting, i.e. :meth:`Simulator.run`
        must raise ``error`` itself.
        """
        self.alive = False
        self.error = error
        joiners = self._joiners
        if joiners:
            self._joiners = []
            sim = self.sim
            for joiner in joiners:
                joiner._pending_error = error
                sim._ready.append((next(sim._seq), joiner, None))
            return False
        if hasattr(error, "add_note"):  # Python 3.11+
            error.add_note(f"raised inside process {self.name!r}")
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"Process({self.name!r}, {state})"


class Simulator:
    """The event loop: a two-tier queue of timestamped events."""

    __slots__ = (
        "_times",
        "_buckets",
        "_ready",
        "_running",
        "_now",
        "_seq",
        "event_count",
    )

    def __init__(self):
        self._times: List[float] = []
        self._buckets: Dict[float, List[Tuple[int, Any, Any]]] = {}
        self._ready: List[Tuple[int, Any, Any]] = []
        self._running = False
        self._now = 0.0
        self._seq = itertools.count()
        self.event_count = 0

    # -- time ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------
    def _push(self, time: float, key: int, target: Any, payload: Any) -> None:
        """Insert one event entry into its timestamp bucket."""
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(key, target, payload)]
            heappush(self._times, time)
        else:
            bucket.append((key, target, payload))

    def schedule(self, delay: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        if delay == 0.0 and self._running:
            self._ready.append((next(self._seq), callback, args))
        else:
            self._push(self._now + delay, next(self._seq), callback, args)

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated ``time``.

        Unlike ``schedule(time - now, ...)`` this keys the bucket by the
        exact float ``time``, which matters when reproducing event
        timestamps computed incrementally (``a + b`` followed by
        ``+ c`` is not always ``now + ((a + b + c) - now)`` in floating
        point).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time!r} < {self._now!r}"
            )
        if time == self._now and self._running:
            self._ready.append((next(self._seq), callback, args))
        else:
            self._push(time, next(self._seq), callback, args)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a process and start it at time now."""
        proc = Process(self, generator, name=name)
        if self._running:
            self._ready.append((next(self._seq), proc, None))
        else:
            self._push(self._now, next(self._seq), proc, None)
        return proc

    def process_after(
        self, delay: float, generator: Generator, name: str = ""
    ) -> Process:
        """Register ``generator`` as a process that starts ``delay`` from now.

        For a process whose first act would be a timed wait: the wait is
        its start time, so it costs no zero-delay start event.
        """
        if delay < 0:
            raise SimulationError(f"cannot start in the past: {delay!r}")
        proc = Process(self, generator, name=name)
        if delay == 0.0 and self._running:
            self._ready.append((next(self._seq), proc, None))
        else:
            self._push(self._now + delay, next(self._seq), proc, None)
        return proc

    # -- execution -----------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or simulated time exceeds ``until``.

        Returns the simulated time at which execution stopped.  A
        ``max_events`` guard turns accidental infinite event loops into a
        loud failure instead of a hang.  A process crash nobody joined
        propagates out of here, annotated with the process name.

        The loop is deliberately inlined: per timestamp it takes the
        whole bucket, resumes process generators right here (send plus
        bucket re-insert), then drains the zero-delay wakeups the batch
        produced, handling completion and crashes without leaving the
        loop.  This is the hottest code in the repository; keep it
        boring.
        """
        # Observability hooks live at entry/exit only — the dispatch loop
        # below stays branch-free with respect to tracing. The sampling
        # profiler is the one exception, and it reduces to a single
        # local-int truthiness check per event while disabled and a
        # countdown decrement while enabled; the expensive work happens
        # inside profiler.sample(), at two events per `stride`: the
        # sampled one and the next, which closes its measurement.
        trace_start = self._now if _obs_trace.ENABLED else None
        profiler = _obs_profiler._PROFILER if _obs_profiler.ENABLED else None
        if profiler is not None:
            prof_left = profiler.stride
            profiler.begin_run()
        else:
            prof_left = 0
        events_before = self.event_count
        times = self._times
        buckets = self._buckets
        ready = self._ready
        pop = heapq.heappop
        push = heappush
        seq = self._seq
        events = 0
        entries: List[Tuple[int, Any, Any]] = ready
        pos = 0
        self._running = True
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    self._now = until
                    break
                pop(times)
                entries = buckets.pop(time)
                pos = 0
                self._now = time
                # Dispatch the batch at `time`: the bucket first, then
                # the zero-delay wakeups it produced (their keys are
                # always younger than every bucket entry's, so this is
                # exactly global key order).
                while True:
                    if pos >= len(entries):
                        if entries is ready:
                            break
                        entries = ready
                        pos = 0
                        continue
                    _key, target, payload = entries[pos]
                    pos += 1
                    if prof_left:
                        prof_left -= 1
                        if not prof_left:
                            prof_left = profiler.sample(target)
                    if target.__class__ is not Process:
                        target(*payload)
                    elif target.alive:
                        try:
                            if target._pending_error is None:
                                yielded = target._generator.send(payload)
                            else:
                                error = target._pending_error
                                target._pending_error = None
                                yielded = target._generator.throw(error)
                        except StopIteration as stop:
                            target.alive = False
                            result = target.result = stop.value
                            joiners = target._joiners
                            if joiners:
                                target._joiners = []
                                for joiner in joiners:
                                    ready.append((next(seq), joiner, result))
                        except BaseException as exc:
                            if target._crash(exc):
                                events += 1
                                raise
                        else:
                            ycls = yielded.__class__
                            if (ycls is float or ycls is int) and yielded >= 0:
                                if yielded:
                                    when = time + yielded
                                    bkt = buckets.get(when)
                                    if bkt is None:
                                        buckets[when] = [(next(seq), target, None)]
                                        push(times, when)
                                    else:
                                        bkt.append((next(seq), target, None))
                                else:
                                    ready.append((next(seq), target, None))
                            elif ycls is Signal:
                                if yielded.oneshot and yielded.fired:
                                    ready.append((next(seq), target, yielded.value))
                                else:
                                    yielded._waiters.append(target)
                            elif ycls is Process:
                                if yielded.alive:
                                    yielded._joiners.append(target)
                                elif yielded.error is not None:
                                    # Joining an already-crashed process
                                    # raises its error, as joining before
                                    # the crash does.
                                    target._pending_error = yielded.error
                                    ready.append((next(seq), target, None))
                                else:
                                    ready.append((next(seq), target, yielded.result))
                            else:
                                error = SimulationError(
                                    f"process {target.name!r} yielded "
                                    f"{yielded!r}; expected a non-negative "
                                    "number of seconds, a Signal or a Process"
                                )
                                if target._crash(error):
                                    events += 1
                                    raise error
                    # else: stale wakeup of a finished process — drop.
                    events += 1
                    if events > max_events:
                        raise SimulationError(
                            f"exceeded {max_events} events; probable "
                            f"livelock at t={self._now}"
                        )
                del ready[:]
                pos = 0
        finally:
            self._running = False
            if entries is ready:
                leftover = ready[pos:]
            else:
                leftover = entries[pos:]
                leftover.extend(ready)
            del ready[:]
            if leftover:
                # Exceptional exit mid-batch: spill undispatched wakeups
                # back into a bucket so a later run() sees them.
                now = self._now
                existing = buckets.get(now)
                if existing is None:
                    buckets[now] = leftover
                    push(times, now)
                else:
                    # Entries for this same instant were scheduled
                    # mid-batch; merge and restore key order.
                    leftover.extend(existing)
                    leftover.sort(key=_ENTRY_KEY)
                    buckets[now] = leftover
            self.event_count += events
        if until is not None and self._now < until and not times:
            self._now = until
        if trace_start is not None and _obs_trace.ENABLED:
            _obs_trace.span(
                "sim.run",
                trace_start,
                self._now,
                "sim",
                events=self.event_count - events_before,
            )
        return self._now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: run ``generator`` as a process to completion.

        Returns the process return value; re-raises any crash.
        """
        proc = self.process(generator, name=name)
        self.run()
        if proc.error is not None:
            raise proc.error
        if proc.alive:
            raise SimulationError(
                f"process {proc.name!r} did not finish (deadlock?)"
            )
        return proc.result

    # -- helpers ----------------------------------------------------------------
    def all_of(self, waitables: Iterable[Any]) -> Process:
        """A process completing when every signal/process in the list has."""

        def _waiter():
            results = []
            for waitable in waitables:
                results.append((yield waitable))
            return results

        return self.process(_waiter(), name="all_of")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        pending = sum(len(b) for b in self._buckets.values())
        return f"Simulator(now={self._now!r}, pending={pending})"
