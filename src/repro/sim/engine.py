"""Deterministic discrete-event simulation kernel.

Every timed component in the ThymesisFlow reproduction (serdes lanes, LLC
framers, DRAM banks, application thread pools) runs on this engine. The
design goals are:

* **Determinism** — events scheduled for the same timestamp fire in a
  stable order (priority, then insertion sequence), so simulations are
  bit-reproducible for a given seed.
* **Coroutine processes** — model code is written as generators that
  ``yield`` waitable objects (:class:`Timeout`, :class:`Signal`,
  :class:`Process`), in the style of SimPy, which keeps pipeline stages
  readable.
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
  compare much faster than tuples.  ``key`` folds priority and
  insertion sequence into one integer; appends are naturally
  key-ordered, so a bucket only needs sorting when a non-zero priority
  was scheduled into it (tracked in ``_dirty``).
* ``_ready`` — a plain list of ``(key, target, payload)`` entries for
  the timestamp currently being dispatched.  Zero-delay wakeups (signal
  fires, process spawns, join notifications — the bulk of datapath
  traffic) append here and are consumed by index, skipping the bucket
  machinery entirely.  Entries landing in ``_ready`` always carry
  larger keys than the bucket being dispatched, so draining the bucket
  and then ``_ready`` preserves global key order.

``target`` is either a :class:`Process` (resume its generator with
``payload``) or a plain callback (apply ``payload`` as an args tuple);
:meth:`Simulator.run` discriminates by class and resumes generators
inline — send plus bucket re-insert — without any intermediate Python
call per event.
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
    "Timeout",
    "Signal",
    "Interrupt",
    "SimulationError",
]

#: Priority occupies the high bits of the heap key; sequence numbers the
#: low ``_SEQ_BITS``. 2**48 events is far beyond any plausible run.
_SEQ_BITS = 48
_PRIORITY_SHIFT = 1 << _SEQ_BITS

#: Sort key for re-ordering a bucket whose keys arrived out of order.
_ENTRY_KEY = itemgetter(0)


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. yielding junk)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Waitable:
    """Base class for things a process may ``yield``.

    A waitable either completes immediately or records the waiting
    process and resumes it later by pushing an event entry.
    """

    __slots__ = ()

    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        raise NotImplementedError


class Timeout(_Waitable):
    """Suspend the yielding process for ``delay`` simulated seconds.

    The optional ``value`` is returned from the ``yield`` expression,
    which is occasionally handy for modelling data that arrives with a
    fixed latency.  A Timeout holds no per-wait state, so one instance
    may be yielded repeatedly (hot loops hoist the allocation).
    """

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        self.delay = float(delay)
        self.value = value

    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        delay = self.delay
        if delay == 0.0 and sim._running:
            sim._ready.append((next(sim._seq), process, self.value))
        else:
            sim._push(sim._now + delay, next(sim._seq), process, self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timeout({self.delay!r})"


class Signal(_Waitable):
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

    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        if self.oneshot and self.fired:
            sim._wake(process, self.value)
        else:
            self._waiters.append(process)

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

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else "pending"
        return f"Signal({self.name!r}, {state})"


class Process(_Waitable):
    """A coroutine running inside the simulator.

    Wraps a generator; each ``yield`` hands a :class:`_Waitable` to the
    kernel. A process is itself waitable: yielding a process suspends the
    yielder until the target returns, delivering its return value.
    """

    __slots__ = (
        "sim",
        "_name",
        "_generator",
        "alive",
        "result",
        "error",
        "_joiners",
        "_join_signal",
        "_pending_interrupt",
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
        #: Created lazily on first access: most processes finish with no
        #: external observer, and the Signal + f-string name allocation
        #: showed up hot in datapath profiles.
        self._join_signal: Optional[Signal] = None
        #: Exception to throw into the generator at the next resume:
        #: an :class:`Interrupt` (via :meth:`interrupt`) or a crashed
        #: dependency's error being propagated to this joiner.
        self._pending_interrupt: Optional[BaseException] = None

    @property
    def name(self) -> str:
        n = self._name
        if not n:
            n = self._name = getattr(self._generator, "__name__", "process")
        return n

    @property
    def join_signal(self) -> Signal:
        """Oneshot signal fired with the process result on completion."""
        if self._join_signal is None:
            self._join_signal = Signal(name=f"{self.name}.done", oneshot=True)
            if not self.alive:
                self._join_signal.fire(self.result)
        return self._join_signal

    # -- waitable protocol -------------------------------------------------
    def _subscribe(self, sim: "Simulator", process: "Process") -> None:
        if not self.alive:
            if self.error is not None and not isinstance(
                self.error, Interrupt
            ):
                # Joining an already-crashed process re-raises its error
                # in the joiner (same contract as joining before the
                # crash — see _finish).
                process._pending_interrupt = self.error
                sim._wake(process, None)
            else:
                sim._wake(process, self.result)
        else:
            self._joiners.append(process)

    # -- kernel internals --------------------------------------------------
    def _resume(self, value: Any = None) -> None:
        """Advance the generator by one yield (slow / generic path).

        :meth:`Simulator.run` inlines an equivalent of this body for
        process-shaped entries; this method serves :meth:`Simulator.step`,
        interrupt delivery, and any externally scheduled resume.
        """
        if not self.alive:
            return
        try:
            if self._pending_interrupt is not None:
                exc, self._pending_interrupt = self._pending_interrupt, None
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except BaseException as exc:
            self._handle_exception(exc)
            return
        cls = target.__class__
        if cls is Timeout:
            sim = self.sim
            sim._push(
                sim._now + target.delay, next(sim._seq), self, target.value
            )
            return
        if cls is float or cls is int:
            # Bare-number yield: a timeout with no value, minus the
            # Timeout allocation (the repo's hot-path idiom).
            if target >= 0:
                sim = self.sim
                sim._push(sim._now + target, next(sim._seq), self, None)
                return
            self._bad_yield(target)
            return
        if isinstance(target, _Waitable):
            target._subscribe(self.sim, self)
            return
        self._bad_yield(target)

    def _handle_exception(self, exc: BaseException) -> None:
        """Terminate the process after its generator raised ``exc``."""
        if isinstance(exc, StopIteration):
            self._finish(exc.value)
        elif isinstance(exc, Interrupt):
            # An un-caught interrupt terminates the process quietly.
            self._finish(None, error=exc, raise_error=False)
        else:
            self._finish(None, error=exc, raise_error=True)

    def _bad_yield(self, target: Any) -> None:
        exc = SimulationError(
            f"process {self.name!r} yielded {target!r}; expected "
            "Timeout, Signal, Process or a non-negative number of seconds"
        )
        self._finish(None, error=exc, raise_error=True)

    def _finish(
        self,
        result: Any,
        error: Optional[BaseException] = None,
        raise_error: bool = False,
    ) -> None:
        self.alive = False
        self.result = result
        self.error = error
        propagated = False
        if self._joiners:
            joiners, self._joiners = self._joiners, []
            sim = self.sim
            if error is not None and raise_error:
                # Crash propagation: the error is thrown *into* every
                # joiner at its next resume, so model code can catch
                # domain errors across process waits (``try: yield
                # bus.store(...) except RemoteMemoryError``) and the
                # whole waiting chain unwinds via normal exception
                # semantics instead of resuming with a bogus None.
                propagated = True
                for joiner in joiners:
                    joiner._pending_interrupt = error
                    sim._wake(joiner, None)
            else:
                for joiner in joiners:
                    sim._wake(joiner, result)
        if self._join_signal is not None:
            self._join_signal.fire(result)
        if error is not None and raise_error and not propagated:
            # Nobody was waiting: surface the crash out of run().
            self.sim._record_crash(self, error)

    # -- public API ---------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume.

        The interrupt is delivered immediately (as a zero-delay event), so
        a process blocked on a long timeout wakes up now.
        """
        if not self.alive:
            return
        self._pending_interrupt = Interrupt(cause)
        self.sim._wake(self, None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"Process({self.name!r}, {state})"


class Simulator:
    """The event loop: a two-tier priority queue of timestamped events."""

    __slots__ = (
        "_times",
        "_buckets",
        "_dirty",
        "_ready",
        "_running",
        "_now",
        "_seq",
        "_crashed",
        "event_count",
    )

    def __init__(self):
        self._times: List[float] = []
        self._buckets: Dict[float, List[Tuple[int, Any, Any]]] = {}
        self._dirty: set = set()
        self._ready: List[Tuple[int, Any, Any]] = []
        self._running = False
        self._now = 0.0
        self._seq = itertools.count()
        self._crashed: List[Tuple[Process, BaseException]] = []
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

    def schedule(
        self,
        delay: float,
        callback: Callable,
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay!r}")
        key = next(self._seq)
        if priority:
            key += priority * _PRIORITY_SHIFT
            time = self._now + delay
            self._push(time, key, callback, args)
            self._dirty.add(time)
            return
        if delay == 0.0 and self._running:
            self._ready.append((key, callback, args))
            return
        self._push(self._now + delay, key, callback, args)

    def schedule_at(
        self,
        time: float,
        callback: Callable,
        *args: Any,
        priority: int = 0,
    ) -> None:
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
        key = next(self._seq)
        if priority:
            key += priority * _PRIORITY_SHIFT
            self._push(time, key, callback, args)
            self._dirty.add(time)
            return
        if time == self._now and self._running:
            self._ready.append((key, callback, args))
            return
        self._push(time, key, callback, args)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a process and start it at time now."""
        proc = Process(self, generator, name=name)
        self._wake(proc, None)
        return proc

    def _wake(self, process: Process, value: Any) -> None:
        """Enqueue a zero-delay resume of ``process`` with ``value``."""
        if self._running:
            self._ready.append((next(self._seq), process, value))
        else:
            self._push(self._now, next(self._seq), process, value)

    # -- execution -----------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next event. Returns False when queue empty."""
        times = self._times
        if not times:
            return False
        time = times[0]
        bucket = self._buckets[time]
        if self._dirty and time in self._dirty:
            self._dirty.discard(time)
            bucket.sort(key=_ENTRY_KEY)
        _key, target, payload = bucket.pop(0)
        if not bucket:
            heapq.heappop(times)
            del self._buckets[time]
        self._now = time
        self.event_count += 1
        if target.__class__ is Process:
            target._resume(payload)
        else:
            target(*payload)
        self._raise_if_crashed()
        return True

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or simulated time exceeds ``until``.

        Returns the simulated time at which execution stopped.  A
        ``max_events`` guard turns accidental infinite event loops into a
        loud failure instead of a hang.

        The loop is deliberately inlined: per timestamp it takes the
        whole bucket, resumes process generators right here (send plus
        bucket re-insert), then drains the zero-delay wakeups the batch
        produced, handling StopIteration completion without leaving the
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
        dirty = self._dirty
        ready = self._ready
        pop = heapq.heappop
        push = heappush
        seq = self._seq
        crashed = self._crashed
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
                bucket = buckets.pop(time)
                if dirty and time in dirty:
                    dirty.discard(time)
                    bucket.sort(key=_ENTRY_KEY)
                self._now = time
                # Dispatch the batch at `time`: the bucket first, then
                # the zero-delay wakeups it produced (their keys are
                # always younger than every bucket entry's, so this is
                # exactly global key order).
                entries = bucket
                pos = 0
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
                    if target.__class__ is Process:
                        if target.alive:
                            if target._pending_interrupt is None:
                                try:
                                    yielded = target._generator.send(payload)
                                except StopIteration as stop:
                                    target.alive = False
                                    result = stop.value
                                    target.result = result
                                    joiners = target._joiners
                                    if joiners:
                                        target._joiners = []
                                        for joiner in joiners:
                                            ready.append(
                                                (next(seq), joiner, result)
                                            )
                                    if target._join_signal is not None:
                                        target._join_signal.fire(result)
                                except BaseException as exc:
                                    target._handle_exception(exc)
                                    if crashed:
                                        self.event_count += events + 1
                                        events = 0
                                        self._raise_if_crashed()
                                else:
                                    ycls = yielded.__class__
                                    if ycls is float:
                                        # Bare-number timeout (hot-path
                                        # idiom): no value, no object.
                                        if yielded > 0.0:
                                            when = time + yielded
                                            bkt = buckets.get(when)
                                            if bkt is None:
                                                buckets[when] = [
                                                    (next(seq), target, None)
                                                ]
                                                push(times, when)
                                            else:
                                                bkt.append(
                                                    (next(seq), target, None)
                                                )
                                        elif yielded == 0.0:
                                            ready.append(
                                                (next(seq), target, None)
                                            )
                                        else:
                                            target._bad_yield(yielded)
                                            if crashed:
                                                self.event_count += events + 1
                                                events = 0
                                                self._raise_if_crashed()
                                    elif ycls is Timeout:
                                        delay = yielded.delay
                                        if delay:
                                            when = time + delay
                                            entry = (
                                                next(seq),
                                                target,
                                                yielded.value,
                                            )
                                            bkt = buckets.get(when)
                                            if bkt is None:
                                                buckets[when] = [entry]
                                                push(times, when)
                                            else:
                                                bkt.append(entry)
                                        else:
                                            ready.append(
                                                (
                                                    next(seq),
                                                    target,
                                                    yielded.value,
                                                )
                                            )
                                    elif ycls is Signal:
                                        if yielded.oneshot and yielded.fired:
                                            ready.append(
                                                (
                                                    next(seq),
                                                    target,
                                                    yielded.value,
                                                )
                                            )
                                        else:
                                            yielded._waiters.append(target)
                                    elif ycls is Process:
                                        if yielded.alive:
                                            yielded._joiners.append(target)
                                        elif (
                                            yielded.error is not None
                                            and not isinstance(
                                                yielded.error, Interrupt
                                            )
                                        ):
                                            target._pending_interrupt = (
                                                yielded.error
                                            )
                                            ready.append(
                                                (next(seq), target, None)
                                            )
                                        else:
                                            ready.append(
                                                (
                                                    next(seq),
                                                    target,
                                                    yielded.result,
                                                )
                                            )
                                    elif ycls is int:
                                        if yielded >= 0:
                                            if yielded:
                                                when = time + yielded
                                                bkt = buckets.get(when)
                                                if bkt is None:
                                                    buckets[when] = [
                                                        (
                                                            next(seq),
                                                            target,
                                                            None,
                                                        )
                                                    ]
                                                    push(times, when)
                                                else:
                                                    bkt.append(
                                                        (
                                                            next(seq),
                                                            target,
                                                            None,
                                                        )
                                                    )
                                            else:
                                                ready.append(
                                                    (next(seq), target, None)
                                                )
                                        else:
                                            target._bad_yield(yielded)
                                            if crashed:
                                                self.event_count += events + 1
                                                events = 0
                                                self._raise_if_crashed()
                                    elif isinstance(yielded, _Waitable):
                                        yielded._subscribe(self, target)
                                    else:
                                        target._bad_yield(yielded)
                                        if crashed:
                                            self.event_count += events + 1
                                            events = 0
                                            self._raise_if_crashed()
                            else:
                                target._resume(payload)
                                if crashed:
                                    self.event_count += events + 1
                                    events = 0
                                    self._raise_if_crashed()
                        # else: stale wakeup of a finished process — drop.
                    else:
                        target(*payload)
                        if crashed:
                            self.event_count += events + 1
                            events = 0
                            self._raise_if_crashed()
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
            pos = 0
            if leftover:
                # Exceptional exit mid-batch: spill undispatched wakeups
                # back into a bucket so a later run()/step() sees them.
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

    # -- crash plumbing --------------------------------------------------------
    def _record_crash(self, process: Process, error: BaseException) -> None:
        self._crashed.append((process, error))

    def _raise_if_crashed(self) -> None:
        if self._crashed:
            process, error = self._crashed[0]
            self._crashed.clear()
            # Re-raise the original exception so callers can catch the
            # domain error type; annotate with the crashing process.
            if hasattr(error, "add_note"):  # Python 3.11+
                error.add_note(f"raised inside process {process.name!r}")
            raise error

    # -- helpers ----------------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Shorthand so model code reads ``yield sim.timeout(x)``."""
        return Timeout(delay, value)

    def all_of(self, waitables: Iterable[_Waitable]) -> Process:
        """A process completing when every waitable in the list has."""

        def _waiter():
            results = []
            for waitable in waitables:
                results.append((yield waitable))
            return results

        return self.process(_waiter(), name="all_of")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        pending = sum(len(b) for b in self._buckets.values())
        return f"Simulator(now={self._now!r}, pending={pending})"
