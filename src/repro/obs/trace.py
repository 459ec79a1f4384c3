"""Span-based transaction tracer.

The tracer follows individual memory transactions end to end through
the simulated stack. Components do not open and close spans; instead
they **mark** stage boundaries as the transaction crosses them::

    bus.issue -> rmmu.translate -> routing.forward -> llc.submit
      -> llc.frame -> llc.deliver -> dram.service -> dram.done
      -> routing.response -> llc.submit -> llc.frame -> llc.deliver
      -> complete

Spans are derived between consecutive marks, which makes them
contiguous and non-overlapping by construction: the child spans of a
transaction tile its end-to-end latency exactly (the property the
observability tests assert). Components with activity that is not tied
to one transaction (link serialization, replay requests, the engine's
run loop) record free-standing :meth:`Tracer.span` / instant events on
named tracks instead.

Cost model
----------
``ENABLED`` is a module-level flag, set by :func:`repro.obs.session`.
Every instrumented call site in the datapath reads it **before**
touching the tracer or allocating anything, so the disabled cost is
one global load plus a branch per site. When enabled, 1-in-N sampling (``sample_every``) further bounds
the volume: a transaction is traced iff ``base_txn_id % sample_every
== 0``, a deterministic rule that needs no per-transaction state for
declined ids and keeps split-burst segments attributed to their base
transaction.

This module must stay stdlib-only — the simulation kernel imports it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "ENABLED",
    "Tracer",
    "TxnRecord",
    "Span",
    "enable_tracing",
    "disable_tracing",
    "txn_begin",
    "txn_mark",
    "txn_end",
    "span",
    "instant",
]

#: Fast-path guard. Instrumented call sites check this before calling
#: any tracer function; nothing below allocates while it is False.
ENABLED = False

_TRACER: Optional["Tracer"] = None


class TxnRecord:
    """The traced life of one transaction (or burst).

    ``marks`` is the ordered list of ``(time, stage, where)`` boundary
    crossings; ``segments()`` derives the contiguous per-layer spans.
    """

    __slots__ = ("base_id", "op", "bytes", "origin", "marks", "done")

    def __init__(self, base_id: int, op: str, nbytes: int, origin: str):
        self.base_id = base_id
        self.op = op
        self.bytes = nbytes
        self.origin = origin
        self.marks: List[Tuple[float, str, str]] = []
        self.done = False

    @property
    def start(self) -> float:
        return self.marks[0][0] if self.marks else 0.0

    @property
    def end(self) -> float:
        return self.marks[-1][0] if self.marks else 0.0

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def stages(self) -> List[str]:
        return [stage for _t, stage, _w in self.marks]

    def segments(self) -> List[Tuple[str, float, float, str]]:
        """Contiguous child spans: ``(stage, start, end, where)``.

        Span *k* is named after the mark that opens it and ends at the
        next mark, so consecutive spans share boundaries — they cannot
        overlap and their durations telescope to the end-to-end latency.
        """
        out = []
        for index in range(len(self.marks) - 1):
            t0, stage, where = self.marks[index]
            t1 = self.marks[index + 1][0]
            out.append((stage, t0, t1, where))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TxnRecord(id={self.base_id}, op={self.op}, "
            f"marks={len(self.marks)}, done={self.done})"
        )


class Span:
    """A free-standing component span (not tied to one transaction)."""

    __slots__ = ("name", "track", "start", "end", "args")

    def __init__(
        self, name: str, track: str, start: float, end: float, args: dict
    ):
        self.name = name
        self.track = track
        self.start = start
        self.end = end
        self.args = args


class Tracer:
    """Collects transaction records and component spans for one session."""

    def __init__(self, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1: {sample_every}")
        self.sample_every = sample_every
        self.transactions: Dict[int, TxnRecord] = {}
        self.spans: List[Span] = []
        self.instants: List[Span] = []
        self.dropped_by_sampling = 0

    # -- transaction lifecycle ------------------------------------------------
    def _sampled(self, base_id: int) -> bool:
        return base_id % self.sample_every == 0

    def txn_begin(
        self, now: float, base_id: int, op: str, nbytes: int, where: str
    ) -> None:
        record = self.transactions.get(base_id)
        if record is None:
            if not self._sampled(base_id):
                self.dropped_by_sampling += 1
                return
            record = TxnRecord(base_id, op, nbytes, where)
            self.transactions[base_id] = record
        record.marks.append((now, "bus.issue", where))

    def txn_mark(
        self, now: float, base_id: int, stage: str, where: str
    ) -> None:
        record = self.transactions.get(base_id)
        if record is not None:
            record.marks.append((now, stage, where))

    def txn_end(self, now: float, base_id: int, where: str) -> None:
        record = self.transactions.get(base_id)
        if record is not None:
            record.marks.append((now, "complete", where))
            record.done = True

    # -- free-standing events -------------------------------------------------
    def span(
        self, name: str, start: float, end: float, track: str, **args: Any
    ) -> None:
        self.spans.append(Span(name, track, start, end, args))

    def instant(self, name: str, now: float, track: str, **args: Any) -> None:
        self.instants.append(Span(name, track, now, now, args))

    # -- queries --------------------------------------------------------------
    def completed(self) -> List[TxnRecord]:
        return [r for r in self.transactions.values() if r.done]

    def find(self, **predicates: Any) -> List[TxnRecord]:
        """Completed records matching attribute equality predicates."""
        out = []
        for record in self.completed():
            if all(
                getattr(record, key) == value
                for key, value in predicates.items()
            ):
                out.append(record)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tracer(txns={len(self.transactions)}, "
            f"spans={len(self.spans)}, 1/{self.sample_every})"
        )


# -- legacy switch ----------------------------------------------------------------
# ``repro.obs.session`` is the telemetry switch. These two remain only
# for the benchmark ledger (``bench/ledger.py``), which is frozen with
# the benchmark; ROADMAP item 5 moves it to ``session`` and deletes
# them. No ``repro`` code calls them.


def enable_tracing(sample_every: int = 1) -> Tracer:
    """Install a fresh global tracer and flip the fast-path flag on.

    Legacy: use ``session(trace=Tracer(...))``. ROADMAP item 5 deletes it.
    """
    global ENABLED, _TRACER
    _TRACER = Tracer(sample_every=sample_every)
    ENABLED = True
    return _TRACER


def disable_tracing() -> Optional[Tracer]:
    """Flip the flag off; returns the tracer that was collecting.

    Legacy, like :func:`enable_tracing`.
    """
    global ENABLED, _TRACER
    tracer, _TRACER = _TRACER, None
    ENABLED = False
    return tracer


# -- call-site helpers ------------------------------------------------------------
# Instrumented components call these ONLY behind an ``if trace.ENABLED:``
# guard; the None-check below covers a session ending within one
# dispatch batch, not the common path.


def txn_begin(
    now: float, base_id: int, op: str, nbytes: int, where: str
) -> None:
    if _TRACER is not None:
        _TRACER.txn_begin(now, base_id, op, nbytes, where)


def txn_mark(now: float, base_id: int, stage: str, where: str) -> None:
    if _TRACER is not None:
        _TRACER.txn_mark(now, base_id, stage, where)


def txn_end(now: float, base_id: int, where: str) -> None:
    if _TRACER is not None:
        _TRACER.txn_end(now, base_id, where)


def span(name: str, start: float, end: float, track: str, **args: Any) -> None:
    if _TRACER is not None:
        _TRACER.span(name, start, end, track, **args)


def instant(name: str, now: float, track: str, **args: Any) -> None:
    if _TRACER is not None:
        _TRACER.instant(name, now, track, **args)
