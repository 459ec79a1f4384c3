"""Rack domains under conservative time sync.

This module partitions a run into **domains**, each with its own
:class:`~repro.sim.engine.Simulator`, that exchange timestamped
messages through one coordinator, Chandy–Misra style. All domains run
in the calling process:

* Time is cut into fixed **windows** of width ``lookahead``. Window
  ``k`` covers ``((k)·W, (k+1)·W]``; ends are computed by
  multiplication (never accumulation) so every domain sees the exact
  same float boundaries.
* Every inter-domain message must arrive at least ``lookahead`` after
  it was sent. A message sent during window ``k`` (``send_t > k·W``)
  therefore has ``deliver_t > (k+1)·W`` — it can never land inside a
  window a neighbor has already simulated. That is the conservative
  safety invariant; :class:`SyncError` is raised loudly if a program
  violates it.
* Each round, every domain advances to the same window end with its
  sorted inbox, in domain-index order; the coordinator then routes the
  round's outboxes. Inboxes are sorted by the stable
  ``(deliver_t, src, seq)`` key, so delivery order does not depend on
  the order in which messages were routed.

A domain program must provide::

    advance(window_end, inbox) -> list[DomainMessage]   # one window
    finalize() -> dict                                  # artifacts

``advance`` schedules each inbox message at its ``deliver_t``, runs
its simulator to ``window_end``, and returns the messages emitted
during the window — each stamped with a per-domain monotonically
increasing ``seq``. ``finalize`` returns a deterministic artifact (no
wall-clock values).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from .engine import SimulationError

__all__ = ["DomainMessage", "DomainCoordinator", "SyncError"]


class SyncError(SimulationError):
    """Conservative-synchronization contract violation."""

    code = "sim/domain-sync"


class DomainMessage:
    """One timestamped inter-domain message.

    ``src``/``dst`` are domain indices; ``seq`` is the sender's own
    monotonically increasing counter (the tie-breaker that makes
    same-timestamp delivery deterministic); ``payload`` is any small
    value.
    """

    __slots__ = ("src", "dst", "send_t", "deliver_t", "seq", "kind",
                 "payload")

    def __init__(self, src: int, dst: int, send_t: float, deliver_t: float,
                 seq: int, kind: str, payload: Any = None):
        self.src = src
        self.dst = dst
        self.send_t = send_t
        self.deliver_t = deliver_t
        self.seq = seq
        self.kind = kind
        self.payload = payload

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.deliver_t, self.src, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DomainMessage({self.kind!r}, {self.src}->{self.dst}, "
            f"t={self.send_t:g}->{self.deliver_t:g}, seq={self.seq})"
        )


class DomainCoordinator:
    """Runs domain programs in lockstep windows, routing their messages.

    ``programs`` holds one built program per domain (domain index =
    list position). ``lookahead`` is the window width — the minimum
    inter-domain message latency. ``horizon`` is the sim time up to
    which every domain must advance; the coordinator keeps running
    whole windows past it while messages remain in flight (bounded by
    ``max_drain_rounds``).
    """

    def __init__(
        self,
        programs: Sequence[Any],
        lookahead: float,
        horizon: float,
        max_drain_rounds: int = 64,
    ):
        if not programs:
            raise ValueError("need at least one domain program")
        if lookahead <= 0:
            raise ValueError(f"lookahead must be > 0, got {lookahead!r}")
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon!r}")
        self.programs = list(programs)
        self.lookahead = float(lookahead)
        self.horizon = float(horizon)
        self.max_drain_rounds = max_drain_rounds
        self.rounds = 0
        self.messages_routed = 0

    def run(self) -> Dict[str, Any]:
        count = len(self.programs)
        pending: List[List[DomainMessage]] = [[] for _ in range(count)]
        in_flight = 0
        round_index = 0
        max_rounds = (
            int(self.horizon / self.lookahead) + 1 + self.max_drain_rounds
        )
        while in_flight or round_index * self.lookahead < self.horizon:
            if round_index >= max_rounds:
                raise SyncError(
                    f"{in_flight} message(s) still in flight after "
                    f"{round_index} rounds (horizon {self.horizon:g}, "
                    f"lookahead {self.lookahead:g}) — drain did not "
                    f"converge"
                )
            # Exact same float for every domain: multiply, never
            # accumulate.
            window_end = (round_index + 1) * self.lookahead

            outboxes: List[List[DomainMessage]] = []
            for domain, program in enumerate(self.programs):
                due = [m for m in pending[domain]
                       if m.deliver_t <= window_end]
                if due:
                    pending[domain] = [
                        m for m in pending[domain]
                        if m.deliver_t > window_end
                    ]
                    due.sort(key=DomainMessage.sort_key)
                    in_flight -= len(due)
                outboxes.append(program.advance(window_end, due))

            for domain, outbox in enumerate(outboxes):
                for message in outbox:
                    self._validate(message, domain, window_end, count)
                    pending[message.dst].append(message)
                    in_flight += 1
                    self.messages_routed += 1
            round_index += 1

        self.rounds = round_index
        return {
            "artifacts": [program.finalize() for program in self.programs],
            "rounds": self.rounds,
            "messages": self.messages_routed,
        }

    def _validate(self, message: DomainMessage, domain: int,
                  window_end: float, count: int) -> None:
        if message.src != domain:
            raise SyncError(
                f"domain {domain} emitted a message stamped src="
                f"{message.src}"
            )
        if not 0 <= message.dst < count:
            raise SyncError(
                f"message from domain {domain} addressed to unknown "
                f"domain {message.dst}"
            )
        # One-ulp slop: (send_t + lookahead) - send_t can round a hair
        # below lookahead. Safety rests on the window check below, not
        # on this contract check, so tolerate float rounding here.
        latency = message.deliver_t - message.send_t
        if latency < self.lookahead * (1.0 - 1e-12) - 1e-12:
            raise SyncError(
                f"message {message.kind!r} from domain {domain} has "
                f"latency {latency:g} < lookahead {self.lookahead:g}"
            )
        if message.deliver_t <= window_end:
            raise SyncError(
                f"message {message.kind!r} from domain {domain} would "
                f"arrive at {message.deliver_t:g}, inside the window "
                f"ending {window_end:g} its neighbor already simulated"
            )
