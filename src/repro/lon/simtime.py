"""Discrete-event simulation clock and event queue.

The streaming experiments in the paper (Figures 9-12) are driven by the
relative latencies of three storage tiers: the client agent's in-memory cache
(~1e-4 s), a depot on the client's LAN (~1e-2..1e-1 s) and depots across the
WAN (~1 s).  Rather than sleeping for real seconds, every network and storage
operation in this reproduction advances a shared :class:`SimClock` through a
:class:`EventQueue`.  CPU costs that are genuinely paid on this machine
(decompression, rendering) are measured in wall-clock time and *injected* into
the simulation as service times, so client-observed latency composes both —
exactly what the paper measures at the client.

The design is a classic calendar queue: events are ``(time, seq, callback)``
triples ordered by time with a monotonically increasing sequence number as the
tiebreaker, which makes simultaneous events fire in schedule order and keeps
runs bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = [
    "SimClock",
    "Event",
    "EventQueue",
    "Process",
    "SimulationError",
    "TIME_EPSILON",
    "time_eq",
    "time_le",
]

#: Tolerance for comparing simulation timestamps.  Sim times are sums of
#: float delays, so exact ``==`` is fragile; every equality test on sim
#: time must go through :func:`time_eq` (lint rule SIM005).
TIME_EPSILON = 1e-9


def time_eq(a: float, b: float, eps: float = TIME_EPSILON) -> bool:
    """True when two simulation timestamps are equal within ``eps``."""
    return abs(a - b) <= eps


def time_le(a: float, b: float, eps: float = TIME_EPSILON) -> bool:
    """True when ``a`` precedes (or equals, within ``eps``) ``b``."""
    return a <= b + eps


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an inconsistent state."""


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, seq)`` so that heap ordering is total even when
    two events share a timestamp.  ``cancelled`` events stay in the heap but
    are skipped when popped (lazy deletion), which keeps cancellation O(1).
    ``__slots__`` matters at scale: rebalancing and scheduler retargeting
    churn through millions of events per multi-client session.

    The queue's heap stores ``(time, seq, event)`` triples rather than bare
    events, so sift comparisons resolve on the C-level float/int pair and
    never call back into this class's generated ``__lt__`` — at hundreds of
    thousands of events per session those interpreter re-entries were one
    of the hottest lines in the whole simulator.
    """

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)
    queue: Optional["EventQueue"] = field(default=None, compare=False,
                                          repr=False)

    def cancel(self) -> None:
        """Cancel through the owning queue so live-count bookkeeping holds.

        Both cancellation paths (``event.cancel()`` and
        ``queue.cancel(event)``) route through :meth:`EventQueue.cancel`;
        a detached event (no queue) just flips its flag.
        """
        if self.queue is not None:
            self.queue.cancel(self)
        elif not self.fired:
            self.cancelled = True


class SimClock:
    """Monotonic simulation time in seconds.

    Only :class:`EventQueue` should advance the clock; everything else reads
    ``now``.  Attempting to move time backwards raises
    :class:`SimulationError` instead of silently corrupting causality.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def _advance_to(self, t: float) -> None:
        if t < self._now - 1e-12:
            raise SimulationError(
                f"clock cannot run backwards: now={self._now!r}, target={t!r}"
            )
        self._now = max(self._now, t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"


class EventQueue:
    """Priority queue of timed callbacks driving a :class:`SimClock`.

    Typical use::

        q = EventQueue()
        q.schedule(1.5, lambda: print("fires at t=1.5"))
        q.run()

    ``run_until`` executes events up to (and including) a horizon, which the
    streaming session harness uses to interleave user-input processing with
    background staging traffic.

    Cancelled events are lazily deleted: they stay in the heap until popped.
    Workloads that retarget heavily (rate rebalancing, prefetch
    cancellation) can leave the heap mostly garbage, so whenever the
    cancelled fraction exceeds ``compact_threshold`` (and the heap is at
    least ``compact_min`` entries) the heap is compacted in O(n) — the
    (time, seq) total order makes ``heapify`` deterministic.
    """

    def __init__(self, clock: Optional[SimClock] = None,
                 compact_threshold: float = 0.5,
                 compact_min: int = 512) -> None:
        if not 0.0 < compact_threshold <= 1.0:
            raise ValueError("compact_threshold must be in (0, 1]")
        self.clock = clock if clock is not None else SimClock()
        self.compact_threshold = compact_threshold
        self.compact_min = compact_min
        # (time, seq, event) triples: heap sift orders on the C float/int
        # pair without re-entering python (see Event docstring)
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0  # next unissued sequence number
        self._live = 0  # number of non-cancelled events in the heap
        self._garbage = 0  # cancelled events still sitting in the heap
        self.compactions = 0  # times the heap was rebuilt (for tests/bench)
        self.fired_total = 0  # events fired over the queue's lifetime
        #: observer called as ``on_fire(event)`` just before each event's
        #: callback runs.  The determinism checker hangs its event-stream
        #: fingerprint here; ``None`` costs one attribute test per event.
        self.on_fire: Optional[Callable[[Event], None]] = None

    def __len__(self) -> int:
        return self._live

    @property
    def now(self) -> float:
        """Shortcut for ``self.clock.now``."""
        return self.clock.now

    def reserve_seq(self, n: int = 1) -> int:
        """Claim ``n`` consecutive sequence numbers; returns the first.

        A caller that tracks many potential events outside the heap (the
        network's completion timer) reserves a number at the point it
        would have scheduled, so every other event keeps its number, and
        later schedules the one event it needs with ``seq=``.
        """
        first = self._next_seq
        self._next_seq += n
        return first

    def schedule(
        self, time: float, callback: Callable[[], None], label: str = "",
        seq: Optional[int] = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``.

        ``seq`` is a number from :meth:`reserve_seq` to order the event
        by; by default the event takes the next unissued one.
        """
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        now = self.clock.now
        if time < now:
            if time < now - 1e-12:
                raise SimulationError(
                    f"cannot schedule into the past: now={now}, t={time}"
                )
            time = now
        if seq is None:
            seq = self._next_seq
            self._next_seq += 1
        ev = Event(time=time, seq=seq,
                   callback=callback, label=label, queue=self)
        heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def schedule_in(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay!r}")
        return self.schedule(self.clock.now + delay, callback, label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        if not event.cancelled and not event.fired:
            event.cancelled = True
            self._live -= 1
            self._garbage += 1
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap once lazy-deletion garbage dominates it."""
        if (len(self._heap) >= self.compact_min
                and self._garbage >= self.compact_threshold
                * len(self._heap)):
            self._heap = [e for e in self._heap if not e[2].cancelled]
            heapq.heapify(self._heap)
            self._garbage = 0
            self.compactions += 1

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
            self._garbage -= 1

    def step(self) -> bool:
        """Fire the next event.  Returns False if the queue was empty."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            ev = entry[2]
            if ev.cancelled:
                self._garbage -= 1
                continue
            self._live -= 1
            ev.fired = True
            self.fired_total += 1
            # heap order guarantees monotonic time (schedule() rejects the
            # past), so the clock can be bumped without the backwards check
            clock = self.clock
            t = entry[0]
            if t > clock._now:
                clock._now = t
            if self.on_fire is not None:
                self.on_fire(ev)
            ev.callback()
            return True
        return False

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the queue drains.  Returns the number of events fired."""
        fired = 0
        while fired < max_events and self.step():
            fired += 1
        if fired >= max_events:
            raise SimulationError(
                f"event budget exhausted after {fired} events; likely a "
                "self-rescheduling loop"
            )
        return fired

    def run_until(self, horizon: float, max_events: int = 10_000_000) -> int:
        """Run events with time <= horizon, then advance the clock to it."""
        fired = 0
        step = self.step
        while fired < max_events:
            # re-read the heap each iteration: a callback fired by step()
            # can cancel events and trigger a compaction, which rebinds
            # self._heap — a cached alias would go stale and this loop
            # would spin on (and mis-drop from) the pre-compaction list
            heap = self._heap
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)
                self._garbage -= 1
            if not heap or heap[0][0] > horizon:
                break
            step()
            fired += 1
        if fired >= max_events:
            raise SimulationError("event budget exhausted in run_until")
        self.clock._advance_to(horizon)
        return fired


class Process:
    """A resumable activity built on the event queue.

    Thin convenience wrapper used by components that run periodic work (the
    staging pump, lease reaper).  Subclasses or users supply ``body``, a
    callable returning the delay until it wants to run again, or ``None`` to
    stop.
    """

    def __init__(
        self,
        queue: EventQueue,
        body: Callable[[], Optional[float]],
        label: str = "process",
    ) -> None:
        self.queue = queue
        self.body = body
        self.label = label
        self._event: Optional[Event] = None
        self._running = False

    @property
    def running(self) -> bool:
        """True while the process has a pending tick."""
        return self._running

    def start(self, delay: float = 0.0) -> None:
        """Arm the first tick ``delay`` seconds from now."""
        if self._running:
            return
        self._running = True
        self._event = self.queue.schedule_in(delay, self._tick, self.label)

    def stop(self) -> None:
        """Cancel any pending tick."""
        self._running = False
        if self._event is not None:
            self.queue.cancel(self._event)
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        delay = self.body()
        if delay is None or not self._running:
            self._running = False
            self._event = None
        else:
            self._event = self.queue.schedule_in(delay, self._tick, self.label)


def exponential_backoff(base: float, attempt: int, cap: float = 60.0) -> float:
    """Deterministic exponential backoff helper used by retry loops."""
    if base <= 0:
        raise ValueError("base must be positive")
    if attempt < 0:
        raise ValueError("attempt must be non-negative")
    return min(cap, base * (2.0 ** attempt))
