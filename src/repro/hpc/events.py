"""Discrete-event simulation core.

A minimal but complete event loop: events are ``(time, priority, sequence)``
ordered callbacks.  The loop advances a virtual clock to each event's
timestamp and invokes its callback; callbacks may schedule further events.

The heap holds ``(time, priority, sequence, event)`` tuples, so ``heapq``
orders them with C-level tuple comparison.  ``sequence`` is unique per loop,
so two entries never tie on it and the :class:`SimEvent` itself is never
compared.

The design deliberately mirrors the structure of SimPy-like engines while
staying dependency-free and fully deterministic: ties in time are broken by
priority and then by insertion order, so replays are bitwise identical.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.exceptions import SimulationError

__all__ = ["SimEvent", "EventLoop"]


@dataclass(eq=False)
class SimEvent:
    """A scheduled callback.

    ``(time, priority, sequence)`` fixes its place in the loop's heap; the
    loop orders heap entries by those keys, never by the event object.
    """

    time: float
    priority: int
    sequence: int
    callback: Callable[..., None]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the loop skips it when its time comes."""
        self.cancelled = True


class EventLoop:
    """A deterministic discrete-event loop with a virtual clock.

    Notes
    -----
    * Scheduling an event in the past raises :class:`SimulationError`; the
      simulated world never travels backwards.
    * ``priority`` lets the runtime order same-timestamp events (e.g. release
      resources *before* trying to place waiting tasks).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, SimEvent]] = []
        self._counter = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> SimEvent:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before current time "
                f"t={self._now:.6f}"
            )
        event = SimEvent(
            float(time), int(priority), next(self._counter), callback, args, kwargs
        )
        heapq.heappush(
            self._queue, (event.time, event.priority, event.sequence, event)
        )
        return event

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> SimEvent:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(
            self._now + float(delay), callback, *args, priority=priority, **kwargs
        )

    def peek(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if the queue is empty."""
        while self._queue and self._queue[0][3].cancelled:
            heapq.heappop(self._queue)
        if not self._queue:
            return None
        return self._queue[0][0]

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when nothing is pending."""
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                continue
            self._now = event.time
            event.callback(*event.args, **event.kwargs)
            self._processed += 1
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fired).

        Returns the number of events executed by this call.
        """
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        return executed

    def run_until(self, time: float) -> int:
        """Run events with timestamps ``<= time``; advance the clock to ``time``.

        Returns the number of events executed.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run until t={time:.6f}, clock already at t={self._now:.6f}"
            )
        executed = 0
        while True:
            upcoming = self.peek()
            if upcoming is None or upcoming > time:
                break
            self.step()
            executed += 1
        self._now = float(time)
        return executed

    def advance(self, delay: float) -> int:
        """Run for ``delay`` seconds of simulated time (convenience wrapper)."""
        return self.run_until(self._now + float(delay))
