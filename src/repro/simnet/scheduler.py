"""The discrete-event scheduler that drives every simulation.

A single :class:`Scheduler` owns simulated time.  Components schedule
callbacks with :meth:`Scheduler.call_at` / :meth:`Scheduler.call_after` and
the simulation advances by executing callbacks in timestamp order.  Ties are
broken by insertion order, which makes every run deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import ClockError, SimulationError
from repro.runtime.interfaces import Scheduler as SchedulerInterface
from repro.runtime.interfaces import TimerHandle


class Event:
    """A scheduled callback.  Returned by ``call_at``/``call_after``.

    Holding on to the event allows cancellation via :meth:`cancel` or
    :meth:`Scheduler.cancel`.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} {name}{flag}>"


# Virtual registration: Event keeps its __slots__ (an ABC base would give it
# a __dict__) yet satisfies isinstance checks against the interface.
TimerHandle.register(Event)


class Scheduler(SchedulerInterface):
    """Event loop with simulated time — the discrete-event implementation
    of :class:`repro.runtime.Scheduler`.

    ``now`` is the current simulated time in seconds.  The loop never runs
    wall-clock time; a full benchmark sweep completes in milliseconds of real
    time while reporting seconds of simulated time.
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: ``(time, seq, event)`` entries: ``seq`` is unique, so heap
        #: comparisons settle on the first two fields, in C, and never
        #: reach the event.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._executed = 0

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of callbacks executed so far (for diagnostics)."""
        return self._executed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise ClockError(
                f"cannot schedule at t={time:.9f}, now is t={self._now:.9f}"
            )
        seq = next(self._seq)
        event = Event(time, seq, fn, args)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ClockError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, fn, *args)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (``None`` is a no-op)."""
        if event is not None:
            event.cancel()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self._now = time
            self._executed += 1
            event.fn(*event.args)
            return True
        return False

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain (or ``max_events``, a runaway guard)."""
        for _ in range(max_events):
            if not self.step():
                return
        raise SimulationError(f"scheduler exceeded {max_events} events")

    def run_until(self, time: float, max_events: int = 10_000_000) -> None:
        """Run events with timestamp <= ``time``; leave ``now`` at ``time``."""
        if time < self._now:
            raise ClockError(f"run_until({time}) is in the past (now={self._now})")
        heap = self._heap
        for _ in range(max_events):
            if not heap:
                break
            head_time, _, head = heap[0]
            if head.cancelled:
                heapq.heappop(heap)
                continue
            if head_time > time:
                break
            self.step()
        else:
            raise SimulationError(f"scheduler exceeded {max_events} events")
        self._now = max(self._now, time)

    def run_while(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        max_events: int = 10_000_000,
    ) -> bool:
        """Run while ``predicate()`` is true, up to ``timeout`` simulated seconds.

        Returns True if the predicate became false (success), False if the
        timeout elapsed first.  This is the standard way tests wait for a
        condition such as "replica recovered".
        """
        deadline = self._now + timeout
        for _ in range(max_events):
            if not predicate():
                return True
            if not self._heap or self._heap[0][0] > deadline:
                self._now = max(self._now, deadline)
                return not predicate()
            self.step()
        raise SimulationError(f"scheduler exceeded {max_events} events")

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)
