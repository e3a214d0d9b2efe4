"""Discrete-event simulation kernel.

A minimal calendar queue: callbacks scheduled at absolute or relative
simulated times, executed in (time, insertion) order.  All hardware
components share one :class:`Simulator` instance; all nondeterminism in a
run comes from seeded RNGs owned by components (the kernel itself is
deterministic), so a run is reproducible from its configuration and seed.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.obs.tracer import NULL_TRACER, Tracer


class SimulationError(RuntimeError):
    """Raised for kernel-level failures (negative delays, runaway runs)."""


class Simulator:
    """Event queue with a monotonically advancing clock.

    The simulator also carries the run's :class:`~repro.obs.tracer.Tracer`
    so every hardware component reaches it through its ``sim`` reference;
    the default is the zero-cost null tracer, and instrumentation sites
    gate on ``tracer.enabled`` before building any event.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        #: Current simulated time in cycles.  A plain attribute, since every
        #: component reads it on every event; only :meth:`run` writes it.
        self.now = 0
        self._seq = itertools.count()
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self._events_executed = 0
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER

    def at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        heappush(self._queue, (time, next(self._seq), callback))

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay`` cycles from now."""
        # Pushes directly rather than through at(): one call per event.
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heappush(self._queue, (self.now + delay, next(self._seq), callback))

    def pending(self) -> int:
        """Number of queued events."""
        return len(self._queue)

    def run(
        self,
        until: Optional[int] = None,
        max_events: int = 50_000_000,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Drain the event queue.

        Stops when the queue empties, the clock passes ``until``, the
        ``stop_when`` predicate holds between events, or ``max_events``
        fire (raising, to catch runaway simulations).
        """
        queue = self._queue
        while queue:
            if stop_when is not None and stop_when():
                return
            if until is not None and queue[0][0] > until:
                return
            self.now, _, callback = heappop(queue)
            callback()
            self._events_executed += 1
            if self._events_executed > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events; simulation is likely stuck"
                )
