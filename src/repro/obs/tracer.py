"""Structured event tracing: the null tracer and the recording tracer.

The observability layer's contract is *zero cost when off*: every
instrumented component holds a tracer object and asks ``tracer.enabled``
(one attribute load) before building any event arguments.  The module
singleton :data:`NULL_TRACER` answers ``False`` forever, so the
uninstrumented path never allocates, formats, or appends anything.

:class:`RecordingTracer` collects :class:`TraceEvent` records in memory.
Timestamps are caller-defined integers on a per-domain clock:

* the hardware simulator stamps events in **cycles** (exported as
  microseconds, so one Perfetto "us" is one simulated cycle);
* the idealized-architecture explorers stamp events with their
  **transition count** (the only monotone clock an in-place DFS has);
* the verification engine stamps wall-clock microseconds.

Events carry a ``track`` name -- a processor (``P0``), a component
(``net``, ``dir``), or an explorer -- which the exporters map to Chrome
trace-event threads.  :meth:`RecordingTracer.scope` pushes a prefix onto
every track name, so multi-run commands (``litmus`` across tests and
seeds) keep their runs on separate, labelled tracks.

Event kinds follow the Chrome trace-event phases they export to:

* ``span``       -- a complete duration event (phase ``X``);
* ``async_span`` -- a duration that may overlap others on its track,
  e.g. in-flight network messages (exported as async ``b``/``e`` pairs);
* ``instant``    -- a point event (phase ``i``);
* ``counter``    -- a sampled value (phase ``C``).
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, MutableSequence, Optional

#: Identifier of the shared obs timebase, stamped into status snapshots
#: so a reader never mistakes a monotonic timestamp for wall-clock time.
OBS_CLOCK = "monotonic-us"

#: Human-readable epoch contract for :data:`OBS_CLOCK`, embedded in the
#: status-snapshot schema.
OBS_CLOCK_EPOCH = (
    "CLOCK_MONOTONIC with an undefined epoch (host boot on Linux): "
    "timestamps are meaningless in isolation and comparable only "
    "against other obs timestamps taken on the same host while it "
    "stays up -- including across fork workers, which share the clock"
)


def now_us() -> int:
    """The one obs wall-time clock: monotonic microseconds.

    Every obs *wall-clock* timestamp -- engine dispatch spans, worker
    heartbeat records, status-snapshot fields -- reads this clock, so they are mutually comparable
    within a run and across the run's forked worker processes (POSIX
    ``CLOCK_MONOTONIC`` is system-wide, unlike ``perf_counter`` whose
    epoch is unspecified per-process on some platforms).  The per-domain
    integer clocks (simulator cycles, explorer transitions) are *not*
    this clock and remain domain-local by design.
    """
    return time.monotonic_ns() // 1_000


class TraceEvent:
    """One recorded event.  ``phase`` is the Chrome phase it exports to."""

    __slots__ = ("phase", "cat", "name", "track", "ts", "dur", "args")

    def __init__(
        self,
        phase: str,
        cat: str,
        name: str,
        track: str,
        ts: int,
        dur: int = 0,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.phase = phase
        self.cat = cat
        self.name = name
        self.track = track
        self.ts = ts
        self.dur = dur
        self.args = args

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the JSONL exporter's record)."""
        record: Dict[str, Any] = {
            "phase": self.phase,
            "cat": self.cat,
            "name": self.name,
            "track": self.track,
            "ts": self.ts,
        }
        if self.phase in ("X", "b"):
            record["dur"] = self.dur
        if self.args:
            record["args"] = self.args
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent({self.phase!r}, {self.cat!r}, {self.name!r}, "
            f"track={self.track!r}, ts={self.ts}, dur={self.dur})"
        )


class Tracer:
    """The tracer protocol; this base class is the do-nothing implementation.

    Instrumentation sites hold a ``Tracer`` and guard event construction
    with ``if tracer.enabled:`` -- the class attribute makes the check a
    single load, and the no-op methods make unguarded calls safe too.
    """

    enabled: bool = False

    def span(self, cat: str, name: str, track: str, start: int, end: int,
             args: Optional[Dict[str, Any]] = None) -> None:
        """Record a complete duration event over ``[start, end]``."""

    def async_span(self, cat: str, name: str, track: str, start: int,
                   end: int, args: Optional[Dict[str, Any]] = None) -> None:
        """Record a duration event that may overlap others on its track."""

    def instant(self, cat: str, name: str, track: str, ts: int,
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a point event."""

    def counter(self, cat: str, name: str, track: str, ts: int,
                value: float) -> None:
        """Record a sampled counter value."""

    @contextmanager
    def scope(self, prefix: str) -> Iterator["Tracer"]:
        """Prefix every track name recorded inside the ``with`` block."""
        yield self


class NullTracer(Tracer):
    """Explicitly-named alias of the do-nothing tracer."""


#: The shared do-nothing tracer; components default to it so tracing is
#: opt-in per run and costs one ``enabled`` check when off.
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Collects events in memory for export (Chrome trace, JSONL, reports).

    ``capacity`` bounds the buffer: when set, the tracer keeps only the
    most recent ``capacity`` events (a ring buffer) and counts everything
    displaced in :attr:`dropped_events`.  Long chaos and soak runs can
    leave tracing on without the event list growing past memory; the drop
    count is surfaced by :meth:`metrics_snapshot` so a truncated trace is
    never mistaken for a complete one.
    """

    enabled = True

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        if capacity is not None:
            self.events: MutableSequence[TraceEvent] = deque(maxlen=capacity)
        else:
            self.events = []
        #: Events displaced from a bounded buffer (0 when unbounded).
        self.dropped_events = 0
        self._prefix = ""

    def __len__(self) -> int:
        return len(self.events)

    def _track(self, track: str) -> str:
        return self._prefix + track if self._prefix else track

    def _record(self, event: TraceEvent) -> None:
        if self.capacity is not None and len(self.events) == self.capacity:
            self.dropped_events += 1
        self.events.append(event)

    def span(self, cat, name, track, start, end, args=None) -> None:
        self._record(
            TraceEvent("X", cat, name, self._track(track), start,
                       max(0, end - start), args)
        )

    def async_span(self, cat, name, track, start, end, args=None) -> None:
        self._record(
            TraceEvent("b", cat, name, self._track(track), start,
                       max(0, end - start), args)
        )

    def instant(self, cat, name, track, ts, args=None) -> None:
        self._record(
            TraceEvent("i", cat, name, self._track(track), ts, 0, args)
        )

    def counter(self, cat, name, track, ts, value) -> None:
        self._record(
            TraceEvent("C", cat, name, self._track(track), ts, 0,
                       {"value": value})
        )

    def metrics_snapshot(self, registry=None):
        """Fold buffer occupancy and drop counts into a metrics registry."""
        from repro.obs.metrics import MetricsRegistry

        registry = registry if registry is not None else MetricsRegistry()
        registry.counter("tracer.events").value = len(self.events)
        registry.counter("tracer.dropped_events").value = self.dropped_events
        if self.capacity is not None:
            registry.counter("tracer.capacity").value = self.capacity
        return registry

    @contextmanager
    def scope(self, prefix: str) -> Iterator["RecordingTracer"]:
        """Prefix track names with ``prefix + "/"`` inside the block."""
        saved = self._prefix
        self._prefix = f"{saved}{prefix}/"
        try:
            yield self
        finally:
            self._prefix = saved

    def tracks(self) -> List[str]:
        """Distinct track names in first-recorded order."""
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.track, None)
        return list(seen)
