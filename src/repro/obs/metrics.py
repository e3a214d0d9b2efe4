"""The metrics registry: named counters / histograms / timers.

The repo grew several ad-hoc stats surfaces -- ``ProcessorStats`` on the
simulator side, ``ExplorerStats`` on the idealized-architecture side,
cache/directory dicts in ``MachineRun`` -- each with its own merge and
as-dict conventions.  :class:`MetricsRegistry` is the common surface: a
flat namespace of metrics aggregated into one **stable** dict (sorted
names, deterministic field order) that the CLI serializes with
``--metrics-json``.

The existing dataclasses stay exactly what they were -- cheap, typed
accumulators on hot paths -- and become *views*: the ``*_metrics``
helpers below fold them into a registry under stable names
(``sim.p0.stall.gate:sync-gp``, ``explorer.states``, ...), so every
command reports through one schema without the hot paths paying for a
dict-keyed lookup per increment.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids import cycles
    from repro.core.engine_state import ExplorerStats
    from repro.sim.system import MachineRun


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Summary statistics over observed values (count/total/min/max)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }


class Timer(Histogram):
    """A histogram of elapsed seconds with a context-manager sampler."""

    __slots__ = ()

    @contextmanager
    def time(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)


class MetricsRegistry:
    """Get-or-create registry of named metrics with a stable dict form."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram()
        return metric

    def timer(self, name: str) -> Timer:
        metric = self._timers.get(name)
        if metric is None:
            metric = self._timers[name] = Timer()
        return metric

    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate another registry's metrics into this one."""
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, histogram in other._histograms.items():
            mine = self.histogram(name)
            mine.count += histogram.count
            mine.total += histogram.total
            for bound in (histogram.min, histogram.max):
                if bound is None:
                    continue
                if mine.min is None or bound < mine.min:
                    mine.min = bound
                if mine.max is None or bound > mine.max:
                    mine.max = bound
        for name, timer in other._timers.items():
            mine_t = self.timer(name)
            mine_t.count += timer.count
            mine_t.total += timer.total
            for bound in (timer.min, timer.max):
                if bound is None:
                    continue
                if mine_t.min is None or bound < mine_t.min:
                    mine_t.min = bound
                if mine_t.max is None or bound > mine_t.max:
                    mine_t.max = bound

    def as_dict(self) -> Dict[str, object]:
        """Stable (sorted-name) nested dict for JSON serialization."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
            "timers": {
                name: self._timers[name].as_dict()
                for name in sorted(self._timers)
            },
        }


# ----------------------------------------------------------------------
# Views over the existing stats dataclasses
# ----------------------------------------------------------------------


def run_metrics(
    run: "MachineRun",
    registry: Optional[MetricsRegistry] = None,
    prefix: str = "sim",
) -> MetricsRegistry:
    """Fold one :class:`~repro.sim.system.MachineRun` into a registry.

    ``ProcessorStats`` (including the per-cause stall buckets), cache and
    directory stats, cycles and traffic all land under ``prefix``.
    """
    registry = registry if registry is not None else MetricsRegistry()
    registry.counter(f"{prefix}.runs").inc()
    registry.histogram(f"{prefix}.cycles").observe(run.cycles)
    registry.counter(f"{prefix}.messages").inc(run.messages_sent)
    for proc, stats in enumerate(run.proc_stats):
        base = f"{prefix}.p{proc}"
        registry.counter(f"{base}.accesses").inc(stats.accesses_generated)
        registry.counter(f"{base}.local_instructions").inc(
            stats.local_instructions
        )
        registry.counter(f"{base}.gate_stall_cycles").inc(
            stats.gate_stall_cycles
        )
        registry.counter(f"{base}.block_stall_cycles").inc(
            stats.block_stall_cycles
        )
        for cause, cycles in sorted(stats.stall_by_cause.items()):
            registry.counter(f"{base}.stall.{cause}").inc(cycles)
    for proc, cache in enumerate(run.cache_stats):
        base = f"{prefix}.p{proc}.cache"
        for key, value in sorted(cache.items()):
            registry.counter(f"{base}.{key}").inc(value)
    for key, value in sorted(run.directory_stats.items()):
        registry.counter(f"{prefix}.directory.{key}").inc(value)
    return registry


def explorer_metrics(
    stats: "ExplorerStats",
    registry: Optional[MetricsRegistry] = None,
    prefix: str = "explorer",
) -> MetricsRegistry:
    """Fold an :class:`~repro.core.engine_state.ExplorerStats` into a registry."""
    registry = registry if registry is not None else MetricsRegistry()
    for name, value in stats.as_dict().items():
        registry.counter(f"{prefix}.{name}").inc(value)
    return registry


def store_metrics(
    stats,
    registry: Optional[MetricsRegistry] = None,
    prefix: str = "store",
) -> MetricsRegistry:
    """Fold a :class:`~repro.verify.store.StoreStats` into a registry.

    Surfaces the persistent verdict store's load-time counters (records
    loaded / stale-version skips / torn tails / quarantined segments),
    flush counters, and warm-reuse counters under ``prefix``.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for name, value in stats.as_dict().items():
        registry.counter(f"{prefix}.{name}").inc(value)
    return registry


def stream_metrics(
    fold,
    registry: Optional[MetricsRegistry] = None,
    prefix: str = "stream",
) -> MetricsRegistry:
    """Fold a live :class:`~repro.obs.progress.StreamFold` into a registry.

    Surfaces the telemetry channel's health (worker processes heard
    from, beat and stall records folded, records rejected) and the
    exactly-once task totals -- including ``duplicate_tasks_skipped``,
    the count of task replies the lease loop turned down because the
    task had already completed.
    """
    registry = registry if registry is not None else MetricsRegistry()
    registry.counter(f"{prefix}.workers").value = len(fold.workers)
    registry.counter(f"{prefix}.beats").inc(fold.beats)
    registry.counter(f"{prefix}.tasks").inc(fold.tasks)
    registry.counter(f"{prefix}.duplicate_tasks_skipped").inc(
        fold.duplicates_skipped
    )
    registry.counter(f"{prefix}.stalls").inc(len(fold.stalls))
    for name, value in sorted(fold.totals.items()):
        registry.counter(f"{prefix}.totals.{name}").inc(value)
    registry.counter(f"{prefix}.spools").value = len(fold.workers)
    registry.counter(f"{prefix}.records").inc(fold.records)
    registry.counter(f"{prefix}.dropped_lines").inc(fold.dropped)
    return registry
