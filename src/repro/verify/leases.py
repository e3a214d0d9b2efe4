"""Lease-based task bookkeeping: the retry core of the engine's lease loop.

The engine hands pure tasks to unreliable executors -- the workers of
a supervised fleet -- notices when one times out, crashes, or lies, and
retries with a bounded budget before degrading to in-process serial
execution.  This module is that state machine; the loop that moves the
leases is :class:`repro.verify.supervisor.FleetSession`:

* :class:`BackoffPolicy` -- exponential backoff with deterministic
  jitter (hashed from ``(task, attempt)``, so two daemons replaying the
  same campaign sleep the same amounts -- no ``random`` state involved);
* :class:`TaskBoard` -- per-task lease generations, idempotent failure
  handling (a ``(task, generation)`` pair is charged **at most once**),
  first-wins completion (which the campaign monitor's exactly-once task
  totals rely on), and retry budgets.

Nothing here touches task *values*: completion is first-wins per task
(late duplicates are discarded), which preserves the engine's
bit-for-bit determinism contract -- tasks are pure, so whichever attempt
lands first carries the same value any other attempt would.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

#: Terminal dispositions of a :meth:`TaskBoard.fail` call.
RETRY = "retry"
DEGRADE = "degrade"
STALE = "stale"


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic, content-hashed jitter.

    ``delay(task, attempt)`` grows as ``base * 2**(attempt-1)``, capped
    at ``ceiling``, then stretched by up to ``jitter`` (a fraction) using
    a hash of ``(task, attempt)`` -- deterministic, so replays and tests
    see identical schedules, but de-synchronized across tasks so a fleet
    of failed leases does not thunder back in lockstep.
    """

    base: float = 0.05
    ceiling: float = 2.0
    jitter: float = 0.25

    def delay(self, task: int, attempt: int) -> float:
        if self.base <= 0 or attempt <= 0:
            return 0.0
        raw = min(self.ceiling, self.base * (2 ** (attempt - 1)))
        if self.jitter <= 0:
            return raw
        digest = hashlib.sha256(f"{task}:{attempt}".encode()).digest()
        frac = digest[0] / 255.0
        return raw * (1.0 + self.jitter * frac)


@dataclass
class Lease:
    """One granted attempt of one task."""

    task: int
    gen: int


class TaskBoard:
    """Lease generations, retry budgets, and failure dedupe for N tasks.

    The board tracks *dispositions*, not values: callers dispatch leases
    it grants, report completions/failures, and read ``counters`` for
    the ``engine.service.*`` / ``engine.resilience.*`` metric surfaces.
    All methods are O(log n) or better; the board is single-threaded by
    design (each lease loop owns its board exclusively).
    """

    def __init__(
        self,
        n_tasks: int,
        max_retries: int = 2,
        backoff: Optional[BackoffPolicy] = None,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        self.n_tasks = n_tasks
        self.max_retries = max(0, int(max_retries))
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.counters: Dict[str, int] = (
            counters if counters is not None else {}
        )
        #: (not_before, task) heap of retriable work.
        self._ready: List[Tuple[float, int]] = [
            (0.0, index) for index in range(n_tasks)
        ]
        heapq.heapify(self._ready)
        #: task -> current lease generation (0 = never granted).
        self._gens: Dict[int, int] = {}
        #: task -> attempts charged so far (failures, not grants).
        self.attempts: Dict[int, int] = {}
        #: (task, gen) pairs already failed -- the exactly-once dedupe.
        self._failed: Set[Tuple[int, int]] = set()
        self._done: Set[int] = set()

    # -- introspection -------------------------------------------------

    def bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    @property
    def finished(self) -> bool:
        return len(self._done) >= self.n_tasks

    def is_done(self, task: int) -> bool:
        return task in self._done

    def next_not_before(self) -> Optional[float]:
        """Earliest backoff deadline among queued tasks (None = empty)."""
        while self._ready and self._ready[0][1] in self._done:
            heapq.heappop(self._ready)
        return self._ready[0][0] if self._ready else None

    # -- lease lifecycle -----------------------------------------------

    def grant(self, now: float) -> Optional[Lease]:
        """Lease the next ready task, or ``None`` if nothing is due."""
        while self._ready:
            not_before, task = self._ready[0]
            if task in self._done:
                heapq.heappop(self._ready)
                continue
            if not_before > now:
                return None
            heapq.heappop(self._ready)
            gen = self._gens.get(task, 0) + 1
            self._gens[task] = gen
            return Lease(task=task, gen=gen)
        return None

    def complete(self, task: int, gen: int) -> bool:
        """First completion wins; duplicates/stale attempts return False."""
        if task in self._done:
            self.bump("duplicate_completions")
            return False
        self._done.add(task)
        return True

    def fail(self, task: int, gen: int, kind: str, now: float) -> str:
        """Disposition one failed lease: RETRY, DEGRADE, or STALE.

        ``kind`` feeds the counters (``task_timeouts``, ``task_errors``
        ...).  A ``(task, gen)`` pair is charged at
        most once -- a second failure report for the same lease is
        STALE: no budget burned, no resubmission.
        """
        if task in self._done:
            return STALE
        key = (task, gen)
        if key in self._failed or gen <= 0 or gen != self._gens.get(task, 0):
            # Already handled, or a failure report for a superseded
            # lease: the *current* lease is still live somewhere else.
            self.bump("stale_failures")
            return STALE
        self._failed.add(key)
        if kind:
            self.bump(kind)
        attempts = self.attempts.get(task, 0) + 1
        self.attempts[task] = attempts
        if attempts > self.max_retries:
            self.bump("degraded_to_serial")
            return DEGRADE
        self.bump("tasks_retried")
        delay = self.backoff.delay(task, attempts)
        if delay > 0:
            self.bump("backoff_scheduled")
        heapq.heappush(self._ready, (now + delay, task))
        return RETRY

    def requeue(self, task: int, now: float) -> None:
        """Void a lease the caller could not dispatch at all (no idle
        worker, a dead pipe): the task goes back without charging
        budget, and the next grant reuses its generation, so a lease's
        generation stays the task's attempt number."""
        if task not in self._done:
            self._gens[task] -= 1
            heapq.heappush(self._ready, (now, task))
