"""Fleet supervision: the engine's one lease loop over worker processes.

Every task the engine runs outside its own process goes through
:class:`FleetSession`, over a :class:`~repro.verify.fleet.Fleet`: the
fleet a batch session forks for ``--jobs N``, or the campaign daemon's
persistent one (lent as ``VerificationEngine(fleet=)``).  The session
takes its task timeout, retry budget and backoff from the engine, and
drives the :class:`~repro.verify.leases.TaskBoard` state machine:

* every dispatch is a **lease** (task, generation) on one known
  worker; completions are first-wins and failure charges are
  deduplicated per lease;
* the loop sleeps in ``connection.wait`` on every busy worker's pipe
  and process sentinel, so any reply or any worker death wakes it at
  once, and each death is charged to the lease its worker held;
* while a campaign monitor watches, each task message says so, and the
  worker's beat and stall records come back on the same pipe ahead of
  the task's reply, as ``("beat", record)`` messages the loop folds
  into the monitor;
* a lease is **reclaimed** when its task times out: the wedged worker
  is killed and replaced;
* failures feed a per-cell :class:`CircuitBreaker`
  (healthy -> suspect -> quarantined -> recovered), one per engine call
  since its keys are the call's cell indices: a quarantined cell's
  tasks run serially in the parent process, with every K-th task
  probing the fleet so a recovered cell is promoted back;
* a task that exhausts its retry budget degrades to serial execution
  in the parent -- the call always terminates with the exact serial
  output, because the parent runs the engine's own ``_execute_task``
  against the campaign the engine published.

All supervision events land in one counters dict: the engine's
``resilience`` dict in batch, or the daemon's on its fleet, surfaced as
``engine.service.*`` metrics and the status snapshot's
``health.service`` block.  The daemon's drain also travels on its
fleet: a set ``Fleet.stop_event`` stops the loop at its next turn.
"""

from __future__ import annotations

import time
from multiprocessing import connection as mp_connection
from typing import Dict, List, Optional, Sequence, Set

from repro.verify.leases import DEGRADE, BackoffPolicy, TaskBoard


class DrainRequested(RuntimeError):
    """Raised out of the dispatch loop when the daemon is draining; every
    completed unit is already in the verdict store, so the campaign
    resumes on restart from exactly where the drain cut it."""


# -- circuit breaker ----------------------------------------------------

HEALTHY = "healthy"
SUSPECT = "suspect"
QUARANTINED = "quarantined"


class CircuitBreaker:
    """Per-key failure circuit: healthy -> suspect -> quarantined.

    Keys are the published campaign's: a sweep's cells (``cell:<i>``)
    and programs (``drf0:<i>``), or a seed campaign's kind.  The first
    failure makes a key *suspect* (visible in metrics, no behavior
    change); ``threshold`` deduplicated failures quarantine it, after
    which its tasks run serially in the parent process -- except every
    ``probe_interval``-th task, which is sent to the fleet as a probe.
    A probe success closes the circuit (*recovered*).
    """

    def __init__(
        self,
        threshold: int = 3,
        probe_interval: int = 4,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        self.threshold = max(1, int(threshold))
        self.probe_interval = max(1, int(probe_interval))
        self.counters: Dict[str, int] = (
            counters if counters is not None else {}
        )
        self._failures: Dict[str, int] = {}
        self._state: Dict[str, str] = {}
        self._quarantine_calls: Dict[str, int] = {}

    def _bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def state(self, key: str) -> str:
        return self._state.get(key, HEALTHY)

    def record_failure(self, key: str) -> None:
        failures = self._failures.get(key, 0) + 1
        self._failures[key] = failures
        state = self.state(key)
        if state == HEALTHY:
            self._state[key] = SUSPECT
            self._bump("breaker_suspect")
        if failures >= self.threshold and state != QUARANTINED:
            self._state[key] = QUARANTINED
            self._quarantine_calls[key] = 0
            self._bump("breaker_opened")

    def record_success(self, key: str) -> None:
        state = self.state(key)
        if state == QUARANTINED:
            # Only a fleet probe can reach here; the circuit closes.
            self._state[key] = HEALTHY
            self._failures[key] = 0
            self._bump("breaker_recovered")
        elif state == SUSPECT:
            self._state[key] = HEALTHY
            self._failures[key] = 0

    def route(self, key: str) -> str:
        """``"fleet"`` or ``"serial"`` for the next task under ``key``."""
        if self.state(key) != QUARANTINED:
            return "fleet"
        calls = self._quarantine_calls.get(key, 0)
        self._quarantine_calls[key] = calls + 1
        if calls % self.probe_interval == self.probe_interval - 1:
            self._bump("breaker_probes")
            return "fleet"
        self._bump("breaker_serial_tasks")
        return "serial"


# -- the lease loop -----------------------------------------------------


class FleetSession:
    """One engine call's lease loop over the worker fleet.

    The engine's ``_Session`` delegates every pooled :meth:`map` here,
    so the fold/store path above it is the one the in-process
    path runs.  Lease events and the transitions of the call's circuit
    breaker are counted in ``counters``.
    """

    def __init__(self, fleet, engine, counters: Dict[str, int]) -> None:
        self.fleet = fleet
        self.engine = engine
        self.counters = counters
        self.breaker = CircuitBreaker(counters=counters)
        self.task_seconds: List[float] = []
        #: Pids this session killed on purpose (reclaimed leases, chaos
        #: cleanup): their deaths are already charged and must not count
        #: as fresh ``worker_crashes``.
        self._expected_deaths: Set[int] = set()

    # -- helpers -------------------------------------------------------

    def _bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- the dispatch loop ---------------------------------------------

    def map(self, tasks: Sequence[tuple], on_result=None) -> list:
        if not tasks:
            return []
        from repro.verify import engine as engine_mod

        fleet = self.fleet
        breaker = self.breaker
        engine = self.engine
        timeout = engine.task_timeout

        board = TaskBoard(
            len(tasks),
            max_retries=engine.max_task_retries,
            backoff=BackoffPolicy(base=engine.retry_backoff),
            counters=self.counters,
        )
        results: List[object] = [None] * len(tasks)
        self.task_seconds = [0.0] * len(tasks)
        monitor = engine.monitor
        campaign = engine_mod._CAMPAIGN

        def breaker_key(index: int) -> str:
            return campaign.breaker_key(tasks[index])

        def finish(index: int, value: object, seconds: float = 0.0) -> None:
            results[index] = value
            self.task_seconds[index] = seconds
            if on_result is not None:
                on_result(index, tasks[index], value)
            engine._task_landed(tasks[index], value, seconds)

        def run_serial(index: int, attempt: int) -> None:
            serial_start = time.perf_counter()
            value = engine_mod._execute_task(tasks[index], attempt)
            board.complete(index, attempt)
            finish(index, value, time.perf_counter() - serial_start)

        def dispose(index: int, gen: int, kind: str) -> None:
            breaker.record_failure(breaker_key(index))
            if board.fail(index, gen, kind, time.monotonic()) == DEGRADE:
                run_serial(index, board.attempts.get(index, 0))

        while not board.finished:
            if fleet.stop_event is not None and fleet.stop_event.is_set():
                raise DrainRequested("daemon draining")
            now = time.monotonic()

            # 1. Reap deaths (exact attribution: we know each corpse's
            #    lease) and restore fleet strength.
            dead = fleet.reap_dead()
            for handle in dead:
                expected = handle.pid in self._expected_deaths
                self._expected_deaths.discard(handle.pid)
                if not expected:
                    self._bump("worker_crashes")
                if handle.assignment is not None:
                    index, gen, _submitted = handle.assignment
                    handle.assignment = None
                    if not expected:
                        dispose(index, gen, "")
            if dead:
                fleet.ensure()

            # 2. Grant leases to idle workers (or serially, if the
            #    breaker has quarantined the task's cell).
            idle = fleet.idle_handles()
            while True:
                lease = board.grant(now)
                if lease is None:
                    break
                if breaker.route(breaker_key(lease.task)) == "serial":
                    run_serial(lease.task, lease.gen - 1)
                    continue
                if not idle:
                    # Nothing to run it on right now; no budget charged.
                    board.requeue(lease.task, now)
                    break
                handle = idle.pop()
                try:
                    handle.conn.send(
                        ("task", (lease.task, lease.gen),
                         tasks[lease.task], monitor is not None)
                    )
                except (OSError, ValueError):
                    fleet._retire(handle)
                    board.requeue(lease.task, now)
                    continue
                handle.assignment = (lease.task, lease.gen, now)

            busy = [h for h in fleet.handles if h.assignment is not None]
            if not busy:
                if board.finished:
                    break
                if not fleet.handles:
                    # The fleet is gone and cannot be rebuilt: finish
                    # everything in-process (graceful degradation floor).
                    for index in range(len(tasks)):
                        if not board.is_done(index):
                            self._bump("degraded_to_serial")
                            run_serial(index, board.attempts.get(index, 0))
                    continue
                not_before = board.next_not_before()
                if not_before is None:
                    for index in range(len(tasks)):
                        if not board.is_done(index):
                            self._bump("degraded_to_serial")
                            run_serial(index, board.attempts.get(index, 0))
                    continue
                time.sleep(min(max(not_before - now, 0), 0.05))
                continue

            # 3. Sleep until a reply lands or a worker dies (sentinels
            #    wake this immediately on SIGKILL -- no polling).
            mp_connection.wait(
                [h.conn for h in busy] + [h.sentinel for h in busy],
                timeout=0.05,
            )
            if monitor is not None:
                monitor.poll()

            # 4. Drain replies.
            for handle in busy:
                if handle.assignment is None or not handle.alive():
                    continue
                try:
                    while handle.conn.poll():
                        reply = handle.conn.recv()
                        self._absorb_reply(
                            handle, reply, board, breaker, breaker_key,
                            finish, dispose,
                        )
                        if handle.assignment is None:
                            break
                except (EOFError, OSError):
                    continue  # death; reaped at the top of the next turn

            # 5. Reclaim leases past the task timeout.  The holder is
            #    wedged -- kill and replace it.
            scan_now = time.monotonic()
            for handle in busy:
                if handle.assignment is None or not handle.alive():
                    continue
                index, gen, submitted = handle.assignment
                if timeout is None or scan_now - submitted <= timeout:
                    continue
                handle.assignment = None
                self._bump("leases_reclaimed")
                self._expected_deaths.add(handle.pid)
                fleet.kill(handle.pid)
                dispose(index, gen, "task_timeouts")
        return results

    def _absorb_reply(
        self, handle, reply, board, breaker, breaker_key, finish, dispose
    ) -> None:
        kind = reply[0]
        monitor = self.engine.monitor
        if kind == "beat":
            # Telemetry sent while the task runs, not its reply.
            if monitor is not None:
                monitor.fold.absorb(reply[1])
            return
        if kind not in ("ok", "err") or handle.assignment is None:
            return  # stray ack (ping) or reply for a reclaimed lease
        task_id = reply[1]
        index, gen, submitted = handle.assignment
        if task_id != (index, gen):
            return  # stale reply from a superseded lease; ignore
        handle.assignment = None
        if kind == "ok":
            breaker.record_success(breaker_key(index))
            if board.complete(index, gen):
                finish(index, reply[2], time.monotonic() - submitted)
            elif monitor is not None:
                monitor.fold.duplicates_skipped += 1
        else:
            dispose(index, gen, "task_errors")

    def close(self) -> None:
        """End-of-map hygiene: no worker may carry a stale assignment or
        a buffered stale reply into the next engine call."""
        fleet = self.fleet
        for handle in list(fleet.handles):
            if handle.assignment is not None:
                # Still chewing on an abandoned lease (drain/interrupt):
                # the worker cannot be reused mid-task.
                self._expected_deaths.add(handle.pid)
                fleet.kill(handle.pid)
                handle.assignment = None
                continue
            try:
                while handle.conn.poll():
                    handle.conn.recv()
            except (EOFError, OSError):
                pass
        fleet.reap_dead()
        fleet.ensure()
