"""The supervised worker fleet: the engine's only way to run tasks in
other processes.

A fleet is a set of forked worker processes, each joined to the parent
by one duplex :func:`multiprocessing.Pipe`, request/response framed as
small tuples (see :func:`_worker_main`).  Workers execute the engine's
**own** ``_execute_task`` on the engine's own task tuples, so the
values that come back are byte-for-byte the values an in-process run
produces.  Two owners use it:

* a batch engine session with ``jobs > 1`` forks a fleet at its first
  non-empty map, *after* publishing its campaign, so workers inherit
  the (unpicklable) campaign by address-space copy; the session stops
  the fleet when it ends;
* the campaign daemon keeps one fleet for its whole life.  Its workers
  outlive any single campaign, so their campaign must cross the pipe:
  the daemon ships a name-based campaign spec with
  :meth:`Fleet.set_context`, and each worker builds the campaign
  locally with the ``resolve_context`` callable the daemon gave the
  fleet.

Death is observable without polling: every worker's
``Process.sentinel`` joins the ``connection.wait`` the dispatch loop
(:class:`repro.verify.supervisor.FleetSession`) blocks on, so a
SIGKILLed worker wakes it immediately.

Workers fire engine :class:`~repro.verify.engine.Failpoint` tokens
(they are forked children, so ``multiprocessing.parent_process`` is
set), which is how the chaos tests kill workers mid-campaign
deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from typing import Callable, Dict, List, Optional, Set

#: Heartbeat role for the daemon's fleet workers (``fleet-<pid>`` worker
#: ids in the status snapshot's worker table).  A batch session's
#: workers keep the default role, ``worker``.
FLEET_ROLE = "fleet"


def fork_available() -> bool:
    """Whether this platform can fork a fleet (POSIX ``fork``)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _worker_main(
    conn,
    inherited_fds: List[int],
    resolve_context: Optional[Callable[[dict], object]],
) -> None:
    """Fleet worker loop: resolve campaign specs, execute engine tasks.

    Protocol (one reply per request, in order):

    * ``("ctx", spec_dict)``    -> ``("ctx-ok",)`` | ``("ctx-err", msg)``
      (the daemon's fleet only; ``resolve_context`` builds the campaign
      the worker's tasks belong to)
    * ``("task", tid, task, watched)`` -> ``("ok", tid, value)`` |
      ``("err", tid, msg)``; when ``watched`` (a campaign monitor is
      watching), the task's ``("beat", record)`` messages come first
    * ``("exit",)``             -> no reply; the worker returns.

    A ``crash``-mode failpoint never replies (``os._exit`` inside the
    task); the parent sees the sentinel fire and the pipe go dead.

    ``inherited_fds`` are the parent-side pipe ends this fork inherited
    (every sibling's, plus its own).  They must be closed here: a worker
    holding a copy of a sibling's parent-side end keeps that sibling's
    ``recv`` from ever seeing EOF, so a SIGKILLed parent would leave the
    whole fleet orphaned forever instead of self-terminating.
    """
    for fd in inherited_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent owns Ctrl-C
    from repro.verify import engine as engine_mod

    # This worker's telemetry, made at its first watched task (the
    # parent loaded the monitor's module before forking the fleet).
    heartbeat = None

    def reply(message) -> bool:
        """Send a reply; False means the parent is gone (orphan exit)."""
        try:
            conn.send(message)
            return True
        except (OSError, ValueError):
            return False

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "exit":
            return
        if kind == "ctx":
            try:
                engine_mod._CAMPAIGN = resolve_context(message[1])
            except Exception as exc:
                sent = reply(("ctx-err", f"{type(exc).__name__}: {exc}"))
            else:
                sent = reply(("ctx-ok",))
        elif kind == "task":
            _kind, task_id, task, watched = message
            if watched and heartbeat is None:
                from repro.obs.progress import Heartbeat

                heartbeat = Heartbeat(
                    lambda record: conn.send(("beat", record)),
                    # Only the daemon's fleet resolves shipped contexts.
                    role="worker" if resolve_context is None else FLEET_ROLE,
                )
            engine_mod._HEARTBEAT = heartbeat if watched else None
            try:
                # The lease generation counts from 1, the attempt from 0.
                value = engine_mod._execute_task(task, task_id[1] - 1)
            except Exception as exc:
                sent = reply(
                    ("err", task_id, f"{type(exc).__name__}: {exc}")
                )
            else:
                sent = reply(("ok", task_id, value))
        else:
            sent = reply(("err", None, f"unknown request {kind!r}"))
        if not sent:
            return


class WorkerHandle:
    """One fleet worker: its process, its pipe, its current assignment."""

    __slots__ = ("process", "conn", "assignment")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: ``(task_index, lease_gen, submitted_monotonic)`` while a task
        #: is in flight on this worker, else ``None`` (supervisor-owned).
        self.assignment = None

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def sentinel(self) -> int:
        return self.process.sentinel

    def alive(self) -> bool:
        return self.process.is_alive()


class Fleet:
    """Spawns, contextualizes, replaces, and retires fleet workers.

    The fleet is process supervision only -- lease bookkeeping and
    retry policy live in :class:`repro.verify.supervisor.FleetSession`.
    ``counters`` receives supervision events (``workers_spawned``,
    ``workers_replaced``, ``workers_killed``); the daemon passes the
    dict it surfaces as ``engine.service.*`` metrics and the status
    snapshot's ``health.service`` block, and the lease loop an engine
    runs on the daemon's fleet counts its events there too.
    ``resolve_context`` and ``stop_event`` are the daemon's: its
    long-lived workers resolve shipped campaign specs (and beat as
    ``fleet-<pid>``), and its drain sets ``stop_event``, which stops the
    lease loop running on the fleet at its next turn.
    """

    def __init__(
        self,
        size: int,
        counters: Optional[Dict[str, int]] = None,
        resolve_context: Optional[Callable[[dict], object]] = None,
        stop_event: Optional[threading.Event] = None,
    ) -> None:
        self.size = max(1, int(size))
        self.resolve_context = resolve_context
        self.stop_event = stop_event
        self.counters: Dict[str, int] = (
            counters if counters is not None else {}
        )
        self.handles: List[WorkerHandle] = []
        self._ctx_data: Optional[dict] = None
        self._ctx: Optional[multiprocessing.context.BaseContext] = None

    def _bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def start(self) -> None:
        """Spawn the initial fleet (call before heavy daemon threading)."""
        if not fork_available():
            return
        self._ctx = multiprocessing.get_context("fork")
        for _ in range(self.size):
            self._spawn()

    def _spawn(self) -> Optional[WorkerHandle]:
        if self._ctx is None:
            return None
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # The fork inherits every parent-side pipe end currently open --
        # the siblings' and its own; the child closes them first thing,
        # so a dead parent EOFs the whole fleet (see _worker_main).
        inherited = [parent_conn.fileno()]
        for sibling in self.handles:
            try:
                inherited.append(sibling.conn.fileno())
            except OSError:
                pass
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, inherited, self.resolve_context),
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
        handle = WorkerHandle(process, parent_conn)
        self.handles.append(handle)
        self._bump("workers_spawned")
        if self._ctx_data is not None and not self._send_ctx(handle):
            return None
        return handle

    def _send_ctx(self, handle: WorkerHandle, timeout: float = 30.0) -> bool:
        try:
            handle.conn.send(("ctx", self._ctx_data))
            if not handle.conn.poll(timeout):
                raise OSError("context ack timeout")
            reply = handle.conn.recv()
            if reply[0] != "ctx-ok":
                raise OSError(reply[1] if len(reply) > 1 else "ctx rejected")
        except (OSError, EOFError, ValueError):
            self._retire(handle)
            return False
        return True

    def set_context(self, ctx_data: Optional[dict]) -> int:
        """Ship a campaign spec to every worker; returns how many acked.

        A worker that cannot take the context (dead pipe, resolution
        error) is retired -- :meth:`ensure` respawns it with the stored
        context, so a transiently broken fleet self-heals.
        """
        self._ctx_data = ctx_data
        if ctx_data is None:
            return len(self.handles)
        acked = 0
        for handle in list(self.handles):
            if self._send_ctx(handle):
                acked += 1
        return acked

    def _retire(self, handle: WorkerHandle) -> None:
        if handle in self.handles:
            self.handles.remove(handle)
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=5.0)

    def kill(self, pid: int) -> bool:
        """SIGKILL one worker by pid and wait for it to die (wedged-lease
        reclamation).

        The handle stays registered until the supervisor reaps the death
        -- killing must not silently drop an in-flight assignment.  The
        wait keeps a dying worker out of :meth:`idle_handles`, where it
        could be handed a lease it would never answer.
        """
        for handle in self.handles:
            if handle.pid == pid:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    return False
                handle.process.join(timeout=5.0)
                self._bump("workers_killed")
                return True
        return False

    def reap_dead(self) -> List[WorkerHandle]:
        """Remove dead workers from the roster; returns them (their
        assignments are the supervisor's to disposition)."""
        dead = [handle for handle in self.handles if not handle.alive()]
        for handle in dead:
            self.handles.remove(handle)
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.process.join(timeout=5.0)
        return dead

    def ensure(self) -> int:
        """Respawn workers until the fleet is back at full strength
        (each new worker receives the stored campaign context).
        Returns how many replacements were spawned."""
        spawned = 0
        while len(self.handles) < self.size and self._ctx is not None:
            if self._spawn() is None:
                break
            spawned += 1
        if spawned:
            self._bump("workers_replaced", spawned)
        return spawned

    def live_pids(self) -> Set[int]:
        return {handle.pid for handle in self.handles if handle.alive()}

    def idle_handles(self) -> List[WorkerHandle]:
        return [
            handle
            for handle in self.handles
            if handle.assignment is None and handle.alive()
        ]

    def stop(self, timeout: float = 10.0, kill: bool = False) -> None:
        """Retire the whole fleet: polite ``exit``, then terminate.

        ``kill`` SIGKILLs every worker at once instead: after a failure a
        worker may be mid-task and would never read the request.
        """
        for handle in self.handles:
            if kill:
                handle.process.kill()
                continue
            try:
                handle.conn.send(("exit",))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for handle in self.handles:
            handle.process.join(
                timeout=max(0.1, deadline - time.monotonic())
            )
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self.handles.clear()
