"""Tests for the verification engine's crash tolerance.

The hardened engine makes one promise: whatever goes wrong underneath --
a worker crashing mid-task, a worker hanging, a task raising, a cache
entry corrupted -- the sweep's output is bit-for-bit what the
undisturbed serial engine produces.  Resuming a killed sweep from its
verdict store is tested with the store (``test_store.TestResume``).
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.hw import POLICY_FACTORIES
from repro.litmus.catalog import by_name
from repro.sim.system import SystemConfig
from repro.verify import (
    CacheIntegrityError,
    Failpoint,
    VerificationEngine,
    program_fingerprint,
)
from repro.verify import engine as engine_module
from repro.verify.engine import SweepCampaign

from helpers import StandInCampaign

PROGRAM_NAMES = ("MP+sync", "SB")
POLICY_NAMES = ("sc", "adve-hill")
SEEDS = list(range(5))


def _programs():
    return [by_name(name).program for name in PROGRAM_NAMES]


def _factories():
    return {name: POLICY_FACTORIES[name] for name in POLICY_NAMES}


def _sweep(engine, **kwargs):
    return engine.definition2_sweep(
        _programs(), _factories(), SystemConfig(), seeds=SEEDS, **kwargs
    )


def _rows(evidence):
    return [tuple(sorted(row.items(), key=lambda kv: kv[0])) for row in
            [{k: repr(v) for k, v in r.items()} for r in evidence.rows]]


@pytest.fixture(scope="module")
def reference_rows():
    return _rows(_sweep(VerificationEngine(jobs=1)))


pool_available = pytest.mark.skipif(
    not VerificationEngine(jobs=2).can_fork,
    reason="fork start method unavailable",
)


@pool_available
class TestFailpointRecovery:
    def test_worker_crash_recovers_identically(self, reference_rows, tmp_path):
        engine = VerificationEngine(
            jobs=2,
            failpoints=(Failpoint("run", "crash", str(tmp_path / "t")),),
            task_timeout=30,
        )
        assert _rows(_sweep(engine)) == reference_rows
        assert (tmp_path / "t").exists()  # the failpoint really fired
        assert engine.resilience.get("worker_crashes", 0) >= 1

    def test_task_error_recovers_identically(self, reference_rows, tmp_path):
        engine = VerificationEngine(
            jobs=2,
            failpoints=(Failpoint("judge", "error", str(tmp_path / "t")),),
        )
        assert _rows(_sweep(engine)) == reference_rows
        assert engine.resilience.get("task_errors", 0) >= 1

    def test_hung_worker_times_out_and_recovers(
        self, reference_rows, tmp_path
    ):
        engine = VerificationEngine(
            jobs=2,
            failpoints=(Failpoint("run", "hang", str(tmp_path / "t")),),
            task_timeout=1.0,
        )
        assert _rows(_sweep(engine)) == reference_rows
        assert engine.resilience.get("task_timeouts", 0) >= 1

    def test_repeated_failures_degrade_to_serial(self, reference_rows):
        # max_task_retries=0: the first failure goes straight to the
        # parent-process fallback, which must still be exact.
        engine = VerificationEngine(
            jobs=2,
            failpoints=(Failpoint("run", "hang", "/nonexistent-dir/t"),),
            task_timeout=30,
            max_task_retries=0,
        )
        # Token path unopenable -> failpoint never fires; run is clean but
        # the retry budget of zero must not break the normal path.
        assert _rows(_sweep(engine)) == reference_rows


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _held_oldest_task(task, tag=None):
    """Stand-in for ``_execute_task`` on ``("held", index, token)``: in a
    pool worker, task 0 blocks until ``token`` exists (at most 10 s)."""
    _kind, index, token = task
    if index == 0 and _in_worker():
        deadline = time.monotonic() + 10.0
        while not os.path.exists(token) and time.monotonic() < deadline:
            time.sleep(0.001)
    return index * 3


def _late_first_attempt_task(task, gen=0):
    """Stand-in for ``_execute_task`` on ``("late", index, pause)``: in a
    pool worker, task 0's first attempt sleeps 1.5 s and then returns;
    every other attempt sleeps ``pause``."""
    _kind, index, pause = task
    if _in_worker():
        time.sleep(1.5 if index == 0 and gen == 0 else pause)
    return index * 3


class TestWorkerProtocol:
    def test_unknown_request_gets_an_error_reply(self):
        # The worker loop runs in this process: it answers each queued
        # request in order and returns at ("exit",).
        from repro.verify.fleet import _worker_main

        parent, child = multiprocessing.Pipe()
        parent.send(("ping",))
        parent.send(("exit",))
        handler = signal.getsignal(signal.SIGINT)
        try:
            _worker_main(child, [], None)
        finally:
            signal.signal(signal.SIGINT, handler)
        assert parent.recv() == ("err", None, "unknown request 'ping'")
        assert not parent.poll()
        parent.close()
        child.close()


@pool_available
class TestCompletionWake:
    def test_younger_completions_fold_while_oldest_blocks(
        self, monkeypatch, tmp_path
    ):
        # Task 0 holds one worker until its 50 younger tasks have folded.
        # A loop that sleeps out its wake interval on the oldest handle
        # before each of those folds takes at least 50 x 20 ms.
        token = str(tmp_path / "release")
        tasks = [("held", index, token) for index in range(51)]
        landed = []

        def on_result(index, task, value):
            landed.append(index)
            if len(landed) == 50:
                open(token, "w").close()

        monkeypatch.setattr(engine_module, "_execute_task", _held_oldest_task)
        engine = VerificationEngine(jobs=2)
        with engine._session(StandInCampaign()) as session:
            start = time.monotonic()
            values = session.map(tasks, on_result)
            elapsed = time.monotonic() - start
        assert values == [index * 3 for index in range(51)]
        assert sorted(landed) == list(range(51))
        assert landed[-1] == 0
        assert elapsed < 0.5, f"map took {elapsed:.3f}s"

    def test_timed_out_worker_is_killed_and_replaced(self, monkeypatch):
        # Task 0's first attempt outlives task_timeout: its worker is
        # killed at the timeout, so the late reply never arrives, and a
        # fresh worker takes its place while 40 x 50 ms of younger work
        # keeps the map running.  The resubmitted task folds once.
        tasks = [("late", index, 0.05) for index in range(41)]
        monkeypatch.setattr(
            engine_module, "_execute_task", _late_first_attempt_task
        )
        with VerificationEngine(jobs=1)._session(StandInCampaign()) as serial:
            expected = serial.map(tasks)
        engine = VerificationEngine(jobs=2, task_timeout=0.5)
        landed = []
        with engine._session(StandInCampaign()) as session:
            values = session.map(
                tasks, lambda index, task, value: landed.append(index)
            )
            fleet = session.fleet
            live = fleet.live_pids()
        assert values == expected
        assert sorted(landed) == list(range(41))
        assert engine.resilience["task_timeouts"] >= 1
        assert engine.resilience.get("duplicate_completions", 0) == 0
        assert fleet.counters["workers_killed"] >= 1
        assert fleet.counters["workers_replaced"] >= 1
        assert len(live) == fleet.size == 2  # back at full strength


def _failing_in_worker_task(task, tag=None):
    """Stand-in for ``_execute_task`` on ``("x", index, fail)``: raises
    in a fleet worker when ``fail`` is set; the parent's serial fallback
    returns normally."""
    _kind, index, fail = task
    if fail and _in_worker():
        raise RuntimeError("injected task failure")
    return index


@pool_available
class TestBreakerScope:
    def test_quarantine_ends_with_the_engine_call(self, monkeypatch):
        # Breaker keys are one call's cell indices, so a key that one
        # call quarantined must not send the next call's tasks to the
        # parent, even when both calls borrow one fleet (the daemon's).
        from repro.verify.fleet import Fleet

        monkeypatch.setattr(
            engine_module, "_execute_task", _failing_in_worker_task
        )
        counters = {}
        fleet = Fleet(2, counters=counters)
        fleet.start()
        try:
            serial_tasks = []
            for fail in (True, False):
                engine = VerificationEngine(
                    jobs=2, fleet=fleet, max_task_retries=0, retry_backoff=0
                )
                with engine._session(StandInCampaign()) as session:
                    tasks = [("x", index, fail) for index in range(8)]
                    assert session.map(tasks) == list(range(8))
                serial_tasks.append(counters.get("breaker_serial_tasks", 0))
        finally:
            fleet.stop()
        assert counters["breaker_opened"] == 1
        assert serial_tasks[0] > 0
        assert serial_tasks[1] == serial_tasks[0]


def _attempt_of_task(task, gen=0):
    """Stand-in for ``_execute_task``: returns the dispatch's attempt
    number, the argument its beats carry."""
    time.sleep(0.002)
    return gen


@pool_available
class TestLeaseGenerations:
    def test_clean_pooled_map_dispatches_first_attempts(self, monkeypatch):
        # With every worker busy, the loop finds no one to lease the next
        # task to; that void lease must not count as an attempt, or
        # heartbeats would report retries that never ran.
        monkeypatch.setattr(engine_module, "_execute_task", _attempt_of_task)
        engine = VerificationEngine(jobs=2)
        with engine._session(StandInCampaign()) as session:
            assert session.map([("x", index) for index in range(20)]) == [0] * 20
        assert engine.resilience == {}


@pool_available
class TestParentFloors:
    """The lease loop's parent-side floors run ``_execute_task`` against
    the published campaign, so the values they produce are exact."""

    TASKS = [("run", 0, (seed,)) for seed in range(6)]

    def _expected(self):
        with VerificationEngine(jobs=1)._session(_context()) as serial:
            return serial.map(self.TASKS)

    def test_fleet_that_cannot_respawn_finishes_in_the_parent(
        self, monkeypatch
    ):
        from repro.verify.fleet import Fleet

        expected = self._expected()
        fleet = Fleet(2)
        engine = VerificationEngine(jobs=2, fleet=fleet)
        try:
            with engine._session(_context()) as session:
                fleet.start()
                for pid in fleet.live_pids():
                    fleet.kill(pid)
                monkeypatch.setattr(Fleet, "_spawn", lambda self: None)
                assert session.map(self.TASKS) == expected
        finally:
            fleet.stop()
        assert fleet.counters["degraded_to_serial"] == len(self.TASKS)

    def test_lease_whose_send_fails_is_requeued_free(self):
        from repro.verify.fleet import Fleet

        expected = self._expected()
        fleet = Fleet(2)
        engine = VerificationEngine(jobs=2, fleet=fleet)
        failed = []
        try:
            # Forked inside the session, so the workers inherit its
            # campaign, as a batch session's fleet does.
            with engine._session(_context()) as session:
                fleet.start()
                for handle in fleet.handles:

                    def send_failing_once(message, send=handle.conn.send):
                        if not failed:
                            failed.append(message)
                            raise OSError("injected send failure")
                        send(message)

                    handle.conn.send = send_failing_once
                assert session.map(self.TASKS) == expected
        finally:
            fleet.stop()
        assert [message[0] for message in failed] == ["task"]
        assert fleet.counters.get("tasks_retried", 0) == 0
        assert fleet.counters.get("task_errors", 0) == 0


class TestCacheQuarantine:
    def test_poisoned_entry_recomputed_not_fatal(self, reference_rows):
        engine = VerificationEngine(jobs=1)
        first = _sweep(engine)
        assert _rows(first) == reference_rows
        # Corrupt every cached SC verdict in place (flip the verdict but
        # keep the stale checksum), then sweep again: the hardened path
        # must quarantine and recompute, not raise or serve lies.
        entries = engine.sc_cache._entries
        for key, (verdict, checksum) in list(entries.items()):
            entries[key] = (not verdict, checksum)
        second = _sweep(engine)
        assert _rows(second) == reference_rows
        assert engine.sc_cache.stats.quarantined > 0

    def test_poisoned_drf0_entry_raises_then_recomputed(self, reference_rows):
        engine = VerificationEngine(jobs=1)
        _sweep(engine)
        # Flip every cached DRF0 verdict in place, keeping its checksum.
        entries = engine.drf0_cache._entries
        for key, (verdict, checksum) in list(entries.items()):
            entries[key] = (not verdict, checksum)
        programs = {program_fingerprint(p): p for p in _programs()}
        assert {fingerprint for fingerprint, _ in entries} == set(programs)
        for fingerprint, (_tag, seeds) in list(entries):
            with pytest.raises(CacheIntegrityError):
                engine.drf0_cache.lookup(programs[fingerprint], False, seeds)
        # The sweep quarantines each entry and recomputes its verdict.
        assert _rows(_sweep(engine)) == reference_rows
        assert engine.drf0_cache.stats.quarantined == len(programs)

    def test_quarantine_counter_in_metrics(self):
        engine = VerificationEngine(jobs=1)
        _sweep(engine)
        registry = engine.metrics_snapshot()
        assert registry.counter("engine.sc_cache.quarantined").value == 0


class TestInterruptSafety:
    def test_session_teardown_on_error(self):
        # An exception escaping mid-session must kill the fleet and
        # re-raise; a subsequent engine call must work normally.  The
        # fleet is forked by the first map, so one task runs first.
        engine = VerificationEngine(jobs=2)
        with pytest.raises(RuntimeError, match="boom"):
            with engine._session(_context()) as session:
                assert len(session.map([("run", 0, (0,))])[0]) == 1
                workers = session.fleet.live_pids() if session.fleet else set()
                if engine.can_fork:
                    assert len(workers) == 2
                raise RuntimeError("boom")
        if engine.can_fork:
            alive = {child.pid for child in multiprocessing.active_children()}
            assert not workers & alive
        assert _rows(_sweep(engine)) == _rows(_sweep(VerificationEngine()))


def _context():
    return SweepCampaign(_programs()[:1], {"sc": POLICY_FACTORIES["sc"]})
