"""Tests for the live campaign telemetry plane.

Three layers, bottom-up:

* the telemetry channel -- heartbeats handed to one sink (a fleet
  worker's pipe, or the monitor's fold in the parent), and the
  exactly-once task fold;
* the progress engine -- completion %, ETA convergence, stragglers, and
  the atomically-replaced status snapshot;
* end-to-end -- a monitored sweep (serial and pooled, calm and under
  chaos) must emit a monotone progress series and a final snapshot whose
  verdict table is byte-identical to the evidence the sweep printed,
  while never changing the evidence itself.
"""

import json
import os
import time
from types import SimpleNamespace

import pytest

from repro.hw import POLICY_FACTORIES
from repro.litmus.catalog import by_name
from repro.obs import (
    CampaignMonitor,
    MetricsRegistry,
    ProgressEngine,
    StreamFold,
    render_status,
    validate_status,
    validate_status_file,
)
from repro.obs.progress import Heartbeat
from repro.obs.tracer import OBS_CLOCK, now_us
from repro.sim.faults import DELIVERY_PRESERVING_PLANS
from repro.sim.system import SystemConfig
from repro.verify import engine as engine_module
from repro.verify.engine import Failpoint, SweepCampaign, VerificationEngine
from repro.verify.leases import TaskBoard
from repro.verify.supervisor import FleetSession

from helpers import StandInCampaign

PROGRAM_NAMES = ("MP+sync", "SB")
POLICY_NAMES = ("sc", "adve-hill")
SEEDS = list(range(4))


def _programs():
    return [by_name(name).program for name in PROGRAM_NAMES]


def _factories():
    return {name: POLICY_FACTORIES[name] for name in POLICY_NAMES}


def _sweep(engine, config=None, **kwargs):
    return engine.definition2_sweep(
        _programs(), _factories(), config or SystemConfig(),
        seeds=SEEDS, **kwargs
    )


def _one_cell_campaign():
    return SweepCampaign(_programs()[:1], {"sc": POLICY_FACTORIES["sc"]})


pool_available = pytest.mark.skipif(
    not VerificationEngine(jobs=2).can_fork,
    reason="fork start method unavailable",
)


@pytest.fixture(autouse=True)
def _no_leaked_sink():
    """An engine session uninstalls its heartbeat sink when it ends."""
    yield
    assert engine_module._HEARTBEAT is None


# ----------------------------------------------------------------------
# Clock
# ----------------------------------------------------------------------


def test_clock_is_monotonic_microseconds():
    a = now_us()
    b = now_us()
    assert isinstance(a, int) and isinstance(b, int)
    assert b >= a
    assert OBS_CLOCK == "monotonic-us"


# ----------------------------------------------------------------------
# Telemetry channel
# ----------------------------------------------------------------------


def _sink_of_task(task, gen=0):
    """Stand-in for ``_execute_task``: the worker id of the heartbeat
    installed for this task, or None when none is."""
    heartbeat = engine_module._HEARTBEAT
    return None if heartbeat is None else heartbeat.worker_id


class TestHeartbeat:
    def test_disabled_telemetry_hooks_are_none(self, tmp_path):
        with VerificationEngine(jobs=1)._session(StandInCampaign()):
            assert engine_module._HEARTBEAT is None
        monitor = CampaignMonitor(str(tmp_path / "s.json"), interval=0.0)
        watched = VerificationEngine(jobs=1, monitor=monitor)
        with watched._session(StandInCampaign()):
            assert engine_module._HEARTBEAT is monitor.heartbeat
        assert engine_module._HEARTBEAT is None

    @pool_available
    def test_workers_beat_only_when_watched(self, monkeypatch, tmp_path):
        # The task message says whether a monitor watches: unwatched
        # workers get no sink, watched ones their own worker-<pid> one.
        monkeypatch.setattr(engine_module, "_execute_task", _sink_of_task)
        tasks = [("fuzz", index) for index in range(6)]
        with VerificationEngine(jobs=2)._session(StandInCampaign()) as session:
            assert session.map(tasks) == [None] * 6
        monitor = CampaignMonitor(str(tmp_path / "s.json"), interval=0.0)
        watched = VerificationEngine(jobs=2, monitor=monitor)
        with watched._session(StandInCampaign()) as session:
            ids = session.map(tasks)
        assert all(i.startswith("worker-") for i in ids)
        assert f"worker-{os.getpid()}" not in ids

    def test_beats_are_rate_limited(self):
        records = []
        heartbeat = Heartbeat(records.append)
        heartbeat.beat("a")
        heartbeat.beat("b")  # inside HEARTBEAT_INTERVAL: not sent
        heartbeat.beat("c", force=True)
        heartbeat.stall("P0 stuck on gate:gp", task="c")
        assert [(r["kind"], r["task"]) for r in records] == [
            ("beat", "a"), ("beat", "c"), ("stall", "c"),
        ]
        assert records[0]["worker"] == f"worker-{os.getpid()}"


class TestStreamFold:
    def test_duplicate_task_generations_fold_exactly_once(self, tmp_path):
        # Two leases of one task both reply.  The board keeps the first
        # completion, so the task's counts join the totals once and the
        # second reply is counted as skipped.
        monitor = CampaignMonitor(str(tmp_path / "s.json"), interval=0.0)
        engine = VerificationEngine(jobs=2, monitor=monitor)
        session = FleetSession(None, engine, {})
        task = ("run", 0, (0, 1))
        board = TaskBoard(1)

        def finish(index, value, seconds=0.0):
            engine._task_landed(task, value, seconds)

        with engine._session(_one_cell_campaign()):
            for gen in (1, 2):
                handle = SimpleNamespace(
                    assignment=(0, gen, time.monotonic())
                )
                session._absorb_reply(
                    handle, ("ok", (0, gen), []), board, session.breaker,
                    lambda index: "cell:0", finish, None,
                )
        fold = monitor.fold
        assert fold.totals == {"runs": 2}
        assert fold.tasks == 1
        assert fold.duplicates_skipped == 1

    def test_unknown_records_are_dropped_and_counted(self):
        fold = StreamFold()
        fold.absorb({"kind": "task", "key": "1:0"})
        fold.absorb({"no": "kind"})
        fold.absorb(["not", "a", "record"])
        fold.absorb({"kind": "stall", "worker": "worker-1", "ts": 5})
        assert fold.dropped == 3
        assert fold.records == 1
        assert len(fold.stalls) == 1

    def test_beats_keep_latest_cumulative_counters(self):
        fold = StreamFold()
        beat = {
            "kind": "beat", "worker": "worker-1", "pid": 1, "role": "worker",
            "ts": 10, "task": "a", "gen": 0, "counters": {"runs": 1},
            "rss_kb": 5,
        }
        later = dict(beat, ts=20, task="b", counters={"runs": 4})
        fold.absorb(beat)
        fold.absorb(later)
        view = fold.workers["worker-1"]
        assert view.counters == {"runs": 4}
        assert view.task == "b"
        assert view.last_ts == 20

    def test_silent_worker_detection(self):
        fold = StreamFold()
        for record in (
            {
                "kind": "beat", "worker": "worker-1", "pid": 1,
                "role": "worker", "ts": 1_000_000, "task": None,
                "gen": 0, "counters": {}, "rss_kb": 0,
            },
            {
                "kind": "beat", "worker": "worker-2", "pid": 2,
                "role": "worker", "ts": 9_000_000, "task": None,
                "gen": 0, "counters": {}, "rss_kb": 0,
            },
        ):
            fold.absorb(record)
        rows = fold.worker_rows(now=10_000_000, silent_after_us=5_000_000)
        states = {row["id"]: row["state"] for row in rows}
        assert states == {"worker-1": "silent", "worker-2": "ok"}
        assert rows[0]["id"] == "worker-1"  # silent sorts first


# ----------------------------------------------------------------------
# Progress engine
# ----------------------------------------------------------------------


class TestProgressEngine:
    def test_completion_monotone_and_eta_converges(self):
        engine = ProgressEngine()
        engine.plan([("a", 4, 100.0), ("b", 4, 300.0)])
        assert engine.view()["completion"] == 0.0
        assert engine.view()["eta_s"] is None  # no live throughput yet
        engine.unit_done(0, 2)
        view = engine.view()
        assert view["completion"] == pytest.approx(0.25)
        assert view["eta_s"] is not None and view["eta_s"] >= 0
        # A late-added extra pool grows the denominator, but the bar
        # must never move backwards.
        engine.add_extra("judge", 8)
        assert engine.view()["completion"] >= 0.25
        engine.unit_done(0, 2)
        engine.unit_done(1, 4)
        engine.extra_done("judge", 8)
        final = engine.view()
        assert final["completion"] == 1.0
        assert final["eta_s"] == 0.0

    def test_prefilled_work_excluded_from_rate(self):
        engine = ProgressEngine()
        engine.plan([("a", 10, 100.0)])
        engine.prefill(0, 10)
        view = engine.view()
        assert view["completion"] == 1.0
        assert view["eta_s"] == 0.0

    def test_median_cost_prices_unknown_cells(self):
        engine = ProgressEngine()
        engine.plan([("a", 1, 50.0), ("b", 1, 150.0), ("c", 1, 0.0)])
        assert engine.median_unit_cost() == 150.0

    def test_straggler_flags_past_double_prediction(self):
        engine = ProgressEngine()
        engine.plan([("slow", 2, 100.0), ("fine", 2, 100.0)])
        engine.observe_cell_us(0, 500.0)  # 2.5x the 200us prediction
        engine.observe_cell_us(1, 150.0)
        [row] = engine.stragglers()
        assert row["cell"] == "slow"
        assert row["ratio"] == pytest.approx(2.5)
        # A finished cell is no longer a straggler.
        engine.unit_done(0, 2)
        assert engine.stragglers() == []


# ----------------------------------------------------------------------
# Campaign monitor + snapshot
# ----------------------------------------------------------------------


class TestCampaignMonitor:
    def _monitor(self, tmp_path, **kwargs):
        kwargs.setdefault("interval", 0.0)
        return CampaignMonitor(
            str(tmp_path / "status.json"), command="test", **kwargs
        )

    def test_snapshot_schema_validates(self, tmp_path):
        monitor = self._monitor(tmp_path)
        try:
            assert monitor.claim_plan()
            assert not monitor.claim_plan()  # exactly once
            monitor.progress.plan([("cell", 4, 10.0)])
            monitor.progress.unit_done(0, 2)
            snap = monitor.poll(force=True)
            assert validate_status(snap) == []
            assert validate_status_file(monitor.status_path) == []
            on_disk = json.load(open(monitor.status_path))
            assert on_disk["seq"] == snap["seq"]
            assert on_disk["schema"] == "repro-status/1"
            assert on_disk["clock"]["id"] == OBS_CLOCK
        finally:
            monitor.close()

    def test_seq_monotone_and_atomic_replace(self, tmp_path):
        monitor = self._monitor(tmp_path)
        try:
            seqs = [monitor.poll(force=True)["seq"] for _ in range(4)]
            assert seqs == sorted(seqs) and len(set(seqs)) == 4
            # No tmp litter next to the status file.
            names = os.listdir(tmp_path)
            assert not [n for n in names if ".tmp." in n]
        finally:
            monitor.close()

    def test_worker_heartbeats_surface_in_snapshot(self, tmp_path):
        monitor = self._monitor(tmp_path)
        try:
            # A worker's beat, folded as the lease loop folds its
            # ("beat", record) messages; the task's counts join the
            # totals where the task lands.
            sent = []
            heartbeat = Heartbeat(sent.append)
            heartbeat.add({"runs": 3})
            heartbeat.beat("run:cell0x3", force=True)
            for record in sent:
                monitor.fold.absorb(record)
            task = ("run", 0, (0, 1, 2))
            engine = VerificationEngine(monitor=monitor)
            with engine._session(_one_cell_campaign()):
                engine._task_landed(task, [])
            snap = monitor.poll(force=True)
            [row] = snap["workers"]
            assert row["state"] == "ok"
            assert row["task"] == "run:cell0x3"
            assert row["counters"] == {"runs": 3}
            assert snap["totals"] == {"runs": 3}
            assert snap["stream"]["beats"] == 1
        finally:
            monitor.close()

    def test_finish_embeds_verdicts_and_cleans_spool(self, tmp_path):
        monitor = self._monitor(tmp_path)
        rows = [{"program": "MP+sync", "appears_sc": True}]
        monitor.claim_plan()
        monitor.progress.plan([("cell", 1, 0.0)])
        monitor.progress.unit_done(0)
        monitor.finish(ok=True, verdicts=rows, result={"contract_holds": True})
        snap = json.load(open(monitor.status_path))
        assert snap["state"] == "done"
        assert snap["verdicts"] == rows
        assert snap["progress"]["completion"] == 1.0
        assert snap["progress"]["eta_s"] == 0.0
        assert validate_status(snap) == []

    def test_fail_writes_terminal_error_snapshot(self, tmp_path):
        monitor = self._monitor(tmp_path)
        monitor.fail("LivenessError: P0 stuck on gate:gp")
        snap = json.load(open(monitor.status_path))
        assert snap["state"] == "failed"
        assert "P0 stuck" in snap["error"]
        assert validate_status(snap) == []

    def test_stall_diagnosis_reaches_snapshot(self, tmp_path):
        monitor = self._monitor(tmp_path)
        try:
            sent = []
            Heartbeat(sent.append).stall(
                "P1 stuck on fence (47 cycles)", task="run:cell1x2"
            )
            for record in sent:
                monitor.fold.absorb(record)
            snap = monitor.poll(force=True)
            [stall] = snap["health"]["stalls"]
            assert "P1 stuck on fence" in stall["diagnosis"]
            assert "P1 stuck on fence" in render_status(snap)
        finally:
            monitor.close()

    def test_render_status_smoke(self, tmp_path):
        monitor = self._monitor(tmp_path)
        try:
            monitor.claim_plan()
            monitor.progress.plan([("MP+sync/sc", 4, 10.0)])
            monitor.progress.unit_done(0, 1)
            text = render_status(monitor.poll(force=True))
            assert "repro campaign: test" in text
            assert "25.00%" in text
        finally:
            monitor.close()


class TestValidator:
    def _valid(self, tmp_path):
        monitor = CampaignMonitor(str(tmp_path / "s.json"), interval=0.0)
        snap = monitor.poll(force=True)
        monitor.close()
        return snap

    def test_rejects_wrong_schema(self, tmp_path):
        snap = self._valid(tmp_path)
        snap["schema"] = "repro-status/999"
        assert validate_status(snap)

    def test_rejects_out_of_range_completion(self, tmp_path):
        snap = self._valid(tmp_path)
        snap["progress"]["completion"] = 1.5
        assert validate_status(snap)

    def test_rejects_done_without_converged_eta(self, tmp_path):
        snap = self._valid(tmp_path)
        snap["state"] = "done"
        snap["progress"]["completion"] = 1.0
        snap["progress"]["eta_s"] = 3.0
        assert validate_status(snap)

    def test_rejects_non_object(self):
        assert validate_status([])
        assert validate_status(None)


# ----------------------------------------------------------------------
# End-to-end: monitored sweeps
# ----------------------------------------------------------------------


def _rows_key(rows):
    return json.dumps(rows, sort_keys=True)


def _monitored_sweep(tmp_path, jobs, config=None, **engine_kwargs):
    snapshots = []
    monitor = CampaignMonitor(
        str(tmp_path / "status.json"),
        command="sweep",
        interval=0.0,
        on_snapshot=snapshots.append,
    )
    engine = VerificationEngine(jobs=jobs, monitor=monitor, **engine_kwargs)
    evidence = _sweep(engine, config=config)
    monitor.finish(
        ok=evidence.contract_holds,
        verdicts=evidence.rows,
        result={"contract_holds": evidence.contract_holds},
    )
    final = json.load(open(str(tmp_path / "status.json")))
    return evidence, snapshots, final


def _assert_telemetry_contract(evidence, snapshots, final, reference):
    # Telemetry never changes the evidence.
    assert _rows_key(evidence.rows) == _rows_key(reference.rows)
    # The progress series is monotone non-decreasing.
    series = [s["progress"]["completion"] for s in snapshots]
    assert series == sorted(series)
    assert series[-1] == 1.0
    # The final snapshot's verdict table is byte-identical to the
    # evidence the sweep printed.
    assert _rows_key(final["verdicts"]) == _rows_key(evidence.rows)
    assert final["state"] == "done"
    assert final["progress"]["eta_s"] == 0.0
    assert validate_status(final) == []


@pytest.fixture(scope="module")
def reference_evidence():
    return _sweep(VerificationEngine(jobs=1))


class TestMonitoredSweep:
    def test_serial_sweep_emits_monotone_progress(
        self, tmp_path, reference_evidence
    ):
        evidence, snapshots, final = _monitored_sweep(tmp_path, jobs=1)
        _assert_telemetry_contract(
            evidence, snapshots, final, reference_evidence
        )
        assert final["workers"]  # the serial parent heartbeats too
        assert final["totals"].get("runs") == len(evidence.rows) * len(SEEDS)

    @pool_available
    def test_pooled_sweep_heartbeats_per_worker(
        self, tmp_path, reference_evidence
    ):
        evidence, snapshots, final = _monitored_sweep(tmp_path, jobs=2)
        _assert_telemetry_contract(
            evidence, snapshots, final, reference_evidence
        )
        roles = {row["role"] for row in final["workers"]}
        assert "worker" in roles
        assert final["stream"]["records"] > 0
        assert final["stream"]["dropped_lines"] == 0

    @pool_available
    def test_worker_rows_sum_to_totals(self, tmp_path):
        # Every task's closing beat is sent, however soon after the
        # last one, so the worker table ends on all the work each
        # worker did: its rows add up to the deduped totals.
        _evidence, _snapshots, final = _monitored_sweep(tmp_path, jobs=2)
        for key in ("runs", "judges", "states", "drf0"):
            assert final["totals"][key] > 0
            assert sum(
                row["counters"].get(key, 0) for row in final["workers"]
            ) == final["totals"][key], key

    @pool_available
    def test_pooled_stall_diagnosis_reaches_snapshot(
        self, tmp_path, reference_evidence
    ):
        # A task that fails on a fleet worker sends its diagnosis over
        # the worker's pipe ahead of its error reply; the retry lands,
        # so the evidence is the serial run's.
        evidence, snapshots, final = _monitored_sweep(
            tmp_path,
            jobs=2,
            failpoints=(
                Failpoint("run", "error", str(tmp_path / "token")),
            ),
        )
        _assert_telemetry_contract(
            evidence, snapshots, final, reference_evidence
        )
        [stall] = final["health"]["stalls"]
        assert stall["diagnosis"].startswith("InjectedTaskError")
        assert stall["worker"].startswith("worker-")
        assert stall["worker"] != f"worker-{os.getpid()}"
        assert stall["worker"] in {row["id"] for row in final["workers"]}

    @pool_available
    def test_judge_pool_ticks_every_judgment(self, tmp_path):
        # A judge task carries several results; progress counts results.
        registry = MetricsRegistry()
        _evidence, _snapshots, final = _monitored_sweep(
            tmp_path, jobs=2, metrics=registry
        )
        judge = final["progress"]["extras"]["judge"]
        assert judge["done"] == judge["units"]
        tasks = registry.counter("engine.tasks.judge").value
        assert 0 < tasks < judge["units"]

    @pool_available
    def test_chaos_sweep_keeps_totals_truthful(self, tmp_path):
        """The satellite acceptance test: a pooled sweep under a
        delivery-preserving fault plan with a crash-killed worker must
        still stream a monotone progress series and finish with the
        bit-identical verdict table."""
        config = SystemConfig(
            fault_plan=DELIVERY_PRESERVING_PLANS["jitter-light"]
        )
        reference = _sweep(VerificationEngine(jobs=1), config=config)
        evidence, snapshots, final = _monitored_sweep(
            tmp_path,
            jobs=2,
            config=config,
            failpoints=(
                Failpoint("run", "crash", str(tmp_path / "token")),
            ),
            task_timeout=30,
        )
        _assert_telemetry_contract(evidence, snapshots, final, reference)
        assert (tmp_path / "token").exists()  # the crash really fired
        assert final["health"]["resilience"].get("worker_crashes", 0) >= 1
        # The deduped exactly-once totals equal the sweep's real work:
        # every (cell, seed) hardware run counted exactly once even
        # though a crashed task was resubmitted.
        assert final["totals"].get("runs") == len(evidence.rows) * len(SEEDS)


class TestSeedCampaignTotals:
    """Fuzz and diff count memo hits and misses where each seed lands.

    Seeds 15 and 114 generate the same program, so with two or more
    workers both seeds' workers judge it fresh; the totals must still
    count one miss, as the caches and the explorer counters do."""

    @pytest.mark.parametrize("jobs", (1, 2, 3))
    def test_fuzz_totals_equal_cache_counts(self, tmp_path, jobs):
        monitor = CampaignMonitor(str(tmp_path / "s.json"), interval=0.0)
        engine = VerificationEngine(jobs=jobs, monitor=monitor)
        engine.fuzz([15, 114])
        counters = engine.metrics_snapshot().as_dict()["counters"]
        assert counters["engine.stream.totals.sc_hits"] == 29
        assert counters["engine.stream.totals.sc_misses"] == 1
        assert counters["engine.stream.totals.states"] == 1
        assert counters["engine.sc_cache.hits"] == 29
        assert counters["engine.sc_cache.misses"] == 1
        assert counters["engine.explorer.states"] == 1

    @pytest.mark.parametrize("jobs", (1, 2, 3))
    def test_diff_totals_equal_cache_counts(self, tmp_path, jobs):
        monitor = CampaignMonitor(str(tmp_path / "s.json"), interval=0.0)
        engine = VerificationEngine(jobs=jobs, monitor=monitor)
        engine.diff_campaign([15, 114])
        counters = engine.metrics_snapshot().as_dict()["counters"]
        for name in ("hits", "misses"):
            assert counters[f"engine.stream.totals.drf0_{name}"] == 1
            assert counters[f"engine.drf0_cache.{name}"] == 1
        assert counters["engine.stream.totals.states"] == (
            counters["engine.explorer.states"]
        )


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestStatusCLI:
    def _run_sweep(self, tmp_path):
        from repro import cli

        path = str(tmp_path / "status.json")
        code = cli.main(
            [
                "sweep", "MP+sync", "--seeds", "2", "--drf0-seeds", "2",
                "--policy", "sc", "--status-json", path,
            ]
        )
        assert code == 0
        return path

    def test_status_renders_final_snapshot(self, tmp_path, capsys):
        from repro import cli

        path = self._run_sweep(tmp_path)
        capsys.readouterr()
        assert cli.main(["status", path]) == 0
        out = capsys.readouterr().out
        assert "100.00%" in out
        assert "final verdict rows: 1" in out

    def test_status_json_passthrough(self, tmp_path, capsys):
        from repro import cli

        path = self._run_sweep(tmp_path)
        capsys.readouterr()
        assert cli.main(["status", path, "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["state"] == "done"
        assert validate_status(snap) == []

    def test_top_once(self, tmp_path, capsys):
        from repro import cli

        path = self._run_sweep(tmp_path)
        capsys.readouterr()
        assert cli.main(["top", path, "--once"]) == 0
        assert "repro campaign" in capsys.readouterr().out

    def test_status_missing_file_is_usage_error(self, tmp_path):
        from repro import cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["status", str(tmp_path / "nope.json")])
        assert excinfo.value.code == 2

    def test_status_invalid_snapshot_fails(self, tmp_path, capsys):
        from repro import cli

        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": "wrong"}, handle)
        assert cli.main(["status", path]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_status_failed_campaign_exits_nonzero(self, tmp_path, capsys):
        from repro import cli

        path = str(tmp_path / "status.json")
        monitor = CampaignMonitor(path, command="sweep", interval=0.0)
        monitor.fail("injected failure")
        capsys.readouterr()
        assert cli.main(["status", path]) == 1
        assert "injected failure" in capsys.readouterr().out

    def test_drf0_status_json(self, tmp_path, capsys):
        from repro import cli

        path = str(tmp_path / "drf0.json")
        # SB is racy (exit 1 from the verdict), but the *campaign*
        # completed, so the snapshot lands in "done" with a converged ETA.
        code = cli.main(["drf0", "SB", "--status-json", path])
        assert code == 1
        snap = json.load(open(path))
        assert validate_status(snap) == []
        assert snap["state"] == "done"
        assert snap["result"]["obeys"] is False
        assert snap["progress"]["completion"] == 1.0
