"""Tests for deterministic fault injection and the liveness watchdog.

The fault layer's contract has three legs:

1. **Determinism** -- same plan + same seeds = bit-identical runs,
   including the injector's own counters;
2. **Verdict invariance** -- delivery-preserving plans may move timing
   but never move a Definition-2 verdict;
3. **Detection, not hanging** -- delivery-violating plans end in a
   :class:`LivenessError` that names the stuck processor and its stall
   cause.
"""

import dataclasses

import pytest

from repro.hw import POLICY_FACTORIES
from repro.litmus.catalog import ThreadBuilder, build_program, by_name
from repro.sim import (
    DELIVERY_PRESERVING_PLANS,
    DELIVERY_VIOLATING_PLANS,
    FaultConfigError,
    FaultInjector,
    FaultPlan,
    LivenessError,
    SimulationDeadlock,
    SystemConfig,
    WatchdogTimeout,
    build_injector,
    run_on_hardware,
)


def _run(program, policy_name, config):
    return run_on_hardware(program, POLICY_FACTORIES[policy_name](), config)


class TestFaultPlanValidation:
    def test_all_named_plans_are_valid(self):
        for plan in DELIVERY_PRESERVING_PLANS.values():
            plan.validate()
            assert plan.delivery_preserving
        for plan in DELIVERY_VIOLATING_PLANS.values():
            plan.validate()
            assert not plan.delivery_preserving

    def test_rejects_bad_probability(self):
        with pytest.raises(FaultConfigError):
            FaultPlan(name="bad", duplicate_prob=1.5).validate()

    def test_rejects_reorder_without_window(self):
        with pytest.raises(FaultConfigError):
            FaultPlan(name="bad", reorder_prob=0.5).validate()

    def test_rejects_liveness_breaking_delays(self):
        # counter + reserve-clear delays must stay under the NACK retry
        # period or a reserved line can starve its waiters forever.
        with pytest.raises(FaultConfigError):
            FaultPlan(
                name="bad", counter_decrement_delay=5, reserve_clear_delay=5
            ).validate()

    def test_null_injector_for_baseline(self):
        assert not build_injector(None).enabled
        assert not build_injector(FaultPlan()).enabled
        assert build_injector(FaultPlan(delay_jitter=2)).enabled


class TestDeterminism:
    @pytest.mark.parametrize("plan_name", sorted(DELIVERY_PRESERVING_PLANS))
    def test_identical_runs_under_same_plan(self, plan_name):
        program = by_name("MP+sync").program
        config = SystemConfig(
            fault_plan=DELIVERY_PRESERVING_PLANS[plan_name], seed=3
        )
        first = _run(program, "adve-hill", config)
        second = _run(program, "adve-hill", config)
        assert first.result == second.result
        assert first.cycles == second.cycles
        assert first.fault_stats == second.fault_stats

    def test_fault_seed_changes_injection(self):
        plan = DELIVERY_PRESERVING_PLANS["jitter-heavy"]
        program = by_name("MP+sync").program
        base = _run(program, "sc", SystemConfig(fault_plan=plan))
        reseeded = _run(
            program, "sc", SystemConfig(fault_plan=plan.with_seed(99))
        )
        assert base.fault_stats != reseeded.fault_stats

    def test_injector_rng_is_isolated_per_run(self):
        injector = FaultInjector(FaultPlan(delay_jitter=4), run_seed=7)
        again = FaultInjector(FaultPlan(delay_jitter=4), run_seed=7)
        draws = [injector.service_delay() for _ in range(20)]
        assert draws == [again.service_delay() for _ in range(20)]


class TestVerdictInvariance:
    @pytest.mark.parametrize(
        "plan_name", ["jitter-heavy", "reorder", "duplicate", "kitchen-sink"]
    )
    @pytest.mark.parametrize("policy_name", ["sc", "adve-hill", "relaxed"])
    def test_verdicts_stable_across_plans(self, plan_name, policy_name):
        from repro.core.contract import appears_sc

        program = by_name("MP+sync").program
        plan = DELIVERY_PRESERVING_PLANS[plan_name]
        seeds = range(8)
        baseline = {
            _run(program, policy_name, SystemConfig(seed=s)).result
            for s in seeds
        }
        faulted_cfg = SystemConfig(fault_plan=plan, watchdog_cycles=50_000)
        faulted = {
            _run(
                program, policy_name, dataclasses.replace(faulted_cfg, seed=s)
            ).result
            for s in seeds
        }
        assert (
            appears_sc(program, baseline).appears_sc
            == appears_sc(program, faulted).appears_sc
        )

    def test_duplicates_are_suppressed(self):
        plan = DELIVERY_PRESERVING_PLANS["duplicate"]
        run = _run(
            by_name("MP+sync").program, "sc", SystemConfig(fault_plan=plan)
        )
        assert run.fault_stats.get("messages_duplicated", 0) > 0
        assert run.fault_stats.get("duplicates_suppressed", 0) > 0

    def test_faults_actually_fire(self):
        plan = DELIVERY_PRESERVING_PLANS["kitchen-sink"]
        run = _run(
            by_name("MP+sync").program, "adve-hill",
            SystemConfig(fault_plan=plan),
        )
        assert sum(run.fault_stats.values()) > 0


class TestLivenessDetection:
    def test_dropped_messages_diagnosed_not_hung(self):
        plan = DELIVERY_VIOLATING_PLANS["drop-all"]
        config = SystemConfig(fault_plan=plan, watchdog_cycles=5_000)
        with pytest.raises(LivenessError) as excinfo:
            _run(by_name("MP+sync").program, "adve-hill", config)
        assert excinfo.value.stuck  # names who is stuck and why
        assert any("P" in line for line in excinfo.value.stuck)

    def test_watchdog_catches_reserve_bit_livelock(self):
        # Drop exactly the DATA_EX reply to P0's plain store: its counter
        # never decrements, the following sync store commits but leaves
        # its reserve bit set forever, and P1's sync load NACK-retries
        # against that reservation endlessly -- live events, no progress.
        # Only the watchdog (not queue-drain deadlock detection) sees it.
        t0 = ThreadBuilder().store("x", 1).sync_store("s", 1)
        t1 = ThreadBuilder().delay(40).sync_load("r0", "s")
        program = build_program([t0, t1], name="reserve-livelock")
        plan = FaultPlan(
            name="drop-first-data-ex",
            drop_prob=1.0,
            drop_kinds=("data_ex",),
            drop_limit=1,
        )
        config = SystemConfig(
            topology="bus", fault_plan=plan, watchdog_cycles=400
        )
        with pytest.raises(WatchdogTimeout) as excinfo:
            _run(program, "adve-hill", config)
        assert any(
            "block:reserve-nack" in line for line in excinfo.value.stuck
        )

    def test_watchdog_no_false_positive_on_clean_run(self):
        config = SystemConfig(watchdog_cycles=10_000)
        run = _run(by_name("MP+sync").program, "adve-hill", config)
        assert run.result is not None

    def test_watchdog_no_false_positive_under_heavy_faults(self):
        config = SystemConfig(
            fault_plan=DELIVERY_PRESERVING_PLANS["kitchen-sink"],
            watchdog_cycles=50_000,
        )
        run = _run(by_name("SB+sync").program, "adve-hill", config)
        assert run.result is not None

    def test_deadlock_diagnosis_renders(self):
        plan = DELIVERY_VIOLATING_PLANS["drop-all"]
        config = SystemConfig(fault_plan=plan, watchdog_cycles=5_000)
        try:
            _run(by_name("MP+sync").program, "sc", config)
        except LivenessError as exc:
            text = exc.diagnosis()
            assert "P" in text and "\n" in text
        else:  # pragma: no cover - the run must not complete
            pytest.fail("delivery-violating plan completed")


class TestFaultPlumbing:
    def test_snoop_substrate_rejects_faults(self):
        config = SystemConfig(
            topology="bus",
            coherence="snoop",
            fault_plan=DELIVERY_PRESERVING_PLANS["jitter-light"],
        )
        with pytest.raises(ValueError, match="snooping"):
            _run(by_name("MP+sync").program, "sc", config)

    def test_fault_stats_empty_without_plan(self):
        run = _run(by_name("MP+sync").program, "sc", SystemConfig())
        assert run.fault_stats == {}

    def test_protocol_transients_with_transport_nacks(self):
        # The protocol's own NACK/retry machinery (cross-reservation
        # transients) must compose with transport-level NACK injection.
        plan = DELIVERY_PRESERVING_PLANS["transport-nack"]
        config = SystemConfig(fault_plan=plan, watchdog_cycles=50_000)
        program = by_name("TAS").program
        run = _run(program, "adve-hill", config)
        assert run.fault_stats.get("transport_retries", 0) >= 0
        assert run.result is not None


class TestChaosHarness:
    def test_quick_chaos_sweep_passes(self):
        from repro.verify.chaos import chaos_sweep
        from repro.verify.engine import VerificationEngine

        report = chaos_sweep(VerificationEngine(), quick=True, seeds=range(4))
        assert report.invariance_holds
        assert report.watchdog_sound
        assert report.ok
        text = report.render()
        assert "MATCH" in text and "HOLDS" in text
        payload = report.to_json()
        assert payload["ok"] is True

    def test_cli_chaos_plans_its_suite_and_reuses_its_store(
        self, tmp_path, capsys, monkeypatch
    ):
        """``repro chaos`` with a status file and a store: the harness
        plans the whole suite on the monitor before its sweeps run, ticks
        every unit of it, and a second run on the store prints the same
        report without judging a verdict again."""
        import json

        from repro.cli import main
        from repro.obs import validate_status
        from repro.sim.faults import DELIVERY_VIOLATING_PLANS
        from repro.verify.chaos import QUICK_PRESERVING
        from repro.verify.store import VerdictStore

        store, status = tmp_path / "store", tmp_path / "status.json"
        argv = ["chaos", "--quick", "--seeds", "2", "--jobs", "2",
                "--cache-dir", str(store), "--status-json", str(status)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        snap = json.loads(status.read_text())
        assert validate_status(snap) == []
        assert snap["state"] == "done"
        cells = snap["progress"]["cells"]
        assert [cell["cell"] for cell in cells] == (
            ["baseline"]
            + [f"plan/{name}" for name in QUICK_PRESERVING]
            + [f"probe/{name}" for name in DELIVERY_VIOLATING_PLANS]
        )
        assert all(cell["done"] == cell["units"] > 0 for cell in cells)
        assert snap["result"]["ok"] is True

        flushed = []
        for method in ("record_sc", "record_drf0"):
            original = getattr(VerdictStore, method)

            def counting(self, *args, _original=original, **kwargs):
                flushed.append(args[0])
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(VerdictStore, method, counting)
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert flushed == []
