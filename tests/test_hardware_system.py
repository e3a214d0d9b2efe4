"""Integration tests: full hardware runs across configurations and policies."""

import pytest

from repro.core.contract import is_sc_result
from repro.core.sc import sc_results
from repro.core.types import Condition
from repro.hw import (
    AdveHillPolicy,
    Definition1Policy,
    RelaxedPolicy,
    SCPolicy,
)
from repro.litmus.catalog import all_tests
from repro.machine.dsl import ThreadBuilder, build_program
from repro.sim.faults import DELIVERY_PRESERVING_PLANS, FaultPlan
from repro.sim.system import (
    FIGURE1_CONFIGS,
    SystemConfig,
    run_on_hardware,
    run_seed_sweep,
)
from repro.verify.diff import _DIFF_CONFIGS
from repro.verify.fuzz import _FUZZ_CONFIGS

from helpers import (
    lock_increment_program,
    message_passing_program,
    store_buffer_program,
)

SEEDS = range(15)


def forbidden_sb_outcome(result):
    return result.reads[0][0] == 0 and result.reads[1][0] == 0


class TestFigure1Matrix:
    """E1: every configuration can violate SC when relaxed, never when SC."""

    @pytest.mark.parametrize("config_name", sorted(FIGURE1_CONFIGS))
    def test_relaxed_hardware_shows_violation(self, config_name):
        config = FIGURE1_CONFIGS[config_name]
        program = store_buffer_program()
        observed = any(
            forbidden_sb_outcome(
                run_on_hardware(program, RelaxedPolicy(), config.with_seed(s)).result
            )
            for s in range(40)
        )
        assert observed, f"{config_name} never produced the Figure-1 violation"

    @pytest.mark.parametrize("config_name", sorted(FIGURE1_CONFIGS))
    def test_sc_hardware_never_violates(self, config_name):
        config = FIGURE1_CONFIGS[config_name]
        program = store_buffer_program()
        for seed in range(40):
            run = run_on_hardware(program, SCPolicy(), config.with_seed(seed))
            assert not forbidden_sb_outcome(run.result)

    @pytest.mark.parametrize("config_name", sorted(FIGURE1_CONFIGS))
    def test_sc_hardware_results_always_in_sc_set(self, config_name):
        config = FIGURE1_CONFIGS[config_name]
        program = store_buffer_program()
        expected = sc_results(program)
        for seed in range(25):
            run = run_on_hardware(program, SCPolicy(), config.with_seed(seed))
            assert run.result in expected


class TestRunMechanics:
    def test_deterministic_given_seed(self):
        program = lock_increment_program(2)
        a = run_on_hardware(program, AdveHillPolicy(), SystemConfig(seed=5))
        b = run_on_hardware(program, AdveHillPolicy(), SystemConfig(seed=5))
        assert a.result == b.result and a.cycles == b.cycles

    def test_seed_sweep_accepts_class_or_instance(self):
        program = lock_increment_program(2)
        runs = run_seed_sweep(program, AdveHillPolicy, SystemConfig(), range(4))
        assert len(runs) == 4
        assert all(r.result.memory_value("count") == 2 for r in runs)
        shared = run_seed_sweep(
            program, AdveHillPolicy(), SystemConfig(), range(4)
        )
        assert [r.result for r in shared] == [r.result for r in runs]

    def test_seed_sweep_matches_per_seed_fresh_policy_runs(self):
        """Batching (one shared policy instance, one up-front validation)
        must not change any run: bit-identical results and cycle counts
        against the unbatched per-seed loop with a fresh policy each."""
        program = message_passing_program()
        config = SystemConfig()
        batched = run_seed_sweep(program, AdveHillPolicy(), config, SEEDS)
        for seed, run in zip(SEEDS, batched):
            solo = run_on_hardware(
                program, AdveHillPolicy(), config.with_seed(seed)
            )
            assert run.result == solo.result, f"seed {seed}"
            assert run.cycles == solo.cycles, f"seed {seed}"
            assert run.messages_sent == solo.messages_sent, f"seed {seed}"

    def test_seed_sweep_validates_before_first_run(self):
        """A bad (policy, config) pairing fails fast, not on seed 0's run."""
        with pytest.raises(ValueError):
            run_seed_sweep(
                store_buffer_program(),
                AdveHillPolicy(),
                SystemConfig(caches=False),
                range(3),
            )

    def test_with_seed_fast_copy_matches_replace(self):
        import dataclasses

        config = SystemConfig(topology="bus", net_jitter=9, cache_capacity=2)
        assert config.with_seed(7) == dataclasses.replace(config, seed=7)
        assert config.with_seed(config.seed) is config
        clone = config.with_seed(7)
        assert clone.seed == 7 and config.seed != 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.seed = 9  # still frozen

    def test_policy_requiring_caches_rejected_on_cacheless(self):
        with pytest.raises(ValueError):
            run_on_hardware(
                store_buffer_program(),
                AdveHillPolicy(),
                SystemConfig(caches=False),
            )

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            run_on_hardware(
                store_buffer_program(),
                SCPolicy(),
                SystemConfig(topology="torus"),
            )

    def test_execution_trace_commit_ordered(self):
        run = run_on_hardware(
            lock_increment_program(2), AdveHillPolicy(), SystemConfig(seed=1)
        )
        uids = [op.uid for op in run.execution.ops]
        assert uids == sorted(uids)
        # per-processor program order is embedded in the trace
        for proc in range(2):
            po = [op.po_index for op in run.execution.ops_of(proc)]
            assert po == sorted(po)

    def test_stats_populated(self):
        run = run_on_hardware(
            message_passing_program(), SCPolicy(), SystemConfig(seed=2)
        )
        assert run.cycles > 0
        assert run.messages_sent > 0
        assert all(s.halt_time is not None for s in run.proc_stats)
        assert len(run.raw_accesses) == 2

    def test_delay_instruction_consumes_cycles(self):
        fast = build_program([ThreadBuilder().store("x", 1)], name="fast")
        slow = build_program(
            [ThreadBuilder().delay(500).store("x", 1)], name="slow"
        )
        run_fast = run_on_hardware(fast, SCPolicy(), SystemConfig(seed=0))
        run_slow = run_on_hardware(slow, SCPolicy(), SystemConfig(seed=0))
        assert run_slow.cycles >= run_fast.cycles + 500


def _run_digest(run):
    return (
        run.result,
        run.cycles,
        run.messages_sent,
        [s.total_stall_cycles for s in run.proc_stats],
        run.cache_stats,
        run.directory_stats,
        run.fault_stats,
    )


#: diff's and fuzz's matrices, Figure 1's four systems, and the corners
#: of the property: a jitter-free network, a plan that injects nothing,
#: and an injecting plan on an otherwise seed-free bus.
SEED_PROPERTY_CONFIGS = {
    **{f"diff-{i}": config for i, config in enumerate(_DIFF_CONFIGS)},
    **{f"fuzz-{i}": config for i, config in enumerate(_FUZZ_CONFIGS)},
    **FIGURE1_CONFIGS,
    "network-no-jitter": SystemConfig(net_jitter=0),
    "bus-null-plan": SystemConfig(
        topology="bus", fault_plan=FaultPlan(name="none")
    ),
    "bus-jitter-plan": SystemConfig(
        topology="bus", fault_plan=DELIVERY_PRESERVING_PLANS["jitter-light"]
    ),
}


class TestSeedFreeConfigs:
    """``SystemConfig.draws_from_seed`` is exact: it is False precisely
    for the configs on which every catalog run is identical at seeds
    0-3, under the SC policy and (with caches) Adve--Hill."""

    @pytest.mark.parametrize("name", sorted(SEED_PROPERTY_CONFIGS))
    def test_draws_from_seed_iff_runs_differ(self, name):
        config = SEED_PROPERTY_CONFIGS[name]
        policies = [SCPolicy(), AdveHillPolicy()] if config.caches else [
            SCPolicy()
        ]
        differs = False
        for test in all_tests():
            for policy in policies:
                digests = {
                    repr(
                        _run_digest(
                            run_on_hardware(
                                test.program, policy, config.with_seed(seed)
                            )
                        )
                    )
                    for seed in range(4)
                }
                differs = differs or len(digests) > 1
        assert config.draws_from_seed == differs, name


class TestContractAcrossPolicies:
    """E5 core: weakly ordered hardware appears SC to DRF0 programs."""

    @pytest.mark.parametrize(
        "policy_factory",
        [SCPolicy, Definition1Policy, AdveHillPolicy,
         lambda: AdveHillPolicy(drf1_optimized=True)],
    )
    def test_mp_sync_appears_sc(self, policy_factory):
        program = message_passing_program(sync=True)
        for seed in SEEDS:
            run = run_on_hardware(program, policy_factory(), SystemConfig(seed=seed))
            assert is_sc_result(program, run.result), (
                f"{run.policy_name} seed {seed}: {run.result}"
            )

    @pytest.mark.parametrize(
        "policy_factory",
        [SCPolicy, Definition1Policy, AdveHillPolicy,
         lambda: AdveHillPolicy(drf1_optimized=True)],
    )
    def test_lock_program_appears_sc(self, policy_factory):
        program = lock_increment_program(3)
        for seed in SEEDS:
            run = run_on_hardware(program, policy_factory(), SystemConfig(seed=seed))
            assert is_sc_result(program, run.result)
            assert run.result.memory_value("count") == 3

    def test_racy_program_can_break_on_weak_hardware(self):
        """Definition 2's premise is necessary: the racy SB program shows a
        non-SC outcome on at least one weakly ordered run."""
        program = store_buffer_program()
        observed = False
        for seed in range(60):
            run = run_on_hardware(
                program, Definition1Policy(), SystemConfig(seed=seed)
            )
            if forbidden_sb_outcome(run.result):
                observed = True
                break
        assert observed

    def test_sb_with_sync_accesses_is_safe_on_weak_hardware(self):
        """Making the accesses synchronizing restores SC (the contract)."""
        p0 = ThreadBuilder().sync_store("x", 1).test_and_set("r0", "y", 1)
        p1 = ThreadBuilder().sync_store("y", 1).test_and_set("r1", "x", 1)
        program = build_program([p0, p1], name="sb-sync")
        for policy_factory in (Definition1Policy, AdveHillPolicy):
            for seed in SEEDS:
                run = run_on_hardware(
                    program, policy_factory(), SystemConfig(seed=seed)
                )
                assert not forbidden_sb_outcome(run.result)


class TestPerformanceShape:
    """The coarse performance ordering the paper argues for."""

    def test_weak_ordering_not_slower_than_sc_on_producer(self):
        from repro.workloads import producer_consumer_workload

        program = producer_consumer_workload(batch_size=8)
        def mean_cycles(factory):
            return sum(
                run_on_hardware(program, factory(), SystemConfig(seed=s)).cycles
                for s in range(8)
            ) / 8

        sc = mean_cycles(SCPolicy)
        def1 = mean_cycles(Definition1Policy)
        ah = mean_cycles(AdveHillPolicy)
        assert def1 <= sc * 1.02
        assert ah <= def1 * 1.05

    def test_adve_hill_releaser_does_not_gate_stall(self):
        """Figure 3: the releasing processor has no generation-gate stalls
        under the new implementation, but does under Definition 1."""
        from repro.litmus.figures import figure3_program

        program = figure3_program(release_work=0, post_release_work=60)
        run_def1 = run_on_hardware(program, Definition1Policy(), SystemConfig(seed=3))
        run_ah = run_on_hardware(program, AdveHillPolicy(), SystemConfig(seed=3))
        assert run_ah.proc_stats[0].gate_stall_cycles == 0
        assert run_def1.proc_stats[0].gate_stall_cycles > 0
