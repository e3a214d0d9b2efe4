"""Tests for intra-cell parallel exploration (``repro.core.parallel``).

The sharded explorer makes one promise: for every result-set or
verdict-only query, the merged output is bit-identical to the serial
explorer's -- result sets are order-independent, so the union of
per-shard result sets equals the serial set exactly.  These tests check
that promise across every mode (naive, DPOR), plus the resilience
machinery (crashed shard workers, Ctrl-C hygiene) and the cap-error
diagnostics.  The guided SC-membership search is serial; its
spin-history cases stay here as regressions.
"""

import multiprocessing
import os

import pytest

from repro.core import parallel
from repro.core.contract import ContractSearchLimit, is_sc_result
from repro.core.dpor import check_program_dpor, sc_results_dpor
from repro.core.drf0 import check_program, races_in_execution_vc
from repro.core.execution import Result
from repro.core.models import DRF0_MODEL
from repro.core.sc import (
    ExplorationCapError,
    ExplorationConfig,
    ExplorationIncomplete,
    explore,
    sc_results,
)
from repro.litmus.catalog import by_name
from repro.machine.generator import GeneratorConfig, random_program
from repro.verify.engine import Failpoint, VerificationEngine, _balanced_chunks

pool_available = pytest.mark.skipif(
    not parallel.can_fork(), reason="fork start method unavailable"
)

CATALOG_NAMES = ("SB", "MP", "MP+sync", "LB", "IRIW", "SB+sync", "TAS")


def _generated(seed: int):
    return random_program(
        seed, GeneratorConfig(max_threads=3, max_ops_per_thread=4)
    )


# ----------------------------------------------------------------------
# Bit-identical merges, mode by mode
# ----------------------------------------------------------------------


@pool_available
class TestEquivalence:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_sc_results_catalog(self, name):
        program = by_name(name).program
        serial = sc_results(program)
        sharded = sc_results(program, ExplorationConfig(explore_jobs=2))
        assert serial == sharded

    @pytest.mark.parametrize("seed", range(6))
    def test_sc_results_generated(self, seed):
        program = _generated(seed)
        serial = sc_results(program)
        sharded = sc_results(program, ExplorationConfig(explore_jobs=2))
        assert serial == sharded

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_drf0_verdict(self, name):
        # The DRF0 configuration search is serial and ignores
        # explore_jobs: the whole report is the same with it set.
        program = by_name(name).program
        serial = check_program(program)
        with_jobs = check_program(
            program, config=ExplorationConfig(explore_jobs=2)
        )
        assert serial.obeys == with_jobs.obeys
        assert serial.race == with_jobs.race
        assert serial.witness == with_jobs.witness
        assert serial.stats == with_jobs.stats

    @pytest.mark.parametrize("seed", range(6))
    def test_dpor_result_set(self, seed):
        program = _generated(seed)
        serial = sc_results_dpor(program)
        sharded = sc_results_dpor(
            program, config=ExplorationConfig(explore_jobs=2)
        )
        assert serial == sharded

    @pytest.mark.parametrize("seed", range(6))
    def test_dpor_verdict(self, seed):
        program = _generated(seed)
        serial = check_program_dpor(program)
        sharded = check_program_dpor(
            program, config=ExplorationConfig(explore_jobs=2)
        )
        assert serial.obeys == sharded.obeys

    def test_membership_spin_pumped_result(self):
        # Regression: hardware results of spin-loop programs carry
        # arbitrary spin counts.  The guided search has no livelock-cycle
        # pruning (the read history bounds it): an on-path cut would
        # sever the exact paths a pumped history needs.
        program = by_name("MP+sync").program
        pumped = Result(
            reads=((), (1, 1, 0, 1)),
            final_memory=(("flag", 0), ("x", 1)),
        )
        assert is_sc_result(program, pumped)

    @pytest.mark.parametrize("name", ("SB", "MP+sync"))
    def test_membership_negative(self, name):
        program = by_name(name).program
        impossible = Result(
            reads=tuple(() for _ in range(program.num_procs)),
            final_memory=tuple(
                (loc, 77) for loc in sorted(program.initial_memory)
            ),
        )
        assert not is_sc_result(program, impossible)

    @pytest.mark.parametrize("seed", range(4))
    def test_membership_generated(self, seed):
        program = _generated(seed)
        results = sorted(sc_results(program), key=repr)
        for result in results[:3]:
            assert is_sc_result(program, result)


# ----------------------------------------------------------------------
# Serial fallbacks and trace materialization (satellite: record_trace)
# ----------------------------------------------------------------------


class TestTraceMaterialization:
    def test_collect_executions_falls_back_serial(self):
        # explore_jobs only shards result-set-only queries; asking for
        # the execution list must still produce full operation traces.
        program = by_name("SB").program
        exploration = explore(
            program, ExplorationConfig(dedup=False, explore_jobs=2)
        )
        assert exploration.executions
        assert all(e.ops for e in exploration.executions)

    def test_drf0_witness_has_full_trace(self):
        # The verdict-only path explores on trace-free engines; the racy
        # witness must still materialize (replayed on a recording
        # engine) with a bit-identical operation trace.
        program = by_name("SB").program
        report = check_program(program)
        assert not report.obeys
        assert report.witness is not None and report.witness.ops
        assert report.race is not None
        assert report.race in races_in_execution_vc(
            report.witness, DRF0_MODEL
        )


# ----------------------------------------------------------------------
# Cap errors (satellite: ExplorationCapError diagnostics)
# ----------------------------------------------------------------------


class TestCapError:
    def test_alias_and_subclass(self):
        assert ExplorationIncomplete is ExplorationCapError
        assert issubclass(ContractSearchLimit, ExplorationCapError)

    def test_serial_cap_carries_states(self):
        program = _generated(0)
        with pytest.raises(ExplorationCapError) as excinfo:
            sc_results(program, ExplorationConfig(max_states=3))
        assert excinfo.value.states is not None
        assert excinfo.value.states > 3
        assert "states=" in str(excinfo.value)

    @pool_available
    def test_sharded_cap_carries_shard_counts(self):
        program = _generated(0)
        with pytest.raises(ExplorationCapError) as excinfo:
            sc_results(
                program,
                ExplorationConfig(max_states=3, explore_jobs=2),
            )
        assert excinfo.value.states is not None
        assert excinfo.value.frontier is not None
        assert excinfo.value.shards is not None
        assert "frontier=" in str(excinfo.value)

    @pool_available
    def test_sharded_cap_summed_across_shards(self):
        # Every IRIW shard stays within the budget, but their sum does
        # not: the coordinator's own cap must trip, not a worker's.
        program = by_name("IRIW").program
        cfg = ExplorationConfig(collect_executions=False)
        stats = parallel.ShardStats()
        parallel.parallel_explore(program, cfg, 2, shard_stats=stats)
        budget = stats.max_shard_states
        assert stats.total_shard_states > budget
        with pytest.raises(ExplorationCapError) as excinfo:
            parallel.parallel_explore(
                program, ExplorationConfig(
                    collect_executions=False, max_states=budget
                ), 2,
            )
        assert "across shards" in str(excinfo.value)
        assert excinfo.value.shards is not None


# ----------------------------------------------------------------------
# Crash paths (satellite: shard-worker failpoints)
# ----------------------------------------------------------------------


@pool_available
class TestShardResilience:
    def test_shard_crash_resubmits_and_merges_identically(self, tmp_path):
        program = by_name("IRIW").program
        token = str(tmp_path / "crash-token")
        stats = parallel.ShardStats()
        sharded = parallel.parallel_explore(
            program,
            ExplorationConfig(collect_executions=False),
            2,
            failpoints=(Failpoint("shard", "crash", token),),
            shard_stats=stats,
        )
        assert sharded.result_set == sc_results(program)  # as serial
        assert os.path.exists(token)  # the failpoint really fired
        assert stats.resubmitted >= 1

    def test_shard_crash_dpor_results_identical(self, tmp_path):
        program = _generated(3)
        serial = sc_results_dpor(program)
        token = str(tmp_path / "crash-token")
        stats = parallel.ShardStats()
        sharded = parallel.parallel_sc_results_dpor(
            program,
            ExplorationConfig(),
            2,
            failpoints=(Failpoint("shard", "crash", token),),
            shard_stats=stats,
        )
        assert sharded == serial
        assert os.path.exists(token)
        assert stats.resubmitted >= 1

    def test_keyboard_interrupt_reaps_workers(self, tmp_path):
        program = _generated(0)
        token = str(tmp_path / "interrupt-token")
        with pytest.raises(KeyboardInterrupt):
            parallel.parallel_explore(
                program,
                ExplorationConfig(collect_executions=False),
                2,
                failpoints=(
                    Failpoint("coordinator", "interrupt", token),
                ),
            )
        assert os.path.exists(token)
        # Ctrl-C hygiene: the coordinator's finally tears the pool down
        # before propagating, so no orphan shard workers survive.
        for child in multiprocessing.active_children():
            child.join(timeout=5)
        assert not multiprocessing.active_children()


# ----------------------------------------------------------------------
# Engine integration: balanced chunks
# ----------------------------------------------------------------------


class TestEngineIntegration:
    def test_balanced_chunks_no_straggler(self):
        # 251 seeds at 32 chunks used to leave a 3-seed tail; balanced
        # splitting keeps every chunk within one seed of its siblings
        # and preserves concatenation order (the fold contract).
        seeds = list(range(251))
        chunks = _balanced_chunks(seeds, 8)
        sizes = [len(chunk) for chunk in chunks]
        assert len(chunks) == 32
        assert max(sizes) - min(sizes) <= 1
        assert [seed for chunk in chunks for seed in chunk] == seeds

    def test_balanced_chunks_edge_cases(self):
        assert _balanced_chunks([1], 8) == [(1,)]
        assert _balanced_chunks(list(range(8)), 8) == [tuple(range(8))]
        chunks = _balanced_chunks(list(range(9)), 8)
        assert [len(c) for c in chunks] == [5, 4]

    def test_seed_chunks_balanced(self):
        engine = VerificationEngine(jobs=8)
        [chunks] = engine._plan_chunks([list(range(251))])
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert [s for chunk in chunks for s in chunk] == list(range(251))
