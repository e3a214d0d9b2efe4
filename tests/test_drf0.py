"""Tests for race detection and the DRF0/DRF1 program verdicts."""

import pytest

from repro.cli import WORKLOAD_FACTORIES
from repro.core.drf0 import (
    _all_interleavings,
    check_program,
    check_program_sampled,
    obeys_drf0,
    races_in_execution,
    races_in_execution_vc,
)
from repro.core.models import DRF0_MODEL, DRF1_MODEL
from repro.core.sc import (
    ExplorationCapError,
    ExplorationConfig,
    random_sc_execution,
)
from repro.core.types import Condition, OpKind
from repro.litmus.catalog import all_tests, by_name
from repro.litmus.figures import figure3_program
from repro.machine.dsl import ThreadBuilder, build_program
from repro.machine.generator import random_program
from repro.workloads import barrier_workload, lock_workload

from helpers import (
    execution_from_specs,
    lock_increment_program,
    message_passing_program,
    racy_program,
    store_buffer_program,
)

R, W = OpKind.DATA_READ, OpKind.DATA_WRITE
SR, SW, SRW = OpKind.SYNC_READ, OpKind.SYNC_WRITE, OpKind.SYNC_RMW


class TestRacesInExecution:
    def test_unsynchronized_write_read_is_a_race(self):
        execution = execution_from_specs(
            [(0, W, "x", None, 1), (1, R, "x", 1, None)], num_procs=2
        )
        races = races_in_execution(execution)
        assert len(races) == 1
        assert races[0].first.proc == 0 and races[0].second.proc == 1

    def test_sync_chain_orders_accesses(self):
        """W(x); S(s) || S(s); R(x) -- ordered by hb, no race."""
        execution = execution_from_specs(
            [
                (0, W, "x", None, 1),
                (0, SW, "s", None, 0),
                (1, SRW, "s", 0, 1),
                (1, R, "x", 1, None),
            ],
            num_procs=2,
        )
        assert races_in_execution(execution) == []

    def test_sync_on_wrong_location_does_not_order(self):
        """Synchronizing on different locations leaves the conflict racy."""
        execution = execution_from_specs(
            [
                (0, W, "x", None, 1),
                (0, SW, "s", None, 0),
                (1, SRW, "t", 0, 1),
                (1, R, "x", 1, None),
            ],
            num_procs=2,
        )
        assert races_in_execution(execution)

    def test_transitive_sync_chain_through_third_processor(self):
        """The Section-4 chain: P0 -> (s) -> P1 -> (t) -> P2 orders x accesses."""
        execution = execution_from_specs(
            [
                (0, W, "x", None, 1),
                (0, SW, "s", None, 1),
                (1, SRW, "s", 1, 2),
                (1, SW, "t", None, 1),
                (2, SRW, "t", 1, 2),
                (2, R, "x", 1, None),
            ],
            num_procs=3,
        )
        assert races_in_execution(execution) == []

    def test_same_processor_never_races(self):
        execution = execution_from_specs(
            [(0, W, "x", None, 1), (0, R, "x", 1, None)], num_procs=1
        )
        assert races_in_execution(execution) == []

    def test_read_read_no_race(self):
        execution = execution_from_specs(
            [(0, R, "x", 0, None), (1, R, "x", 0, None)], num_procs=2
        )
        assert races_in_execution(execution) == []

    def test_data_read_of_sync_location_races_with_sync_write(self):
        """Spinning on a barrier count with a *data* read is a DRF0 race
        (the paper's Section-6 example of a restricted race DRF0 forbids)."""
        execution = execution_from_specs(
            [(1, R, "s", 0, None), (0, SW, "s", None, 0)], num_procs=2
        )
        assert races_in_execution(execution)

    def test_sync_sync_pair_never_races_under_drf0(self):
        execution = execution_from_specs(
            [(0, SRW, "s", 0, 1), (1, SRW, "s", 1, 1)], num_procs=2
        )
        assert races_in_execution(execution, DRF0_MODEL) == []


class TestDRF1Refinement:
    def test_read_only_sync_does_not_release_under_drf1(self):
        """P0: W(x); Test(s)   P1: TestAndSet(s); R(x)

        Under DRF0 the Test/TestAndSet pair is so-ordered, so W(x) hb R(x).
        Under DRF1 a read-only sync cannot order the issuing processor's
        previous accesses, so the x accesses race.
        """
        execution = execution_from_specs(
            [
                (0, W, "x", None, 1),
                (0, SR, "s", 0, None),
                (1, SRW, "s", 0, 1),
                (1, R, "x", 1, None),
            ],
            num_procs=2,
        )
        assert races_in_execution(execution, DRF0_MODEL) == []
        drf1_races = races_in_execution(execution, DRF1_MODEL)
        assert drf1_races
        assert {r.first.location for r in drf1_races} == {"x"}

    def test_write_sync_still_releases_under_drf1(self):
        execution = execution_from_specs(
            [
                (0, W, "x", None, 1),
                (0, SW, "s", None, 0),
                (1, SR, "s", 0, None),
                (1, R, "x", 1, None),
            ],
            num_procs=2,
        )
        assert races_in_execution(execution, DRF1_MODEL) == []

    def test_sync_sync_conflicts_exempt_under_drf1(self):
        execution = execution_from_specs(
            [(0, SR, "s", 1, None), (1, SW, "s", None, 0)], num_procs=2
        )
        # read-only sync then write sync: unordered under DRF1 but exempt.
        assert races_in_execution(execution, DRF1_MODEL) == []


class TestVectorClockAgreement:
    """The vector-clock detector must agree with the closure-based oracle."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize(
        "program_factory",
        [
            store_buffer_program,
            racy_program,
            lambda: message_passing_program(sync=True),
            lambda: message_passing_program(sync=False),
            lambda: lock_increment_program(2),
        ],
    )
    def test_detectors_agree_on_race_existence(self, program_factory, seed):
        execution = random_sc_execution(program_factory(), seed)
        for model in (DRF0_MODEL, DRF1_MODEL):
            slow = races_in_execution(execution, model)
            fast = races_in_execution_vc(execution, model)
            assert bool(slow) == bool(fast)

    def test_detectors_agree_on_race_pairs_for_small_trace(self):
        execution = execution_from_specs(
            [
                (0, W, "x", None, 1),
                (1, R, "x", 1, None),
                (1, W, "y", None, 2),
                (0, R, "y", 2, None),
            ],
            num_procs=2,
        )
        slow = {(r.first, r.second) for r in races_in_execution(execution)}
        fast = {(r.first, r.second) for r in races_in_execution_vc(execution)}
        assert slow == fast
        assert len(slow) == 2


class TestProgramVerdicts:
    def test_store_buffer_violates_drf0(self):
        report = check_program(store_buffer_program())
        assert not report.obeys
        assert report.race is not None
        assert report.witness is not None

    def test_racy_program_violates(self):
        assert not obeys_drf0(racy_program())

    def test_sync_message_passing_obeys(self):
        assert obeys_drf0(message_passing_program(sync=True))

    def test_data_message_passing_violates(self):
        assert not obeys_drf0(message_passing_program(sync=False))

    def test_lock_program_obeys(self):
        assert obeys_drf0(lock_increment_program(2))

    def test_ttas_lock_program_obeys_drf0(self):
        assert obeys_drf0(lock_increment_program(2, ttas=True))

    def test_report_counts_executions(self):
        report = check_program(message_passing_program(sync=True))
        assert report.obeys
        assert report.executions_checked > 0
        assert report.complete

    def test_read_sync_release_program_races_under_both_models(self):
        """A program whose only cross-thread ordering could come from a
        read-only sync racing a TestAndSet: some execution completes the
        TestAndSet first, leaving the x accesses unordered -- so the program
        violates DRF0 as well as DRF1 (the models differ per execution, not
        on this program)."""
        p0 = ThreadBuilder().store("x", 1).sync_load("r0", "s")
        p1 = ThreadBuilder().test_and_set("r1", "s").load("r2", "x")
        program = build_program([p0, p1], name="test-as-release")
        assert not check_program(program, DRF0_MODEL).obeys
        assert not check_program(program, DRF1_MODEL).obeys

    def test_drf0_clean_suite_is_also_drf1_clean(self):
        """For the idiomatic programs (locks, flag passing) the Section-6
        refinement does not reject anything DRF0 accepts."""
        for program in (
            message_passing_program(sync=True),
            lock_increment_program(2),
            lock_increment_program(2, ttas=True),
        ):
            assert check_program(program, DRF0_MODEL).obeys
            assert check_program(program, DRF1_MODEL).obeys

    def test_report_bool_protocol(self):
        assert check_program(message_passing_program(sync=True))
        assert not check_program(racy_program())

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


class TestSampledVerdicts:
    def test_sampled_finds_blatant_race(self):
        report = check_program_sampled(racy_program(), seeds=range(10))
        assert not report.obeys
        assert not report.complete

    def test_sampled_clean_on_race_free_program(self):
        report = check_program_sampled(
            lock_increment_program(3), seeds=range(10)
        )
        assert report.obeys
        assert not report.complete  # sampling is never definitive


def _spin_forever_program():
    """P0 reads x forever; P1 stores x.  No execution halts."""
    p0 = ThreadBuilder().label("spin").load("r0", "x").jump("spin")
    p1 = ThreadBuilder().store("x", 1)
    return build_program([p0, p1], name="spin-forever")


def _interleaving_verdict(program, model) -> bool:
    """The oracle: every interleaving, race-checked, first race wins."""
    config = ExplorationConfig(max_ops=400)
    for execution in _all_interleavings(program, config):
        if races_in_execution_vc(execution, model):
            return False
    return True


def _differential_corpus():
    programs = [test.program for test in all_tests()]
    programs += [
        WORKLOAD_FACTORIES[name]()
        for name in ("lock", "critical_section", "prodcons")
    ]
    programs += [
        barrier_workload(2, 1),
        lock_workload(2, 2),
        figure3_program(),
        figure3_program(num_extra_sharers=1),
        figure3_program(release_work=2),
    ]
    programs += [random_program(seed) for seed in range(200)]
    return programs


BOTH_MODELS = pytest.mark.parametrize(
    "model", [DRF0_MODEL, DRF1_MODEL], ids=["DRF0", "DRF1"]
)


class TestConfigurationSearch:
    """The configuration search against the interleaving oracle."""

    @BOTH_MODELS
    def test_agrees_with_every_interleaving(self, model):
        disagreements = [
            program.name
            for program in _differential_corpus()
            if check_program(program, model).obeys
            != _interleaving_verdict(program, model)
        ]
        assert disagreements == []

    @BOTH_MODELS
    def test_witness_ends_in_the_reported_race(self, model):
        racy = 0
        for program in _differential_corpus():
            report = check_program(program, model)
            if report.obeys:
                continue
            racy += 1
            ops = report.witness.ops
            race = report.race
            assert (ops[-2], ops[-1]) == (race.first, race.second)
            assert race in races_in_execution(report.witness, model)
        assert racy > 0

    @BOTH_MODELS
    def test_race_in_a_never_halting_program(self, model):
        report = check_program(_spin_forever_program(), model)
        assert not report.obeys
        assert report.executions_checked == 0
        assert {report.race.first.proc, report.race.second.proc} == {0, 1}

    @pytest.mark.parametrize("name", ["workqueue", "phases"])
    def test_spin_heavy_workloads_finish(self, name):
        report = check_program(WORKLOAD_FACTORIES[name]())
        assert report.obeys and report.complete

    def test_configurations_counted_once(self):
        report = check_program(WORKLOAD_FACTORIES["barrier"]())
        assert report.obeys
        assert report.stats.states == report.stats.peak_visited == 331

    def test_max_ops_cut_reports_incomplete(self):
        program = WORKLOAD_FACTORIES["barrier"]()
        report = check_program(
            program, config=ExplorationConfig(max_ops=5, allow_incomplete=True)
        )
        assert report.obeys and not report.complete
        with pytest.raises(ExplorationCapError):
            check_program(program, config=ExplorationConfig(max_ops=5))

    def test_max_states_cut_reports_incomplete(self):
        program = WORKLOAD_FACTORIES["barrier"]()
        report = check_program(
            program,
            config=ExplorationConfig(max_states=10, allow_incomplete=True),
        )
        assert report.obeys and not report.complete
        assert report.stats.states == 10
        with pytest.raises(ExplorationCapError):
            check_program(program, config=ExplorationConfig(max_states=10))
