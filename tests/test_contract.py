"""Tests for the Definition-2 contract checker (appears sequentially consistent)."""

import contextlib

import pytest

from repro.core.compile import interpreted_engine, make_engine
from repro.core.contract import (
    ContractSearchLimit,
    _fold_rereads,
    appears_sc,
    check_weak_ordering,
    is_sc_result,
)
from repro.core.engine_state import ExplorerStats
from repro.core.execution import Result
from repro.core.sc import sc_results
from repro.core.types import Condition, OpKind
from repro.hw import POLICY_FACTORIES
from repro.litmus.catalog import all_tests, by_name
from repro.litmus.figures import figure3_program
from repro.machine.dsl import ThreadBuilder, build_program
from repro.machine.generator import GeneratorConfig, random_program
from repro.sim.system import SystemConfig, run_on_hardware
from repro.workloads import barrier_workload, lock_workload

from helpers import (
    lock_increment_program,
    message_passing_program,
    store_buffer_program,
)


class TestMembership:
    def test_every_enumerated_result_is_a_member(self):
        program = store_buffer_program()
        for result in sc_results(program):
            assert is_sc_result(program, result)

    def test_forbidden_store_buffer_outcome_rejected(self):
        program = store_buffer_program()
        forbidden = Result.build([[0], [0]], {"x": 1, "y": 1})
        assert not is_sc_result(program, forbidden)

    def test_wrong_final_memory_rejected(self):
        program = store_buffer_program()
        bad = Result.build([[1], [1]], {"x": 0, "y": 1})
        assert not is_sc_result(program, bad)

    def test_wrong_read_count_rejected(self):
        program = store_buffer_program()
        bad = Result.build([[1, 1], [1]], {"x": 1, "y": 1})
        assert not is_sc_result(program, bad)

    def test_wrong_proc_count_rejected(self):
        program = store_buffer_program()
        bad = Result.build([[1]], {"x": 1, "y": 1})
        assert not is_sc_result(program, bad)

    def test_wrong_location_set_rejected(self):
        program = store_buffer_program()
        bad = Result.build([[1], [1]], {"x": 1, "y": 1, "z": 0})
        assert not is_sc_result(program, bad)

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
        program = random_program(
            seed, GeneratorConfig(max_threads=3, max_ops_per_thread=4)
        )
        results = sorted(sc_results(program), key=repr)
        for result in results[:3]:
            assert is_sc_result(program, result)


class TestSpinPrograms:
    """Membership must handle unbounded spin histories."""

    def test_pumped_spin_history_is_member(self):
        program = message_passing_program(sync=True)
        # Consumer spun four times (flag still 1) before observing 0, then
        # read data=42.  No finite enumeration contains this, but it is SC.
        pumped = Result.build([[], [1, 1, 1, 1, 0, 42]], {"data": 42, "flag": 0})
        assert is_sc_result(program, pumped)

    def test_minimal_spin_history_is_member(self):
        program = message_passing_program(sync=True)
        minimal = Result.build([[], [0, 42]], {"data": 42, "flag": 0})
        assert is_sc_result(program, minimal)

    def test_stale_data_after_flag_rejected(self):
        """Reading flag==0 then data==0 is not SC for the synchronized MP."""
        program = message_passing_program(sync=True)
        stale = Result.build([[], [0, 0]], {"data": 42, "flag": 0})
        assert not is_sc_result(program, stale)

    def test_lock_program_pumped_acquire(self):
        program = lock_increment_program(2)
        # P1 failed the TestAndSet twice before succeeding.
        pumped = Result.build(
            [[0, 0], [1, 1, 0, 1]], {"lock": 0, "count": 2}
        )
        assert is_sc_result(program, pumped)

    def test_lock_program_lost_update_rejected(self):
        program = lock_increment_program(2)
        lost = Result.build([[0, 0], [0, 0]], {"lock": 0, "count": 1})
        assert not is_sc_result(program, lost)


class TestAppearsSC:
    def test_clean_batch(self):
        program = store_buffer_program()
        report = appears_sc(program, sc_results(program))
        assert report.appears_sc
        assert report.results_checked == 3
        assert not report.violations

    def test_batch_with_violation(self):
        program = store_buffer_program()
        observed = list(sc_results(program)) + [
            Result.build([[0], [0]], {"x": 1, "y": 1})
        ]
        report = appears_sc(program, observed)
        assert not report.appears_sc
        assert len(report.violations) == 1

    def test_duplicate_results_checked_once(self):
        program = store_buffer_program()
        result = next(iter(sc_results(program)))
        report = appears_sc(program, [result, result, result])
        assert report.results_checked == 1

    def test_report_bool_protocol(self):
        program = store_buffer_program()
        assert appears_sc(program, sc_results(program))


class TestWeakOrderingVerdict:
    def test_racy_program_non_sc_results_are_permitted(self):
        """Definition 2 places no obligation on racy programs."""
        program = store_buffer_program()  # violates DRF0
        non_sc = Result.build([[0], [0]], {"x": 1, "y": 1})
        verdict = check_weak_ordering(program, program_obeys_model=False,
                                      observed_results=[non_sc])
        assert not verdict.contract.appears_sc
        assert verdict.hardware_ok  # permitted: the premise fails

    def test_model_obeying_program_with_sc_results_ok(self):
        program = message_passing_program(sync=True)
        good = Result.build([[], [0, 42]], {"data": 42, "flag": 0})
        verdict = check_weak_ordering(program, True, [good])
        assert verdict.hardware_ok

    def test_model_obeying_program_with_non_sc_result_fails(self):
        program = message_passing_program(sync=True)
        bad = Result.build([[], [0, 0]], {"data": 42, "flag": 0})
        verdict = check_weak_ordering(program, True, [bad])
        assert not verdict.hardware_ok


class TestSearchLimits:
    def test_state_budget_enforced(self):
        program = lock_increment_program(3)
        pumped = Result.build(
            [[0, 0], [1, 0, 1], [1, 1, 0, 2]], {"lock": 0, "count": 3}
        )
        with pytest.raises(ContractSearchLimit):
            is_sc_result(program, pumped, max_states=5)


# ----------------------------------------------------------------------
# The re-read fold
# ----------------------------------------------------------------------


def _unfolded_is_sc_result(program, result) -> bool:
    """The guided search with every read its own transition: the
    reference the folded :func:`is_sc_result` must agree with."""
    if len(result.reads) != program.num_procs:
        return False
    expected_reads = [tuple(values) for values in result.reads]
    if set(dict(result.final_memory)) != set(program.initial_memory):
        return False
    expected_memory = tuple(sorted(result.final_memory))
    engine = make_engine(program, record_trace=False)
    visited = set()

    def dfs() -> bool:
        runnable = engine.runnable()
        if not runnable:
            if engine.read_counts() != tuple(len(r) for r in expected_reads):
                return False
            return engine.final_memory() == expected_memory
        key = (engine.config_key(), engine.read_counts())
        if key in visited:
            return False
        visited.add(key)
        for proc in runnable:
            request = engine.pending(proc)
            if request.kind.has_read:
                pos = len(engine.reads[proc])
                if pos >= len(expected_reads[proc]):
                    continue
                value = engine.read_value(request.location)
                if value != expected_reads[proc][pos]:
                    continue
            engine.step(proc)
            try:
                if dfs():
                    return True
            finally:
                engine.undo()
        return False

    return dfs()


def _mutants(result: Result):
    """Per processor: its first read repeated, or changed.

    (Mutating the last read instead makes most barrier results non-SC
    only at the end of the history, where the unfolded reference needs
    about 0.35 s each to refute them.)
    """
    for proc, reads in enumerate(result.reads):
        if not reads:
            continue
        for values in (reads[:1] + reads, (reads[0] + 1,) + reads[1:]):
            yield Result(
                result.reads[:proc] + (values,) + result.reads[proc + 1 :],
                result.final_memory,
            )


def _simulated_cases():
    """Distinct simulator results (``relaxed`` supplies non-SC ones) of
    the catalog, the spin workloads and 60 generated programs under all
    six policies, plus their one-read mutants."""
    programs = [test.program for test in all_tests()]
    programs += [
        lock_workload(3, 1),
        lock_workload(3, 1, ttas=True),
        barrier_workload(num_procs=3, phases=1),
        figure3_program(num_extra_sharers=2, post_release_work=80),
    ]
    programs += [random_program(seed) for seed in range(60)]
    cases = []
    for program in programs:
        observed = set()
        for _name, factory in sorted(POLICY_FACTORIES.items()):
            for seed in range(3):
                run = run_on_hardware(
                    program, factory(), SystemConfig(seed=seed)
                )
                observed.add(run.result)
        judged = set()
        for result in sorted(observed, key=repr):
            for case in (result, *_mutants(result)):
                if case not in judged:
                    judged.add(case)
                    cases.append((program, case))
    return cases


ENGINES = pytest.mark.parametrize(
    "engine_mode",
    [contextlib.nullcontext, interpreted_engine],
    ids=["compiled", "interpreted"],
)


class TestRereadFold:
    def test_agrees_with_unfolded_search(self):
        cases = _simulated_cases()
        expected = [_unfolded_is_sc_result(p, r) for p, r in cases]
        assert expected.count(True) > 200 and expected.count(False) > 200
        for engine_mode in (contextlib.nullcontext, interpreted_engine):
            with engine_mode():
                disagreements = [
                    (program.name, result, want)
                    for (program, result), want in zip(cases, expected)
                    if is_sc_result(program, result) != want
                ]
            assert disagreements == [], engine_mode.__name__

    def test_spin_count_does_not_grow_the_search(self):
        program = by_name("MP+sync").program
        visited = []
        for spins in range(1, 9):
            pumped = Result(
                reads=((), (1,) * spins + (0, 1)),
                final_memory=(("flag", 0), ("x", 1)),
            )
            stats = ExplorerStats()
            assert is_sc_result(program, pumped, stats=stats)
            visited.append(stats.states)
        assert len(set(visited)) == 1, visited

    @ENGINES
    def test_winning_test_and_set_is_not_folded(self, engine_mode):
        # P0's Test reads 0 and its TestAndSet would read 0 too, but the
        # win writes 1: the tentative step is undone, not absorbed.
        with engine_mode():
            engine = make_engine(lock_increment_program(2, ttas=True))
        engine.step(0)
        assert _fold_rereads(engine, 0, "lock", 0, (0, 0)) == 0
        assert engine.depth == 1
        assert engine.read_value("lock") == 0
        assert engine.pending(0).kind is OpKind.SYNC_RMW

    @ENGINES
    def test_failed_spins_are_folded(self, engine_mode):
        # P1 holds the lock; P0's Test reads 1 three times, then 0.
        with engine_mode():
            engine = make_engine(lock_increment_program(2, ttas=True))
        engine.step(1)  # P1's Test reads 0
        engine.step(1)  # P1's TestAndSet wins
        engine.step(0)  # P0's first Test reads 1
        assert _fold_rereads(engine, 0, "lock", 1, (1, 1, 1, 0, 0)) == 2
        assert engine.reads[0] == (1, 1, 1)
