"""Tests for the idealized sequentially consistent architecture."""

import pytest

from repro.core.contract import ContractSearchLimit
from repro.core.execution import Result
from repro.core.sc import (
    ExplorationCapError,
    ExplorationConfig,
    ExplorationIncomplete,
    explore,
    random_sc_execution,
    sc_executions,
    sc_results,
)
from repro.core.types import Condition, OpKind
from repro.machine.dsl import ThreadBuilder, build_program
from repro.machine.generator import GeneratorConfig, random_program

from helpers import (
    lock_increment_program,
    message_passing_program,
    store_buffer_program,
)


class TestStoreBuffer:
    """The paper's Figure-1 litmus on the idealized architecture."""

    def test_exactly_three_results(self):
        results = sc_results(store_buffer_program())
        observed = {(r.reads[0][0], r.reads[1][0]) for r in results}
        assert observed == {(0, 1), (1, 0), (1, 1)}

    def test_forbidden_outcome_absent(self):
        """Sequential consistency forbids r1 == r2 == 0 (both killed)."""
        results = sc_results(store_buffer_program())
        assert all(not (r.reads[0][0] == 0 and r.reads[1][0] == 0) for r in results)

    def test_final_memory_always_one_one(self):
        for result in sc_results(store_buffer_program()):
            assert result.memory_value("x") == 1
            assert result.memory_value("y") == 1

    def test_execution_count_without_dedup(self):
        # 4 operations, 2 per thread: C(4,2) = 6 interleavings.
        executions = sc_executions(store_buffer_program())
        assert len(executions) == 6


class TestSingleThread:
    def test_deterministic_program_single_result(self):
        program = build_program(
            [ThreadBuilder().store("x", 3).load("r0", "x").store("y", "r0")]
        )
        results = sc_results(program)
        assert len(results) == 1
        (result,) = results
        assert result.reads == ((3,),)
        assert result.memory_value("y") == 3

    def test_empty_program(self):
        from repro.machine.program import Program

        program = Program.make([[]], name="empty")
        results = sc_results(program)
        assert len(results) == 1
        (result,) = results
        assert result.reads == ((),)

    def test_uniprocessor_program_order_respected(self):
        """Reads observe the latest program-order write (uniproc semantics)."""
        program = build_program(
            [
                ThreadBuilder()
                .store("x", 1)
                .load("a", "x")
                .store("x", 2)
                .load("b", "x")
            ]
        )
        (result,) = sc_results(program)
        assert result.reads == ((1, 2),)


class TestAtomicity:
    def test_test_and_set_mutual_exclusion(self):
        """Exactly one of two competing TestAndSets can win."""
        t = lambda: ThreadBuilder().test_and_set("r0", "lock")
        program = build_program([t(), t()], name="tas-race")
        winners = set()
        for result in sc_results(program):
            got0, got1 = result.reads[0][0], result.reads[1][0]
            winners.add((got0, got1))
        # One processor reads 0 (wins), the other reads 1 -- never both 0.
        assert winners == {(0, 1), (1, 0)}

    def test_rmw_read_and_write_atomic(self):
        """A TestAndSet never observes a value that was already overwritten."""
        program = build_program(
            [
                ThreadBuilder().test_and_set("r0", "s", set_value=2),
                ThreadBuilder().test_and_set("r1", "s", set_value=3),
            ]
        )
        for result in sc_results(program):
            final = result.memory_value("s")
            r0, r1 = result.reads[0][0], result.reads[1][0]
            # the loser's read must see the winner's set value
            assert sorted([r0, r1])[0] == 0
            assert final in (2, 3)
            if r0 == 0 and r1 == 2:
                assert final == 3
            if r1 == 0 and r0 == 3:
                assert final == 2


class TestSpinLoops:
    def test_message_passing_sync_only_sc_value(self):
        """After the flag flips, the consumer always reads the data."""
        program = message_passing_program(sync=True)
        results = sc_results(program)
        for result in results:
            # Last read is the data read; must be 42 once flag observed 0.
            assert result.reads[1][-1] == 42

    def test_lock_program_counter_always_two(self):
        results = sc_results(lock_increment_program(2))
        assert {r.memory_value("count") for r in results} == {2}

    def test_exploration_terminates_with_cycle_pruning(self):
        exploration = explore(lock_increment_program(2))
        assert exploration.complete
        assert exploration.executions


class TestCapsAndConfig:
    def test_max_executions_cap_reported(self):
        cfg = ExplorationConfig(max_executions=2)
        exploration = explore(store_buffer_program(), cfg)
        assert len(exploration.executions) == 2
        assert not exploration.complete

    def test_max_ops_raises_without_allow_incomplete(self):
        # Unbounded producer: a thread that increments x forever.
        t = (
            ThreadBuilder()
            .label("top")
            .load("r", "x")
            .add("r", "r", 1)
            .store("x", "r")
            .jump("top")
        )
        program = build_program([t], name="unbounded")
        with pytest.raises(ExplorationIncomplete):
            explore(program, ExplorationConfig(max_ops=10))

    def test_max_ops_tolerated_with_allow_incomplete(self):
        t = (
            ThreadBuilder()
            .label("top")
            .load("r", "x")
            .add("r", "r", 1)
            .store("x", "r")
            .jump("top")
        )
        program = build_program([t], name="unbounded")
        exploration = explore(
            program, ExplorationConfig(max_ops=10, allow_incomplete=True)
        )
        assert not exploration.complete


class TestCapError:
    def test_alias_and_subclass(self):
        assert ExplorationIncomplete is ExplorationCapError
        assert issubclass(ContractSearchLimit, ExplorationCapError)

    def test_serial_cap_carries_states(self):
        program = random_program(
            0, GeneratorConfig(max_threads=3, max_ops_per_thread=4)
        )
        with pytest.raises(ExplorationCapError) as excinfo:
            sc_results(program, ExplorationConfig(max_states=3))
        assert excinfo.value.states is not None
        assert excinfo.value.states > 3
        assert "states=" in str(excinfo.value)


class TestRandomExecution:
    def test_random_execution_result_is_in_sc_set(self):
        program = store_buffer_program()
        results = sc_results(program)
        for seed in range(20):
            execution = random_sc_execution(program, seed)
            assert execution.result() in results

    def test_random_execution_reproducible_by_seed(self):
        program = store_buffer_program()
        a = random_sc_execution(program, 7)
        b = random_sc_execution(program, 7)
        assert a.ops == b.ops

    def test_trace_uids_are_completion_indices(self):
        execution = random_sc_execution(store_buffer_program(), 3)
        assert [op.uid for op in execution.ops] == list(range(len(execution.ops)))

    def test_po_indices_per_processor(self):
        execution = random_sc_execution(lock_increment_program(2), 11)
        for proc in range(2):
            indices = [op.po_index for op in execution.ops_of(proc)]
            assert indices == sorted(indices)
            assert len(set(indices)) == len(indices)


class TestExecutionAccessors:
    def test_result_reads_in_program_order(self):
        program = build_program(
            [ThreadBuilder().load("a", "x").load("b", "y")],
            initial_memory={"x": 1, "y": 2},
        )
        (result,) = sc_results(program)
        assert result.reads == ((1, 2),)

    def test_writes_to_and_sync_ops(self):
        execution = random_sc_execution(lock_increment_program(2), 0)
        syncs = execution.sync_ops()
        assert syncs and all(op.is_sync for op in syncs)
        writes = execution.writes_to("count")
        assert all(op.has_write and op.location == "count" for op in writes)

    def test_memory_value_missing_location_raises(self):
        (result,) = sc_results(build_program([ThreadBuilder().store("x", 1)]))
        with pytest.raises(KeyError):
            result.memory_value("nope")
