"""Tests for delay-set analysis and the verification harnesses."""

import itertools
import random

import pytest

from repro.analysis import analyze, delay_pairs_for
from repro.analysis.delay_sets import delay_graph, simple_cycles
from repro.axiomatic import UnsupportedProgram
from repro.axiomatic.events import extract_events
from repro.core.types import OpKind
from repro.hw import AdveHillPolicy, Definition1Policy, RelaxedPolicy, SCPolicy
from repro.litmus.catalog import (
    all_tests,
    dekker_sync,
    independent_writes,
    message_passing,
    store_buffer,
)
from repro.machine.dsl import ThreadBuilder, build_program
from repro.sim.system import SystemConfig, run_on_hardware
from repro.verify import (
    check_conditions,
    contract_sweep,
    definition2_sweep,
)

from helpers import lock_increment_program, message_passing_program, store_buffer_program


class TestDelaySets:
    def test_sb_needs_both_delays(self):
        analysis = analyze(store_buffer().program)
        assert len(analysis.delay_pairs) == 2
        events = analysis.events
        for a, b in analysis.delay_pairs:
            assert events[a].proc == events[b].proc
            assert events[a].po_index < events[b].po_index

    def test_mp_needs_both_delays(self):
        assert len(delay_pairs_for(message_passing().program)) == 2

    def test_disjoint_needs_none(self):
        assert analyze(independent_writes().program).needs_no_delays

    def test_single_thread_needs_none(self):
        program = build_program(
            [ThreadBuilder().store("x", 1).load("r", "x").store("y", 2)]
        )
        assert analyze(program).needs_no_delays

    def test_sync_accesses_also_analyzed(self):
        """Delay sets are model-agnostic: sync SB still has critical cycles
        (the hardware must order those accesses -- which Definition 1 and
        the paper's implementation both do, via sync handling)."""
        assert len(delay_pairs_for(dekker_sync().program)) == 2

    def test_describe_is_readable(self):
        lines = analyze(store_buffer().program).describe()
        assert len(lines) == 2
        assert all("must complete before" in line for line in lines)

    def test_critical_cycles_recorded(self):
        analysis = analyze(store_buffer().program)
        assert analysis.critical_cycles


def _brute_force_cycles(successors, max_length):
    """Every node sequence closing into a cycle, from its smallest node."""
    cycles = set()
    for start in successors:
        larger = [node for node in successors if node > start]
        for extra in range(max_length):
            for rest in itertools.permutations(larger, extra):
                path = (start,) + rest
                if all(
                    b in successors[a]
                    for a, b in zip(path, path[1:] + path[:1])
                ):
                    cycles.add(path)
    return cycles


def _assert_cycles_match(successors, max_length):
    found = list(simple_cycles(successors, max_length))
    assert len(found) == len(set(found))  # each cycle once
    assert set(found) == _brute_force_cycles(successors, max_length)


class TestSimpleCycles:
    def test_catalog_delay_graphs(self):
        checked = 0
        for test in all_tests():
            try:
                events = extract_events(test.program)
            except UnsupportedProgram:
                continue
            successors, _po = delay_graph(events)
            for max_length in (2, 3, 8):
                _assert_cycles_match(successors, max_length)
            checked += 1
        assert checked >= 10

    def test_random_digraphs(self):
        # Up to 7 nodes, self-loops included, every bound from 1 up.
        rng = random.Random(0)
        for _ in range(200):
            size = rng.randint(1, 7)
            density = rng.choice((0.2, 0.4, 0.7))
            successors = {
                node: [n for n in range(size) if rng.random() < density]
                for node in range(size)
            }
            _assert_cycles_match(successors, rng.randint(1, size))


class TestConditionMonitor:
    def test_adve_hill_satisfies_all_conditions(self):
        for program in (
            message_passing_program(sync=True),
            lock_increment_program(2),
        ):
            for seed in range(8):
                run = run_on_hardware(program, AdveHillPolicy(), SystemConfig(seed=seed))
                report = check_conditions(run)
                assert report.ok, report.violations

    def test_sc_satisfies_conditions_trivially(self):
        run = run_on_hardware(
            lock_increment_program(2), SCPolicy(), SystemConfig(seed=0)
        )
        assert check_conditions(run).ok

    def test_relaxed_hardware_violates_condition4(self):
        """The relaxed strawman generates past uncommitted syncs."""
        program = build_program(
            [
                ThreadBuilder().unset("s").store("x", 1),
                ThreadBuilder().load("r", "x"),
            ],
            initial_memory={"s": 1},
            name="sync-then-write",
        )
        violated = False
        for seed in range(20):
            run = run_on_hardware(program, RelaxedPolicy(), SystemConfig(seed=seed))
            report = check_conditions(run)
            if report.violations.get("condition4"):
                violated = True
                break
        assert violated

    def test_report_ok_property(self):
        run = run_on_hardware(
            lock_increment_program(2), AdveHillPolicy(), SystemConfig(seed=0)
        )
        report = check_conditions(run)
        assert bool(report.ok) is True
        report.add("condition2", "synthetic")
        assert not report.ok


class TestSweeps:
    def test_contract_sweep_clean_for_weak_hardware_on_drf0(self):
        report = contract_sweep(
            message_passing_program(sync=True),
            AdveHillPolicy,
            seeds=range(10),
            check_51_conditions=True,
        )
        assert report.appears_sc
        assert not report.condition_violations
        assert report.mean_cycles > 0

    def test_contract_sweep_detects_relaxed_violation(self):
        report = contract_sweep(
            store_buffer_program(), RelaxedPolicy, seeds=range(40)
        )
        assert not report.appears_sc
        assert report.non_sc_results

    def test_definition2_sweep_table(self):
        evidence = definition2_sweep(
            [message_passing_program(sync=True), store_buffer_program()],
            {"adve-hill": AdveHillPolicy, "definition1": Definition1Policy},
            seeds=range(8),
            exhaustive_drf0=True,
        )
        assert len(evidence.rows) == 4
        assert evidence.contract_holds
        drf_flags = {row["program"]: row["program_drf0"] for row in evidence.rows}
        assert drf_flags["mp-sync"] is True
        assert drf_flags["store-buffer"] is False
