"""Differential tests: the in-place do/undo engine vs the frozen legacy
snapshot explorers (:mod:`repro.core._legacy`) and the axiomatic SC model.

The E10 refactor replaced the copy-everything inner loops of the
enumerator, the membership search and the DRF0 checker with one shared
engine.  These tests pin the refactor's contract: **bit-identical
observable answers** -- SC result sets, DRF0 race verdicts, and
``complete`` flags -- across the full litmus catalog and hundreds of
generated programs, including the cap-hit paths under
``allow_incomplete``.  Each SC result set is checked three ways: the
engine, the legacy enumerator and the axiomatic SC model.
"""

import pytest

from repro.axiomatic import SCModel, allowed_results
from repro.core._legacy import (
    legacy_check_program,
    legacy_explore,
    legacy_is_sc_result,
)
from repro.core.compile import interpreted_engine, make_engine
from repro.core.contract import is_sc_result
from repro.core.drf0 import check_program
from repro.core.sc import (
    ExplorationConfig,
    ExplorationIncomplete,
    explore,
    sc_executions,
    sc_results,
)
from repro.litmus.catalog import all_tests, by_name, iriw
from repro.machine.dsl import ThreadBuilder, build_program
from repro.machine.generator import random_program
from repro.core.types import Condition

CATALOG = all_tests()
STRAIGHT_TESTS = [t for t in CATALOG if t.program.is_straight_line()]


# ---------------------------------------------------------------------------
# Litmus catalog
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("test", CATALOG, ids=lambda t: t.name)
def test_catalog_naive_matches_legacy(test):
    """Same result sets, execution counts, and complete flags, per test."""
    for cfg in (ExplorationConfig(dedup=True), ExplorationConfig(dedup=False)):
        new = explore(test.program, cfg)
        old = legacy_explore(test.program, cfg)
        assert new.results == old.results
        assert new.complete == old.complete
        assert len(new.executions) == len(old.executions)


@pytest.mark.parametrize("test", STRAIGHT_TESTS, ids=lambda t: t.name)
def test_catalog_axiomatic_sc_matches_naive(test):
    """The axiomatic SC model admits exactly the enumerator's results."""
    assert allowed_results(test.program, SCModel()) == sc_results(test.program)


@pytest.mark.parametrize("test", STRAIGHT_TESTS, ids=lambda t: t.name)
def test_catalog_drf0_verdicts_agree(test):
    """Every checker variant returns the catalog's recorded DRF0 verdict."""
    assert check_program(test.program).obeys == test.drf0
    assert legacy_check_program(test.program).obeys == test.drf0


@pytest.mark.parametrize("test", STRAIGHT_TESTS[:4], ids=lambda t: t.name)
def test_catalog_contract_membership_matches_legacy(test):
    """The guided SC-membership search agrees with its snapshot ancestor."""
    for result in sorted(sc_results(test.program), key=repr):
        assert is_sc_result(test.program, result)
        assert legacy_is_sc_result(test.program, result)


# ---------------------------------------------------------------------------
# Generated programs (>= 200 seeds, deterministic)
# ---------------------------------------------------------------------------


def test_generated_programs_all_explorers_agree():
    """One sweep over 200 seeded random programs, every explorer variant.

    Asserts, per program: equal SC result sets from the engine, the
    legacy enumerator and the axiomatic SC model; equal ``complete``
    flags; and equal DRF0 verdicts from the engine and legacy checkers.
    """
    for seed in range(200):
        program = random_program(seed)
        cfg = ExplorationConfig(dedup=True)
        new = explore(program, cfg)
        old = legacy_explore(program, cfg)
        assert new.results == old.results, f"seed {seed}: result sets differ"
        assert new.complete == old.complete, f"seed {seed}: complete differs"
        assert allowed_results(program, SCModel()) == new.results, (
            f"seed {seed}: axiomatic SC"
        )
        assert (
            check_program(program).obeys
            == legacy_check_program(program).obeys
        ), f"seed {seed}: DRF0 verdicts disagree"


# ---------------------------------------------------------------------------
# Compiled vs interpreted engine (three-way with legacy)
# ---------------------------------------------------------------------------
#
# The compiled engine (specialized step closures + packed int state,
# :mod:`repro.core.compile`) is the default; ``interpreted_engine()``
# forces the original :class:`EngineState`.  The contract is *bit
# identity*: not just equal result sets but equal execution traces
# (operation for operation) and equal exploration counters, because the
# packed configuration keys must merge/cut exactly the same nodes the
# interpreted keys do.


def _explore_both_engines(program, cfg):
    compiled = explore(program, cfg)
    with interpreted_engine():
        interpreted = explore(program, cfg)
    return compiled, interpreted


def _assert_bit_identical(compiled, interpreted, label):
    assert compiled.results == interpreted.results, label
    assert compiled.complete == interpreted.complete, label
    assert compiled.executions == interpreted.executions, label
    assert compiled.stats.states == interpreted.stats.states, label
    assert compiled.stats.executions == interpreted.stats.executions, label
    assert compiled.stats.transitions == interpreted.stats.transitions, label
    assert compiled.stats.max_depth == interpreted.stats.max_depth, label


@pytest.mark.parametrize("test", CATALOG, ids=lambda t: t.name)
def test_catalog_compiled_engine_bit_identical(test):
    """Catalog: compiled == interpreted on traces, results, and counters."""
    for cfg in (ExplorationConfig(dedup=True), ExplorationConfig(dedup=False)):
        compiled, interpreted = _explore_both_engines(test.program, cfg)
        _assert_bit_identical(compiled, interpreted, test.name)


def test_generated_programs_compiled_engine_bit_identical():
    """200 seeded programs: compiled == interpreted, dedup on and off,
    plus equal DRF0 verdicts/witnesses."""
    for seed in range(200):
        program = random_program(seed)
        for cfg in (
            ExplorationConfig(dedup=True),
            ExplorationConfig(dedup=False),
        ):
            compiled, interpreted = _explore_both_engines(program, cfg)
            _assert_bit_identical(compiled, interpreted, f"seed {seed}")
        report_compiled = check_program(program)
        with interpreted_engine():
            report_interpreted = check_program(program)
        assert report_compiled.obeys == report_interpreted.obeys, f"seed {seed}"
        assert report_compiled.race == report_interpreted.race, f"seed {seed}"
        assert report_compiled.witness == report_interpreted.witness, (
            f"seed {seed}"
        )
        assert (
            report_compiled.executions_checked
            == report_interpreted.executions_checked
        ), f"seed {seed}"


def test_compiled_engine_cap_hits_bit_identical():
    """Cap-hit paths truncate at the same node on both engines."""
    program = iriw().program
    for cfg in (
        ExplorationConfig(dedup=False, max_executions=5, allow_incomplete=True),
        ExplorationConfig(dedup=False, max_ops=3, allow_incomplete=True),
        ExplorationConfig(dedup=True, max_states=10, allow_incomplete=True),
    ):
        compiled, interpreted = _explore_both_engines(program, cfg)
        _assert_bit_identical(compiled, interpreted, repr(cfg))


def test_compiled_engine_spin_loop_cycle_pruning_identical():
    """Packed keys cut livelock cycles at the same nodes as nested keys."""
    spin = build_program(
        [
            ThreadBuilder().label("s").test_and_set("r", "l").branch_if(
                Condition.NE, "r", 0, "s"
            ).store("x", 1),
            ThreadBuilder().load("r2", "x").sync_store("l", 0),
        ],
        initial_memory={"l": 1, "x": 0},
        name="spin-release",
    )
    cfg = ExplorationConfig(dedup=True)
    compiled, interpreted = _explore_both_engines(spin, cfg)
    _assert_bit_identical(compiled, interpreted, "spin-release")


def test_step_semantics_match_execute_atomically():
    """Differential: the engines' inlined memory semantics against the
    reference :func:`execute_atomically` on the same request stream.

    Both engines inline read/write application instead of calling the
    dict-based helper; this pins the three implementations to each other
    on every operation of a random-schedule walk over generated programs.
    """
    import random

    from repro.core.engine_state import execute_atomically
    from repro.machine.interpreter import MemRequest

    for engine_ctx in (None, interpreted_engine):
        for seed in range(40):
            program = random_program(seed)
            if engine_ctx is None:
                engine = make_engine(program)
            else:
                with engine_ctx():
                    engine = make_engine(program)
            memory = dict(program.initial_memory)
            rng = random.Random(seed)
            while True:
                runnable = engine.runnable()
                if not runnable:
                    break
                proc = rng.choice(runnable)
                request = engine.pending(proc)
                op = engine.step(proc)
                # The reference semantics, applied to a shadow memory;
                # the request is rebuilt from the executed op because the
                # compiled engine's pending requests carry no write value.
                ref_read, ref_written = execute_atomically(
                    memory,
                    MemRequest(
                        instr=request.instr,
                        kind=op.kind,
                        location=op.location,
                        write_value=(
                            op.value_written if op.kind.has_write else None
                        ),
                    ),
                )
                assert op.value_read == ref_read
                assert op.value_written == ref_written
            assert dict(engine.final_memory()) == memory


# ---------------------------------------------------------------------------
# Cap-hit paths
# ---------------------------------------------------------------------------


def test_execution_cap_allow_incomplete_matches_legacy():
    """Both sides truncate identically under a max_executions cap."""
    program = iriw().program
    full = sc_results(program)
    cfg = ExplorationConfig(
        dedup=False, max_executions=5, allow_incomplete=True
    )
    new = explore(program, cfg)
    old = legacy_explore(program, cfg)
    assert not new.complete and not old.complete
    assert len(new.executions) == len(old.executions) == 5
    # Same DFS order on both sides: identical truncated answer.
    assert new.results == old.results
    assert new.results <= full


def test_max_ops_cap_allow_incomplete_matches_legacy():
    """A depth cap with allow_incomplete returns partial, equal answers."""
    program = by_name("SB").program
    cfg = ExplorationConfig(dedup=False, max_ops=2, allow_incomplete=True)
    new = explore(program, cfg)
    old = legacy_explore(program, cfg)
    assert not new.complete and not old.complete
    assert new.results == old.results


def test_max_ops_cap_raises_without_allow_incomplete():
    program = by_name("SB").program
    cfg = ExplorationConfig(max_ops=2)
    with pytest.raises(ExplorationIncomplete):
        explore(program, cfg)
    with pytest.raises(ExplorationIncomplete):
        legacy_explore(program, cfg)


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------


def test_sc_results_does_not_mutate_caller_config():
    cfg = ExplorationConfig(dedup=False, collect_executions=True)
    sc_results(by_name("SB").program, cfg)
    assert cfg.dedup is False and cfg.collect_executions is True


def test_sc_executions_does_not_mutate_caller_config():
    cfg = ExplorationConfig(dedup=True, collect_executions=False)
    sc_executions(by_name("SB").program, cfg)
    assert cfg.dedup is True and cfg.collect_executions is False


def test_states_counted_without_dedup():
    """``stats['states']`` counts expanded nodes even with dedup off."""
    exploration = explore(by_name("SB").program, ExplorationConfig(dedup=False))
    assert exploration.states_visited > 0
    assert exploration.stats.states == exploration.states_visited
    assert exploration.stats.transitions > 0
    assert exploration.stats.max_depth == 4  # SB: 2 threads x 2 ops
