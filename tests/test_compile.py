"""Unit tests for the compiled execution engine (:mod:`repro.core.compile`).

The differential explorer-level tests live in
``test_explorer_equivalence.py``; these pin the engine's own mechanics --
step/undo round-trips, packed-key interning, the reset contract, the
weakref compile cache, and the interpreted-engine fallback paths.
"""

import gc
import random

import pytest

from repro.core.compile import (
    CompiledEngine,
    CompiledRequest,
    _COMPILED,
    compiled_enabled,
    compiled_program,
    interpreted_engine,
    make_engine,
)
from repro.core.engine_state import EngineState
from repro.litmus.catalog import by_name
from repro.machine.generator import random_program


def _random_walk(engine, seed, steps=None):
    """Step the engine along a seeded random schedule; returns step count."""
    rng = random.Random(seed)
    taken = 0
    while steps is None or taken < steps:
        runnable = engine.runnable()
        if not runnable:
            break
        engine.step(rng.choice(runnable))
        taken += 1
    return taken


def _snapshot(engine):
    """Everything observable about the engine's current configuration."""
    return (
        list(engine.S),
        list(engine._pending),
        tuple(engine.reads),
        list(engine.po_counts),
        list(engine.trace),
        engine.depth,
        engine.config_key(),
        engine.reads_key(),
        engine.read_counts(),
        engine.final_memory(),
    )


# ---------------------------------------------------------------------------
# Step/undo mechanics
# ---------------------------------------------------------------------------


def test_step_undo_round_trip_restores_everything():
    """Undoing all steps restores the exact initial configuration."""
    for seed in range(20):
        program = random_program(seed)
        engine = make_engine(program)
        assert isinstance(engine, CompiledEngine)
        before = _snapshot(engine)
        taken = _random_walk(engine, seed, steps=7)
        for _ in range(taken):
            engine.undo()
        after = _snapshot(engine)
        assert before == after, f"seed {seed}"
        # Keys are hash-consed: the restored key is the *same* object.
        assert before[6] is after[6]


def test_interleaved_step_undo_is_lifo_consistent():
    """Partial undos mid-walk land on previously seen configurations."""
    program = by_name("IRIW").program
    engine = make_engine(program)
    rng = random.Random(7)
    seen = [engine.config_key()]
    for _ in range(3):
        for _ in range(4):
            runnable = engine.runnable()
            if not runnable:
                break
            engine.step(rng.choice(runnable))
            seen.append(engine.config_key())
        engine.undo()
        seen.pop()
        assert engine.config_key() == seen[-1]


def test_runnable_tracks_halting_and_revival():
    """A halting step drops the proc from runnable; undo revives it."""
    program = by_name("SB").program  # 2 threads x 2 ops
    engine = make_engine(program)
    assert engine.runnable() == [0, 1]
    engine.step(0)
    engine.step(0)  # thread 0 halts
    assert engine.runnable() == [1]
    engine.undo()
    assert engine.runnable() == [0, 1]


# ---------------------------------------------------------------------------
# Packed keys
# ---------------------------------------------------------------------------


def test_config_keys_are_flat_interned_int_tuples():
    program = by_name("MP").program
    engine = make_engine(program)
    key = engine.config_key()
    assert isinstance(key, tuple)
    assert all(isinstance(v, int) for v in key)
    # Cached until invalidated, and hash-consed across re-derivations.
    assert engine.config_key() is key
    engine.step(0)
    assert engine.config_key() != key
    engine.undo()
    assert engine.config_key() is key


def test_distinct_configurations_get_distinct_keys():
    """The packed key is injective over configurations reached in a walk."""
    for seed in range(10):
        program = random_program(seed)
        engine = make_engine(program)
        if not isinstance(engine, CompiledEngine):
            continue
        rng = random.Random(seed)
        seen = {}
        for _ in range(50):
            runnable = engine.runnable()
            if not runnable:
                break
            key = engine.config_key()
            state = (tuple(engine.S), tuple(engine._pending))
            if key in seen:
                assert seen[key] == state, f"seed {seed}: key collision"
            seen[key] = state
            engine.step(rng.choice(runnable))


# ---------------------------------------------------------------------------
# record_trace=False
# ---------------------------------------------------------------------------


def test_record_trace_false_skips_operations_and_refuses_execution():
    program = by_name("SB").program
    engine = make_engine(program, record_trace=False)
    op = engine.step(0)
    assert op is None
    assert engine.trace == []
    with pytest.raises(RuntimeError):
        engine.execution()
    engine.step(1)
    engine.undo()
    engine.undo()
    assert engine.depth == 0


def test_record_trace_false_still_yields_results():
    program = by_name("SB").program
    engine = make_engine(program, record_trace=False)
    _random_walk(engine, 0)
    assert not engine.runnable()
    result = engine.result()
    assert len(result.reads) == program.num_procs


# ---------------------------------------------------------------------------
# CompiledRequest surface
# ---------------------------------------------------------------------------


def test_compiled_request_exposes_no_write_value():
    """Write values can depend on registers; a static one would be stale.
    Reading it must fail loudly, not return garbage."""
    engine = make_engine(by_name("SB").program)
    request = engine.pending(0)
    assert isinstance(request, CompiledRequest)
    assert request.kind is not None and request.location is not None
    with pytest.raises(AttributeError):
        request.write_value


# ---------------------------------------------------------------------------
# Factory, fallback, and cache
# ---------------------------------------------------------------------------


def test_make_engine_falls_back_when_disabled():
    program = by_name("SB").program
    assert isinstance(make_engine(program), CompiledEngine)
    with interpreted_engine():
        assert not compiled_enabled()
        assert isinstance(make_engine(program), EngineState)
    assert compiled_enabled()
    assert isinstance(make_engine(program), CompiledEngine)


def test_interpreted_engine_restores_flag_on_exception():
    with pytest.raises(ValueError):
        with interpreted_engine():
            raise ValueError("boom")
    assert compiled_enabled()


def test_use_compiled_toggle():
    # The toggle nests: leaving an inner block keeps the outer one's
    # interpreted engine; only the outermost exit turns compilation back on.
    program = by_name("SB").program
    with interpreted_engine():
        with interpreted_engine():
            assert isinstance(make_engine(program), EngineState)
        assert not compiled_enabled()
        assert isinstance(make_engine(program), EngineState)
    assert isinstance(make_engine(program), CompiledEngine)


def test_compiled_program_cached_per_program_object():
    program = by_name("MP").program
    cp1 = compiled_program(program)
    cp2 = compiled_program(program)
    assert cp1 is cp2
    assert make_engine(program).cp is cp1


def test_compile_cache_evicted_when_program_collected():
    program = random_program(123)
    key = id(program)
    compiled_program(program)
    assert key in _COMPILED
    del program
    gc.collect()
    assert key not in _COMPILED


def test_uncompilable_program_falls_back_to_interpreter():
    """An unknown instruction makes compilation fail once, then every
    make_engine call returns the interpreted engine for that program."""

    class Weird:  # not part of the ISA
        pass

    program = by_name("SB").program
    # Splice an unknown instruction into a copy of the first thread.
    import dataclasses

    thread0 = program.threads[0]
    mutated = dataclasses.replace(
        program,
        threads=(
            dataclasses.replace(
                thread0, instructions=thread0.instructions + (Weird(),)
            ),
        )
        + program.threads[1:],
    )
    assert compiled_program(mutated) is None
    engine = make_engine(mutated)
    assert isinstance(engine, EngineState)
    # The failure is remembered: still None on the second probe.
    assert compiled_program(mutated) is None
