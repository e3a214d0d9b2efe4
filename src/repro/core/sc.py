"""The idealized architecture: exhaustive sequentially consistent execution.

The paper defines happens-before relations over executions of "an abstract,
idealized architecture where all memory accesses are executed atomically and
in program order".  This module *is* that architecture: an explicit-state
enumerator that explores every interleaving of a program's memory
operations, executing each operation atomically.

:func:`explore` and :func:`sc_results` are the one production source of
a program's SC result set; the axiomatic SC model
(:mod:`repro.axiomatic`) is its independent oracle on loop-free programs.

The search runs on the shared in-place do/undo transition engine
(:func:`repro.core.compile.make_engine`): one live configuration,
stepped forward and rewound via an undo log, with incrementally maintained
configuration keys -- no per-node copying of thread states or memory.

Two exploration modes matter:

* ``dedup=True`` (default): configurations that agree on thread states,
  memory, and the observations made so far are explored once.  The set of
  :class:`~repro.core.execution.Result` values found is exactly the set of
  sequentially consistent results -- this is the right mode for the
  Definition-2 contract checker.
* ``dedup=False``: every interleaving is enumerated as a distinct
  :class:`~repro.core.execution.Execution` trace (:func:`sc_executions`),
  because two interleavings with the same observable state can still
  have different happens-before relations.

Result-set-only callers can additionally set
``collect_executions=False`` so finished executions are *consumed as they
are produced* (folded into the result set) instead of materialized in a
list -- :func:`sc_results` does.

Programs with synchronization spin loops have *unboundedly many* SC results
(every spin count is a distinct read history), so exploration prunes
**livelock cycles**: a branch that revisits a (thread states, memory)
configuration already on the current DFS path is cut, because the first
visit already explores every scheduling alternative from that
configuration.  The enumerated set is therefore the results of executions
without redundant spin pumping; membership of an *arbitrary* observed
result (with any spin count) is decided by
:func:`repro.core.contract.is_sc_result` instead.

Both modes are exponential in the worst case; :class:`ExplorationConfig`
caps keep them honest, and hitting a cap raises (never silently truncates)
unless ``allow_incomplete`` is set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import FrozenSet, List, Optional, Set

from repro.core.compile import make_engine
from repro.core.engine_state import ExplorerStats
from repro.core.execution import Execution, Result
from repro.machine.program import Program

__all__ = [
    "ExplorationCapError",
    "ExplorationConfig",
    "ExplorationIncomplete",
    "Exploration",
    "explore",
    "sc_results",
    "sc_executions",
    "random_sc_execution",
]


class ExplorationCapError(RuntimeError):
    """Raised when an exploration cap is hit without ``allow_incomplete``.

    Carries the number of states visited when the cap fired, so a
    capped run is diagnosable from the message alone.
    """

    def __init__(self, message: str, *, states: Optional[int] = None) -> None:
        self.states = states
        if states is not None:
            message = f"{message} [states={states}]"
        super().__init__(message)


#: Historical name, kept importable: every pre-E15 caller catches this.
ExplorationIncomplete = ExplorationCapError


@dataclass
class ExplorationConfig:
    """Caps and switches for state-space exploration.

    Attributes:
        max_executions: Stop after this many complete executions
            (``None`` = unbounded).
        max_ops: Bound on operations in a single execution; exceeding it
            means the program probably spins forever under some schedule.
        max_states: Bound on distinct configurations visited.
        dedup: Merge configurations with identical observable state.
        allow_incomplete: Return partial answers instead of raising when a
            cap is hit.
        collect_executions: Materialize every finished execution in
            :attr:`Exploration.executions`.  Result-set-only callers set
            this to ``False`` to stream executions into the result fold.
        tracer: Optional :class:`~repro.obs.tracer.Tracer` receiving
            engine step/undo and explorer events (timestamps are the
            engine's transition count).  ``None`` keeps the hot loop
            untouched.
    """

    max_executions: Optional[int] = None
    max_ops: int = 400
    max_states: int = 2_000_000
    dedup: bool = True
    allow_incomplete: bool = False
    collect_executions: bool = True
    tracer: Optional[object] = None


@dataclass
class Exploration:
    """Outcome of :func:`explore`."""

    program: Program
    executions: List[Execution]
    results: Set[Result]
    complete: bool
    states_visited: int = 0
    stats: ExplorerStats = field(default_factory=ExplorerStats)

    @property
    def result_set(self) -> FrozenSet[Result]:
        """The sequentially consistent result set (frozen)."""
        return frozenset(self.results)


def explore(
    program: Program, config: Optional[ExplorationConfig] = None
) -> Exploration:
    """Enumerate executions of ``program`` on the idealized architecture."""
    cfg = config or ExplorationConfig()
    # The trace is only read when executions are collected; skipping it
    # removes the Operation construction from the hot loop.
    engine = make_engine(program, record_trace=cfg.collect_executions)
    tracer = cfg.tracer if (cfg.tracer is not None and cfg.tracer.enabled) else None
    engine.tracer = tracer
    executions: List[Execution] = []
    results: Set[Result] = set()
    visited: Set[object] = set()
    stats = ExplorerStats()
    state = {"complete": True}
    collect = cfg.collect_executions

    # Straight-line programs cannot revisit a configuration on a DFS path,
    # so livelock-cycle tracking (and, without dedup, every key) is skipped.
    track_cycles = not engine.straightline

    def emit() -> bool:
        """Consume a finished execution; returns False when capped."""
        stats.executions += 1
        if tracer is not None:
            tracer.instant(
                "explore", "execution", "explorer", engine.transitions,
                args={"n": stats.executions, "depth": engine.depth},
            )
        if collect:
            execution = engine.execution()
            executions.append(execution)
            results.add(Result(tuple(engine.reads), execution.final_memory))
        else:
            results.add(engine.result())
        if cfg.max_executions is not None and stats.executions >= cfg.max_executions:
            state["complete"] = False
            return False
        return True

    def dfs() -> bool:
        """Returns False to abort the whole exploration (cap hit)."""
        runnable = engine.runnable()
        if not runnable:
            return emit()
        if engine.depth >= cfg.max_ops:
            state["complete"] = False
            if cfg.allow_incomplete:
                return True
            raise ExplorationCapError(
                f"execution exceeded {cfg.max_ops} operations; "
                "the program may spin forever under some schedule",
                states=stats.states,
            )
        cycle_key = None
        if track_cycles or cfg.dedup:
            cycle_key = engine.config_key()
        if track_cycles and cycle_key in on_path:
            return True  # livelock cycle: already explored from its first visit
        if cfg.dedup:
            key = (cycle_key, engine.reads_key())
            if key in visited:
                return True
            visited.add(key)
        stats.states += 1
        if stats.states > cfg.max_states:
            state["complete"] = False
            if cfg.allow_incomplete:
                return True
            raise ExplorationCapError(
                f"visited more than {cfg.max_states} configurations",
                states=stats.states,
            )
        if track_cycles:
            on_path.add(cycle_key)
        try:
            for proc in runnable:
                engine.step(proc)
                try:
                    if not dfs():
                        return False
                finally:
                    engine.undo()
        finally:
            if track_cycles:
                on_path.remove(cycle_key)
        return True

    on_path: Set[object] = set()
    dfs()
    stats.transitions = engine.transitions
    stats.max_depth = engine.max_depth
    stats.peak_visited = len(visited)
    return Exploration(
        program=program,
        executions=executions,
        results=results,
        complete=state["complete"],
        states_visited=stats.states,
        stats=stats,
    )


def sc_results(
    program: Program, config: Optional[ExplorationConfig] = None
) -> FrozenSet[Result]:
    """The exact set of sequentially consistent results of ``program``.

    The caller's config is copied, never mutated; executions are streamed
    into the result fold instead of being materialized.
    """
    if config is None:
        cfg = ExplorationConfig(dedup=True, collect_executions=False)
    else:
        cfg = replace(config, dedup=True, collect_executions=False)
    return explore(program, cfg).result_set


def sc_executions(
    program: Program, config: Optional[ExplorationConfig] = None
) -> List[Execution]:
    """Every interleaving of ``program`` as a distinct execution trace.

    The caller's config is copied, never mutated.
    """
    if config is None:
        cfg = ExplorationConfig(dedup=False)
    else:
        cfg = replace(config, dedup=False, collect_executions=True)
    return explore(program, cfg).executions


def random_sc_execution(program: Program, seed: int = 0) -> Execution:
    """One sequentially consistent execution under a random fair schedule."""
    rng = random.Random(seed)
    engine = make_engine(program)
    while True:
        runnable = engine.runnable()
        if not runnable:
            break
        engine.step(rng.choice(runnable))
    return engine.execution()
