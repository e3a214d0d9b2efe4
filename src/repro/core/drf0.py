"""DRF0: data-race detection and the Definition-3 program verdict.

A program obeys DRF0 (paper, Definition 3) iff for *any* execution on the
idealized architecture, all conflicting accesses are ordered by the
happens-before relation corresponding to that execution.  This module
provides:

* :func:`races_in_execution` -- ground-truth race detection on one execution
  via the explicit transitive closure of ``po ∪ so``;
* :func:`races_in_execution_vc` -- an equivalent vector-clock detector
  (in the style the paper cites from Netzer & Miller) that scales to long
  traces; the two are property-tested against each other;
* :func:`check_program` -- the exhaustive Definition-3 verdict, a search
  over the program's distinct reachable configurations for two pending
  operations that race when run back to back (see its docstring and
  ``docs/formal-model.md`` for why that decides every execution);
* :func:`check_program_sampled` -- a dynamic-detection fallback for programs
  too large to enumerate: monitors random SC executions.

Both detectors are parameterized by a synchronization model, so the same
code answers "does this program obey DRF0?" and "does it obey the DRF1
refinement?".

A note on the paper's augmented executions: Definition 3 augments each
execution with hypothetical initializing writes (ordered before everything
via synchronization) and final reads (ordered after everything).  Those
hypothetical operations are hb-ordered with respect to every real access by
construction, so they can never participate in a race; the detectors
therefore operate on the un-augmented trace without loss.  (The
augmentation matters for *result equivalence*, which
:mod:`repro.core.contract` handles by comparing final memory.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.compile import make_engine
from repro.core.engine_state import ExplorerStats
from repro.core.execution import Execution
from repro.core.models import DRF0_MODEL, SynchronizationModel
from repro.core.ops import Operation
from repro.core.relations import happens_before
from repro.core.sc import (
    ExplorationCapError,
    ExplorationConfig,
    random_sc_execution,
)
from repro.machine.program import Program


@dataclass(frozen=True)
class Race:
    """An unordered pair of conflicting accesses.

    ``first`` is the operation that completed earlier in the witnessing
    execution.
    """

    first: Operation
    second: Operation

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"race between {self.first} and {self.second}"


# ---------------------------------------------------------------------------
# Per-execution detection: explicit transitive closure (ground truth)
# ---------------------------------------------------------------------------


def races_in_execution(
    execution: Execution, model: SynchronizationModel = DRF0_MODEL
) -> List[Race]:
    """All races in one idealized execution, via explicit happens-before.

    Quadratic in trace length; intended for litmus-sized traces and as the
    oracle the vector-clock detector is tested against.
    """
    hb = happens_before(execution, model)
    races: List[Race] = []
    ops = execution.ops
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            if not model.race_relevant(a, b):
                continue
            if not hb.ordered_either_way(a, b):
                races.append(Race(a, b))
    return races


# ---------------------------------------------------------------------------
# Per-execution detection: vector clocks (fast path)
# ---------------------------------------------------------------------------


class _VectorClock:
    """Fixed-width integer vector clock."""

    __slots__ = ("times",)

    def __init__(self, width: int) -> None:
        self.times = [0] * width

    def copy(self) -> "_VectorClock":
        vc = _VectorClock(len(self.times))
        vc.times = list(self.times)
        return vc

    def join(self, other: "_VectorClock") -> None:
        self.times = [max(a, b) for a, b in zip(self.times, other.times)]


@dataclass
class _LocationHistory:
    """Per-location last-access bookkeeping for the vector-clock detector.

    For each processor we keep the timestamp and identity of its latest read
    and latest write of the location, split by data/sync class so model
    exemptions (DRF1's sync-sync exemption) can be applied.  Per-processor
    maxima suffice: processor-local times are monotone, so if the latest
    access is happens-before-ordered every earlier one is too.
    """

    width: int
    last_write_time: List[int] = field(default_factory=list)
    last_write_op: List[Optional[Operation]] = field(default_factory=list)
    last_read_time: List[int] = field(default_factory=list)
    last_read_op: List[Optional[Operation]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.last_write_time = [0] * self.width
        self.last_write_op = [None] * self.width
        self.last_read_time = [0] * self.width
        self.last_read_op = [None] * self.width


def races_in_execution_vc(
    execution: Execution, model: SynchronizationModel = DRF0_MODEL
) -> List[Race]:
    """Vector-clock race detection.

    Processes the trace in completion order, maintaining one clock per
    processor and one per synchronization location.  An acquire joins the
    location clock into the processor clock; a release joins the processor
    clock into the location clock -- with acquire/release membership decided
    by the synchronization model (under DRF0 every sync op is both).

    Completeness contract relative to :func:`races_in_execution`: every
    reported pair is a genuine race (soundness), and a race is reported for
    every (location, processor pair) that has one -- but because only
    per-processor *latest* accesses are remembered, an earlier access of the
    same processor racing the same opposite access is subsumed by the later
    one rather than reported separately.  In particular the two detectors
    always agree on whether an execution is race-free.
    """
    width = execution.program.num_procs
    proc_clock = [_VectorClock(width) for _ in range(width)]
    for proc, clock in enumerate(proc_clock):
        clock.times[proc] = 1
    loc_clock: Dict[str, _VectorClock] = {}
    history: Dict[str, _LocationHistory] = {}
    races: List[Race] = []

    for op in execution.ops:
        clock = proc_clock[op.proc]
        if op.is_sync:
            lc = loc_clock.setdefault(op.location, _VectorClock(width))
            if model.is_acquire(op):
                clock.join(lc)
        hist = history.setdefault(op.location, _LocationHistory(width))
        _check_op(op, clock, hist, model, races)
        _record_op(op, clock, hist)
        if op.is_sync and model.is_release(op):
            loc_clock[op.location].join(clock)
        clock.times[op.proc] += 1
    return races


def _check_op(
    op: Operation,
    clock: _VectorClock,
    hist: _LocationHistory,
    model: SynchronizationModel,
    races: List[Race],
) -> None:
    """Race-check ``op`` against the location history."""
    for other_proc in range(len(clock.times)):
        if other_proc == op.proc:
            continue
        write_op = hist.last_write_op[other_proc]
        if (
            write_op is not None
            and hist.last_write_time[other_proc] > clock.times[other_proc]
            and model.race_relevant(write_op, op)
        ):
            races.append(Race(write_op, op))
        if op.has_write:
            read_op = hist.last_read_op[other_proc]
            if (
                read_op is not None
                and hist.last_read_time[other_proc] > clock.times[other_proc]
                and model.race_relevant(read_op, op)
            ):
                races.append(Race(read_op, op))


def _record_op(op: Operation, clock: _VectorClock, hist: _LocationHistory) -> None:
    """Record ``op`` as the issuing processor's latest access."""
    now = clock.times[op.proc]
    if op.has_read:
        hist.last_read_time[op.proc] = now
        hist.last_read_op[op.proc] = op
    if op.has_write:
        hist.last_write_time[op.proc] = now
        hist.last_write_op[op.proc] = op


class _LiteOp:
    """A value-free stand-in for :class:`Operation` in race detection.

    Race relevance and acquire/release membership only read ``(proc,
    kind, location)`` and the kind flags -- never the values -- so the
    exhaustive checker can race-check pending operations without
    materializing real ones (``record_trace=False`` engines return
    ``None`` from ``step``).  One instance per distinct ``(proc, kind,
    location)`` triple serves a whole exploration.
    """

    __slots__ = ("proc", "kind", "location", "is_sync", "has_read", "has_write")

    def __init__(self, proc: int, kind, location) -> None:
        self.proc = proc
        self.kind = kind
        self.location = location
        self.is_sync = kind.is_sync
        self.has_read = kind.has_read
        self.has_write = kind.has_write


def _lite_op(engine, proc: int, cache: Dict[tuple, _LiteOp]) -> _LiteOp:
    """The lite operation ``proc`` is about to execute (pre-step)."""
    request = engine.pending(proc)
    key = (proc, request.kind, request.location)
    op = cache.get(key)
    if op is None:
        op = cache[key] = _LiteOp(proc, request.kind, request.location)
    return op


def _replay_execution(program: Program, path) -> Execution:
    """Materialize the execution of a proc-choice ``path`` on a fresh
    recording engine.

    Operation uids are completion indices, so the replayed execution is
    bit-identical to what a trace-recording engine would have held at
    the end of that path -- this is how verdict-only explorations
    produce witnesses on demand.
    """
    engine = make_engine(program)
    for proc in path:
        engine.step(proc)
    return engine.execution()


# ---------------------------------------------------------------------------
# Whole-program verdicts
# ---------------------------------------------------------------------------


@dataclass
class DRF0Report:
    """Outcome of a Definition-3 program check.

    ``executions_checked`` counts executions race-checked by
    :func:`check_program_sampled`; for :func:`check_program` it counts
    the distinct halted configurations the search reached.
    ``complete`` is False when a cap cut the search or the check
    samples: then a clean verdict is only evidence, while a reported
    race is always real.
    """

    program: Program
    model_name: str
    obeys: bool
    executions_checked: int
    race: Optional[Race] = None
    witness: Optional[Execution] = None
    complete: bool = True
    stats: Optional[ExplorerStats] = None

    def __bool__(self) -> bool:
        return self.obeys


def _adjacent_race(a, b, model: SynchronizationModel) -> bool:
    """Whether ``b`` run right after ``a`` (another processor's) races.

    No operation completes between two back-to-back operations, so
    ``hb = (po ∪ so)+`` can only order them by a direct edge; po cannot
    (different processors), which leaves a direct so edge.
    """
    if not model.race_relevant(a, b):
        return False
    return not (a.is_sync and b.is_sync and model.orders(a, b))


def check_program(
    program: Program,
    model: SynchronizationModel = DRF0_MODEL,
    config: Optional[ExplorationConfig] = None,
) -> DRF0Report:
    """Exhaustive Definition-3 verdict by a reachable-configuration search.

    Some idealized execution has a race iff some reachable configuration
    (thread states and memory) has two processors whose pending
    operations race when run back to back in one of the two orders --
    the adjacent-race form of Definition 3, proved both ways in
    ``docs/formal-model.md``.  So a depth-first search visits each
    distinct configuration once, rather than each interleaving, and
    stops at the first such pair.  Executions that never halt are
    covered too: every configuration they pass through is reachable.

    The search runs on a trace-free engine; the racy witness is a replay
    of the path to the configuration plus the racing pair, so it ends in
    the reported race.  ``config.max_ops`` bounds the path length and
    ``config.max_states`` the visited set; a cut branch raises
    :class:`ExplorationCapError` unless ``allow_incomplete`` is set, in
    which case the report carries ``complete=False``.
    """
    cfg = config or ExplorationConfig(max_ops=400)
    stats = ExplorerStats()
    engine = make_engine(program, record_trace=False)
    if cfg.tracer is not None and cfg.tracer.enabled:
        engine.tracer = cfg.tracer
    lite_cache: Dict[tuple, _LiteOp] = {}

    def race_at(runnable: List[int]) -> Optional[Tuple[int, int]]:
        """The first (proc, proc) pair racing from this configuration."""
        ops = [_lite_op(engine, proc, lite_cache) for proc in runnable]
        for i, a in enumerate(ops):
            for b in ops[i + 1 :]:
                if _adjacent_race(a, b, model):
                    return a.proc, b.proc
                if _adjacent_race(b, a, model):
                    return b.proc, a.proc
        return None

    def cut(reason: str) -> None:
        if not cfg.allow_incomplete:
            raise ExplorationCapError(reason, states=stats.states)

    visited: Set[object] = set()
    path: List[int] = []
    # One frame per configuration on the path: its untried successors,
    # last processor first so ``pop`` tries them in processor order.  A
    # configuration that is not expanded gets an empty frame.
    frames: List[List[int]] = []
    complete = True
    hit: Optional[Tuple[int, int]] = None
    try:
        while True:
            key = engine.config_key()
            children: List[int] = []
            if key not in visited:
                runnable = engine.runnable()
                if runnable and engine.depth >= cfg.max_ops:
                    complete = False
                    cut(f"path exceeded {cfg.max_ops} operations")
                elif len(visited) >= cfg.max_states:
                    complete = False
                    cut(f"visited more than {cfg.max_states} configurations")
                    break
                else:
                    visited.add(key)
                    stats.states += 1
                    if not runnable:
                        stats.executions += 1
                    hit = race_at(runnable)
                    if hit is not None:
                        break
                    children = runnable[::-1]
            frames.append(children)
            while frames and not frames[-1]:
                frames.pop()
                if path:
                    path.pop()
                    engine.undo()
            if not frames:
                break
            proc = frames[-1].pop()
            engine.step(proc)
            path.append(proc)
    finally:
        stats.transitions = engine.transitions
        stats.max_depth = engine.max_depth
        stats.peak_visited = len(visited)
    if hit is None:
        return DRF0Report(
            program=program, model_name=model.name, obeys=True,
            executions_checked=stats.executions, complete=complete,
            stats=stats,
        )
    witness = _replay_execution(program, path + list(hit))
    return DRF0Report(
        program=program,
        model_name=model.name,
        obeys=False,
        executions_checked=stats.executions,
        race=Race(witness.ops[-2], witness.ops[-1]),
        witness=witness,
        complete=complete,
        stats=stats,
    )


def check_program_sampled(
    program: Program,
    model: SynchronizationModel = DRF0_MODEL,
    seeds: Sequence[int] = range(50),
) -> DRF0Report:
    """Dynamic detection over random idealized executions.

    A found race is definitive; a clean report is only evidence (the
    standard dynamic race-detection trade-off the paper's Section 4 cites).
    """
    checked = 0
    for seed in seeds:
        execution = random_sc_execution(program, seed)
        checked += 1
        races = races_in_execution_vc(execution, model)
        if races:
            return DRF0Report(
                program=program,
                model_name=model.name,
                obeys=False,
                executions_checked=checked,
                race=races[0],
                witness=execution,
                complete=False,
            )
    return DRF0Report(
        program=program,
        model_name=model.name,
        obeys=True,
        executions_checked=checked,
        complete=False,
    )


def _all_interleavings(
    program: Program,
    cfg: ExplorationConfig,
    stats: Optional[ExplorerStats] = None,
):
    """Yield every interleaving as an execution, pruning livelock cycles.

    Unlike :func:`repro.core.sc.explore` with ``dedup=False``, this
    generator prunes branches that revisit a (thread states, memory)
    configuration already on the current DFS path, so programs with spin
    loops have a finite exploration.  Runs on the in-place do/undo engine;
    consumers that stop early abandon the generator and the rest of the
    tree is never expanded.  The tests race-check its executions as the
    oracle for :func:`check_program` (it only sees halting executions).
    """
    engine = make_engine(program)
    if cfg.tracer is not None and cfg.tracer.enabled:
        engine.tracer = cfg.tracer
    stats = stats if stats is not None else ExplorerStats()
    on_path: Set[object] = set()
    # Straight-line programs cannot revisit a configuration on a DFS path:
    # skip cycle tracking (and with it all key maintenance).
    track_cycles = not engine.straightline

    def dfs():
        runnable = engine.runnable()
        if not runnable:
            stats.executions += 1
            yield engine.execution()
            return
        if engine.depth >= cfg.max_ops:
            if cfg.allow_incomplete:
                return
            raise ExplorationCapError(
                f"interleaving exceeded {cfg.max_ops} operations",
                states=stats.states,
            )
        key = None
        if track_cycles:
            key = engine.config_key()
            if key in on_path:
                return  # livelock cycle: already explored from its first visit
        stats.states += 1
        if track_cycles:
            on_path.add(key)
        try:
            for proc in runnable:
                engine.step(proc)
                try:
                    yield from dfs()
                finally:
                    engine.undo()
        finally:
            if track_cycles:
                on_path.remove(key)

    try:
        yield from dfs()
    finally:
        stats.transitions = engine.transitions
        stats.max_depth = engine.max_depth


def obeys_drf0(program: Program, **kwargs) -> bool:
    """Convenience wrapper: exhaustive DRF0 verdict as a boolean."""
    return check_program(program, DRF0_MODEL, **kwargs).obeys
