"""Dynamic partial-order reduction (DPOR) for the idealized architecture.

The naive Definition-3 checker enumerates *every* interleaving, which is
factorial in the operation count.  Two interleavings that differ only in
the order of independent (non-conflicting, different-thread) operations
have the same happens-before relation -- hence the same races -- and the
same result.  DPOR (Flanagan & Godefroid, POPL 2005) explores at least one
interleaving per such equivalence class (Mazurkiewicz trace) by adding
backtracking points only where dependent operations could be reordered.

Two operations are **dependent** here iff they are by the same processor,
or access the same location with at least one write component (which for
this ISA is exactly the conflict relation plus program order).

The explorer runs on the shared in-place do/undo transition engine
(:class:`repro.core.engine_state.EngineState`): each branch is executed
directly on the live configuration and reversed through the undo log, so
the per-node pre-state snapshots of the original implementation are gone.

To layer **sleep sets** soundly the algorithm follows *source-DPOR*
(Abdulla, Aronis, Jonsson & Sagonas, POPL 2014 -- the modern form of
Flanagan-Godefroid):

* every executed event carries a vector clock of its happens-before
  predecessors, maintained incrementally (and unwound with the undo log);
* when an event ``e'`` executes, each *direct race* -- a dependent
  earlier event ``e`` of another processor with no happens-before
  intermediary -- asks the state ``e`` was executed from to also explore
  some process from the race's **initials** (the first hb-minimal
  processes of the reversed sequence), unless one is already scheduled;
* after a branch ``p`` is fully explored at a node, ``p`` goes to sleep
  there; a child inherits the sleeping processes whose pending transition
  is independent of the step taken, and a node whose enabled transitions
  are all asleep is cut entirely (counted in
  :attr:`~repro.core.engine_state.ExplorerStats.sleep_cuts`).

Inserting into the race's initials (rather than the raced process alone)
is what makes skipping sleeping backtrack choices sound; the combination
still reaches at least one representative of every Mazurkiewicz trace,
which the equivalence property tests check against the naive enumerators
over the litmus catalog and hundreds of generated programs.  Set
``ExplorationConfig.sleep_sets = False`` to keep the same race detection
without the sleep-set pruning.

Scope: programs whose executions are bounded (no unbounded spin loops) --
the algorithm's completeness argument assumes a finite, acyclic state
space.  `max_ops` guards against spinning; the reachable-configuration
search of `repro.core.drf0.check_program` remains the tool for spin
programs.

The module provides:

* :func:`iter_dpor_executions` -- representative executions, streamed as
  they are produced;
* :func:`explore_dpor` -- the same, materialized in a list;
* :func:`check_program_dpor` -- the DRF0/DRF1 verdict over them (sound and
  complete for bounded programs, since races are trace-invariants),
  race-checking each execution as it is yielded;
* :func:`sc_results_dpor` -- the SC result set (also a trace-invariant),
  folded from the stream.

Equivalence with the naive enumerators is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from repro.core.compile import make_engine
from repro.core.drf0 import DRF0Report, races_in_execution_vc
from repro.core.engine_state import ExplorerStats
from repro.core.execution import Execution, Result
from repro.core.models import DRF0_MODEL, SynchronizationModel
from repro.core.ops import Operation
from repro.core.sc import ExplorationCapError, ExplorationConfig
from repro.machine.program import Program


@dataclass
class _StackEntry:
    """One node of the DPOR search: exploration bookkeeping only.

    The pre-state itself lives in the engine's undo log -- there are no
    snapshot fields to pin.
    """

    proc: int
    op: Optional[Operation]
    backtrack: Set[int]
    done: Set[int] = field(default_factory=set)


class _Event:
    """One executed transition with its happens-before vector clock.

    ``clock[q]`` counts the events of processor ``q`` that happen before
    or equal this event; ``pidx`` is this event's own (1-based) position
    within its processor, so ``e`` happens-before ``f`` iff
    ``f.clock[e.proc] >= e.pidx``.
    """

    __slots__ = ("proc", "pidx", "clock", "location", "has_write", "index")

    def __init__(self, proc, pidx, clock, location, has_write, index):
        self.proc = proc
        self.pidx = pidx
        self.clock = clock
        self.location = location
        self.has_write = has_write
        self.index = index


def _dependent_with_pending(op: Operation, proc: int, request) -> bool:
    """Dependency between an executed op and a *pending* request of ``proc``.

    Dependency is decidable from (processor, location, write-ness) alone,
    so the pending transition need not be executed to test it.
    """
    if op.proc == proc:
        return True
    if op.location != request.location:
        return False
    # op.has_write is a Python-level property; the OpKind member carries
    # the same flag as a plain attribute.
    return op.kind.has_write or request.kind.has_write


def iter_dpor_executions(
    program: Program,
    config: Optional[ExplorationConfig] = None,
    stats: Optional[ExplorerStats] = None,
) -> Iterator[Execution]:
    """Representative executions covering every Mazurkiewicz trace, streamed.

    Consumers that stop early (e.g. at the first race) abandon the
    generator and the remaining state space is never expanded.
    """
    cfg = config or ExplorationConfig()
    engine = make_engine(program)
    tracer = cfg.tracer if (cfg.tracer is not None and cfg.tracer.enabled) else None
    engine.tracer = tracer
    nprocs = program.num_procs
    stack: List[_StackEntry] = []
    stats = stats if stats is not None else ExplorerStats()
    use_sleep = cfg.sleep_sets

    # Happens-before bookkeeping, unwound in lockstep with the engine:
    events: List[_Event] = []
    proc_last: List[Optional[_Event]] = [None] * nprocs
    last_write: Dict[str, Optional[_Event]] = {}
    reads_since: Dict[str, List[_Event]] = {}

    def make_event(proc: int) -> tuple:
        """Build the next event of ``proc`` (before stepping the engine).

        Returns ``(event, deps)`` where ``deps`` are its *direct*
        happens-before predecessors: the program-order predecessor, the
        latest write to the location, and -- when this event writes --
        every read of the location since that write.
        """
        request = engine.pending(proc)
        loc = request.location
        has_write = request.kind.has_write
        deps: List[_Event] = []
        po_pred = proc_last[proc]
        if po_pred is not None:
            deps.append(po_pred)
        lw = last_write.get(loc)
        if lw is not None and lw is not po_pred:
            deps.append(lw)
        if has_write:
            deps.extend(
                r for r in reads_since.get(loc, ()) if r.proc != proc
            )
        # Seed the clock from the first predecessor (the common case is a
        # single dep) instead of max-merging into a zero vector.
        if deps:
            clock = list(deps[0].clock)
            for f in deps[1:]:
                fc = f.clock
                for i in range(nprocs):
                    if fc[i] > clock[i]:
                        clock[i] = fc[i]
        else:
            clock = [0] * nprocs
        pidx = (po_pred.pidx if po_pred else 0) + 1
        clock[proc] = pidx
        event = _Event(proc, pidx, tuple(clock), loc, has_write, len(events))
        return event, deps

    def record_event(event: _Event) -> tuple:
        """Apply ``event`` to the hb bookkeeping; returns its undo frame."""
        proc = event.proc
        loc = event.location
        events.append(event)
        frame_last = proc_last[proc]
        proc_last[proc] = event
        if event.has_write:
            frame = ("w", loc, last_write.get(loc), reads_since.get(loc))
            last_write[loc] = event
            reads_since[loc] = []
        else:
            frame = ("r", loc)
            reads_since.setdefault(loc, []).append(event)
        return (frame_last, frame)

    def unrecord_event(undo_frame: tuple) -> None:
        event = events.pop()
        frame_last, frame = undo_frame
        proc_last[event.proc] = frame_last
        if frame[0] == "w":
            _, loc, old_lw, old_reads = frame
            last_write[loc] = old_lw
            reads_since[loc] = old_reads if old_reads is not None else []
        else:
            reads_since[frame[1]].pop()

    def happens_before(e: _Event, f: _Event) -> bool:
        return f.clock[e.proc] >= e.pidx

    def add_backtracks_for_races(event: _Event, deps: List[_Event]) -> None:
        """Source-DPOR race processing for a just-executed event.

        For each direct race ``e <_hb event`` (no intermediary), the node
        ``e`` was executed from must explore some process from the
        initials of ``notdep(e) . event`` -- the hb-minimal first movers
        of the reversed ordering -- unless one is already scheduled there.
        """
        for e in deps:
            if e.proc == event.proc:
                continue  # program order, not a race
            if any(f is not e and happens_before(e, f) for f in deps):
                continue  # e reaches event through f: not a direct race
            entry = stack[e.index]
            # v = notdep(e).event: later events not ordered after e, then
            # the racing event itself.
            v = [f for f in events[e.index + 1 : -1] if not happens_before(e, f)]
            v.append(event)
            first: Dict[int, _Event] = {}
            for f in v:
                if f.proc not in first:
                    first[f.proc] = f
            initials = {
                q
                for q, fq in first.items()
                if not any(g is not fq and happens_before(g, fq) for g in v)
            }
            if initials & entry.backtrack:
                continue  # an equivalent first mover is already scheduled
            chosen = event.proc if event.proc in initials else min(initials)
            entry.backtrack.add(chosen)
            if tracer is not None:
                tracer.instant(
                    "dpor", "backtrack-insert", "explorer", engine.transitions,
                    args={
                        "at_depth": e.index,
                        "proc": chosen,
                        "race_loc": event.location,
                    },
                )

    def explore(sleep: Set[int]) -> Iterator[Execution]:
        enabled = engine.runnable()
        if not enabled:
            stats.executions += 1
            if tracer is not None:
                tracer.instant(
                    "dpor", "execution", "explorer", engine.transitions,
                    args={"n": stats.executions, "depth": engine.depth},
                )
            yield engine.execution()
            return
        if engine.depth >= cfg.max_ops:
            if cfg.allow_incomplete:
                return
            raise ExplorationCapError(
                f"DPOR execution exceeded {cfg.max_ops} operations; use the "
                "naive explorer for programs with spin loops",
                states=stats.states,
            )
        awake = [p for p in enabled if p not in sleep] if use_sleep else enabled
        if not awake:
            stats.sleep_cuts += 1
            if tracer is not None:
                tracer.instant(
                    "dpor", "sleep-cut", "explorer", engine.transitions,
                    args={"depth": engine.depth},
                )
            return  # every enabled transition is covered by an earlier branch
        stats.states += 1
        entry = _StackEntry(
            proc=-1,
            op=None,  # filled per branch
            backtrack={min(awake)},
        )
        stack.append(entry)
        sleeping = set(sleep) if use_sleep else set()
        try:
            while True:
                choice = None
                for p in sorted(entry.backtrack):
                    if p not in entry.done and p not in sleeping:
                        choice = p
                        break
                if choice is None:
                    break
                entry.done.add(choice)
                event, deps = make_event(choice)
                op = engine.step(choice)
                entry.proc = choice
                entry.op = op
                undo_frame = record_event(event)
                try:
                    add_backtracks_for_races(event, deps)
                    if use_sleep:
                        child_sleep = {
                            q
                            for q in sleeping
                            if not _dependent_with_pending(
                                op, q, engine.pending(q)
                            )
                        }
                    else:
                        child_sleep = sleeping
                    yield from explore(child_sleep)
                finally:
                    unrecord_event(undo_frame)
                    engine.undo()
                if use_sleep:
                    sleeping.add(choice)
            # Backtrack members never explored were each blocked by a
            # sleeping process: count them as sleep-set cuts.
            stats.sleep_cuts += len(entry.backtrack - entry.done)
        finally:
            stack.pop()

    try:
        yield from explore(set())
    finally:
        # Runs on abandonment too (consumers stopping at the first race),
        # so the stats reflect whatever was actually expanded.
        stats.transitions = engine.transitions
        stats.max_depth = engine.max_depth


def explore_dpor(
    program: Program,
    config: Optional[ExplorationConfig] = None,
    stats: Optional[ExplorerStats] = None,
) -> List[Execution]:
    """Representative executions covering every Mazurkiewicz trace."""
    return list(iter_dpor_executions(program, config, stats))


def check_program_dpor(
    program: Program,
    model: SynchronizationModel = DRF0_MODEL,
    config: Optional[ExplorationConfig] = None,
) -> DRF0Report:
    """Definition-3 verdict via DPOR (bounded programs).

    Sound and complete: a race is a property of the Mazurkiewicz trace
    (conflicting + hb-unordered is invariant under commuting independent
    operations), and DPOR covers every trace.  Executions are race-checked
    as they are produced, so a racy program stops the exploration at its
    first racy representative.
    """
    config = config or ExplorationConfig()
    stats = ExplorerStats()
    checked = 0
    for execution in iter_dpor_executions(program, config, stats):
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
                stats=stats,
            )
    return DRF0Report(
        program=program, model_name=model.name, obeys=True,
        executions_checked=checked, stats=stats,
    )


def sc_results_dpor(
    program: Program, config: Optional[ExplorationConfig] = None
) -> FrozenSet[Result]:
    """The SC result set via DPOR (bounded programs).

    A result is determined by the trace: every read's value is fixed by
    the nearest dependent (same-location write) predecessors, which
    commuting independent operations cannot change.  Results are folded
    from the execution stream; no execution list is materialized.
    """
    return frozenset(
        e.result() for e in iter_dpor_executions(program, config)
    )
