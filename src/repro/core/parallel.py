"""Intra-cell parallel exploration: prefix-sharded state-space partitioning.

The sweep engine (:mod:`repro.verify.engine`) parallelizes *across* cells;
one deep exploration is still a serial wall-clock floor.  This module
shards a *single* exploration across a fork pool of compiled engines:

**Phase 1 — frontier enumeration (coordinator).**  The coordinator
enumerates execution prefixes deterministically down to a work-budget
frontier (a few shards per worker).  For the naive enumerators the
expansion is breadth-first and replicates the serial node semantics
exactly -- livelock-cycle pruning against the prefix path, dedup on the
interned packed ``(config_key, reads_key)`` pairs from
:mod:`repro.core.compile` (two prefixes reaching an identical packed
configuration collapse to one shard), cap accounting.  For source-DPOR
the frontier is grown lazily: one minimum-enabled chain per scheduled
backtrack branch (see phase 3).

**Phase 2 — subtree exploration (workers).**  Each worker inherits the
program through ``fork`` (nothing is pickled on the way in), builds its
own compiled engine, replays its prefix and explores the subtree below it
with the same algorithm the serial path uses.  Prefix replay rebuilds the
exact serial context at the subtree root: the livelock ``on_path`` keys
or the full happens-before event history (DPOR).

**Phase 3 — deterministic merge (coordinator).**  Result sets are
order-independent and dedup-invariant -- the set of results reachable
from a configuration depends only on the configuration and the
observations made so far -- so the union of the per-shard result sets is
*bit-identical* to the serial result set, whatever the completion order
(``benchmarks/bench_e15_parallel.py`` asserts this per row).  The DPOR
race verdict merges as "any shard hit".
:class:`~repro.core.engine_state.ExplorerStats` merge by summation; state
counts may differ from the serial run (shards cannot share a dedup set),
which is why the determinism contract is stated over *results*, not
counters.

For source-DPOR, workers return newly discovered backtrack points whose
target node lies inside their prefix; the coordinator owns the backtrack
sets of the top ``_DPOR_PREFIX_DEPTH`` levels and schedules each accepted
point as a new shard (work-stealing over backtrack nodes, with seen-key
dedup so no subtree is dispatched twice).  The existential DPOR
first-race query gets an early-exit broadcast: a
:class:`multiprocessing.Event` created before the fork, set by the
coordinator on the first hit and polled by every worker between nodes,
cancels in-flight shards.

The parallel path is only taken for callers that discard executions
(``collect_executions=False`` / verdict-only): execution *lists* are
order-dependent, so trace collectors stay serial.  Workers are assumed
crash-prone: the coordinator polls pool PIDs, resubmits shards lost to a
worker death (shard tasks are pure, so re-running is safe), and degrades
a repeatedly-lost shard to in-parent execution.  ``KeyboardInterrupt``
tears the pool down before propagating.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.compile import make_engine
from repro.core.engine_state import ExplorerStats
from repro.obs import stream as obs_stream
from repro.core.execution import Result
from repro.core.models import DRF0_MODEL, SynchronizationModel
from repro.machine.program import Program

__all__ = [
    "ShardStats",
    "can_fork",
    "resolve_jobs",
    "parallel_explore",
    "parallel_check_program_dpor",
    "parallel_sc_results_dpor",
]

#: Target shards per worker: enough slack that an unlucky split keeps
#: every core busy, small enough that phase 1 stays negligible.
_SHARD_FACTOR = 4

#: Depth of the coordinator-owned top tree for DPOR work-stealing.
#: Backtrack insertions above this depth become steal reports; below it
#: they are handled worker-locally.
_DPOR_PREFIX_DEPTH = 8

#: Hard ceiling on naive frontier depth (the frontier normally saturates
#: after ``log_width(target)`` levels; this guards single-chain programs).
_MAX_FRONTIER_DEPTH = 24

#: Workers poll the early-exit broadcast every this many expanded nodes.
_STOP_CHECK_NODES = 256

#: Shard-stats snapshot of the most recent coordinator run (observability
#: convenience for callers that cannot thread an accumulator through).
LAST_SHARD_STATS: Optional["ShardStats"] = None


@dataclass
class ShardStats:
    """Counters for one (or an accumulation of) sharded exploration(s).

    Shard balance is reported as the min/max/total states explored per
    shard; ``cancel_latency_us`` measures the early-exit broadcast from
    the first hit to the last in-flight shard draining.
    """

    explorations: int = 0
    shards: int = 0
    frontier: int = 0
    steals: int = 0
    steal_reports: int = 0
    cancelled: int = 0
    resubmitted: int = 0
    cancel_latency_us: int = 0
    min_shard_states: int = 0
    max_shard_states: int = 0
    total_shard_states: int = 0

    def observe_shard(self, states: int) -> None:
        if self.max_shard_states == 0 and self.min_shard_states == 0:
            self.min_shard_states = states
        else:
            self.min_shard_states = min(self.min_shard_states, states)
        self.max_shard_states = max(self.max_shard_states, states)
        self.total_shard_states += states

    def merge(self, other: "ShardStats") -> None:
        self.explorations += other.explorations
        self.shards += other.shards
        self.frontier += other.frontier
        self.steals += other.steals
        self.steal_reports += other.steal_reports
        self.cancelled += other.cancelled
        self.resubmitted += other.resubmitted
        self.cancel_latency_us = max(
            self.cancel_latency_us, other.cancel_latency_us
        )
        if other.shards:
            if self.min_shard_states == 0 and self.max_shard_states == 0:
                self.min_shard_states = other.min_shard_states
            elif other.min_shard_states or other.max_shard_states:
                self.min_shard_states = min(
                    self.min_shard_states, other.min_shard_states
                )
            self.max_shard_states = max(
                self.max_shard_states, other.max_shard_states
            )
            self.total_shard_states += other.total_shard_states

    def as_dict(self) -> Dict[str, int]:
        return {
            "explorations": self.explorations,
            "shards": self.shards,
            "frontier": self.frontier,
            "steals": self.steals,
            "steal_reports": self.steal_reports,
            "cancelled": self.cancelled,
            "resubmitted": self.resubmitted,
            "cancel_latency_us": self.cancel_latency_us,
            "min_shard_states": self.min_shard_states,
            "max_shard_states": self.max_shard_states,
            "total_shard_states": self.total_shard_states,
        }


def can_fork() -> bool:
    """Whether prefix sharding is available here.

    False inside pool workers: they are daemonic and may not have
    children, so an ``explore_jobs`` knob that reaches one (e.g. via an
    :class:`~repro.core.sc.ExplorationConfig` pickled into a task) falls
    back to the serial path instead of crashing the task.
    """
    if multiprocessing.current_process().daemon:
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_jobs(explore_jobs: Optional[int]) -> int:
    """Normalize an ``explore_jobs`` knob: ``0`` means all cores."""
    if explore_jobs is None:
        return 1
    if explore_jobs == 0:
        return os.cpu_count() or 1
    return max(1, explore_jobs)


class _Cancelled(Exception):
    """Internal: a worker observed the early-exit broadcast."""


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _ShardContext:
    """Per-exploration context published before the fork.

    Workers read it from the module global they inherited by address
    space copy -- the program and model objects are never pickled (the
    same pattern as ``repro.verify.engine._TASK_CONTEXT``).
    """

    __slots__ = (
        "program",
        "cfg",
        "mode",
        "model",
        "max_states",
        "stop",
        "failpoints",
    )

    def __init__(self, program, cfg, mode, model, max_states, stop, failpoints):
        self.program = program
        self.cfg = cfg
        self.mode = mode
        self.model = model
        self.max_states = max_states
        self.stop = stop
        self.failpoints = failpoints


_SHARD_CONTEXT: Optional[_ShardContext] = None


def _fire_shard_failpoint(failpoints) -> None:
    """Duck-typed `repro.verify.engine.Failpoint` support for shard tasks.

    Same contract as the engine's ``_maybe_fire_failpoint``: fires once
    across all processes (atomic token claim) and only in forked workers.
    Duplicated here because :mod:`repro.core` must not import
    :mod:`repro.verify`.
    """
    if multiprocessing.parent_process() is None:
        return  # only forked workers fire; the coordinator must survive
    for fp in failpoints or ():
        if getattr(fp, "task_kind", None) not in ("shard", "*"):
            continue
        try:
            fd = os.open(fp.token_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        if fp.mode == "crash":
            os._exit(17)
        if fp.mode == "hang":
            time.sleep(3600)
            continue
        raise RuntimeError(f"injected {fp.mode} failpoint (shard)")


def _run_shard(task: tuple) -> tuple:
    """Pool entry point: explore the subtree below ``task``'s prefix.

    ``task`` is ``(prefix, seeds)`` -- ``seeds`` carries the sleep-set
    seeds for DPOR shards (``None`` elsewhere).  Returns
    ``(status, data, stats, complete, steal_reports)`` where
    ``status`` is ``"ok"``, ``"hit"`` (existential query satisfied;
    ``data`` is the witnessing proc path), ``"cancelled"`` (early-exit
    broadcast observed) or ``"capped"`` (a cap raised; ``data`` is the
    message).  Shard tasks are pure: re-running one is always safe.
    """
    ctx = _SHARD_CONTEXT
    prefix, seeds = task
    writer = obs_stream.worker_writer("shard")
    label = f"shard:{ctx.mode}@{'.'.join(map(str, prefix))}" if writer else None
    if writer is not None:
        writer.beat(task=label)
    _fire_shard_failpoint(ctx.failpoints)
    stats = ExplorerStats()
    try:
        if ctx.mode in ("dpor-results", "dpor-race"):
            payload = _dpor_shard(ctx, prefix, seeds, stats)
        else:
            payload = _results_shard(ctx, prefix, stats)
    except _Cancelled:
        payload = ("cancelled", None, stats, True, ())
    except Exception as exc:  # cap errors travel as data, not exceptions
        from repro.core.sc import ExplorationCapError

        if isinstance(exc, ExplorationCapError):
            payload = ("capped", str(exc), stats, False, ())
        else:
            if writer is not None:
                writer.stall(f"{type(exc).__name__}: {exc}", task=label)
                writer.beat(task=label, force=True)
            raise
    if writer is not None:
        writer.add(shards=1, states=payload[2].states)
        writer.beat(task=label)
    return payload


def _results_shard(ctx: _ShardContext, prefix, stats) -> tuple:
    """Naive enumeration below ``prefix``, folding results (sc mode)."""
    from repro.core.sc import ExplorationCapError

    cfg = ctx.cfg
    engine = make_engine(ctx.program, record_trace=False)
    track_cycles = not engine.straightline
    stop = ctx.stop
    dedup = cfg.dedup
    on_path: Set[object] = set()
    for proc in prefix:
        if track_cycles:
            on_path.add(engine.config_key())
        engine.step(proc)
    results: Set[Result] = set()
    visited: Set[object] = set()
    complete = [True]

    def dfs() -> None:
        runnable = engine.runnable()
        if not runnable:
            stats.executions += 1
            results.add(engine.result())
            return
        if engine.depth >= cfg.max_ops:
            complete[0] = False
            if cfg.allow_incomplete:
                return
            raise ExplorationCapError(
                f"execution exceeded {cfg.max_ops} operations; "
                "the program may spin forever under some schedule",
                states=stats.states,
            )
        cycle_key = None
        if track_cycles or dedup:
            cycle_key = engine.config_key()
        if track_cycles and cycle_key in on_path:
            return
        if dedup:
            key = (cycle_key, engine.reads_key())
            if key in visited:
                return
            visited.add(key)
        stats.states += 1
        if stats.states % _STOP_CHECK_NODES == 0 and stop.is_set():
            raise _Cancelled
        if stats.states > ctx.max_states:
            complete[0] = False
            if cfg.allow_incomplete:
                return
            raise ExplorationCapError(
                f"visited more than {ctx.max_states} configurations",
                states=stats.states,
            )
        if track_cycles:
            on_path.add(cycle_key)
        try:
            for proc in runnable:
                engine.step(proc)
                try:
                    dfs()
                finally:
                    engine.undo()
        finally:
            if track_cycles:
                on_path.remove(cycle_key)

    dfs()
    stats.transitions = engine.transitions
    stats.max_depth = engine.max_depth
    stats.peak_visited = len(visited)
    return ("ok", frozenset(results), stats, complete[0], ())


def _dpor_shard(ctx: _ShardContext, prefix, seeds, stats) -> tuple:
    """Source-DPOR exploration of the subtree below ``prefix``.

    The replay rebuilds the full happens-before event history (vector
    clocks, last-write/reads-since maps) and race-processes every prefix
    event, so backtrack insertions targeting prefix nodes -- whether the
    race is prefix/prefix or subtree/prefix -- surface as steal reports
    ``(node, initials, preferred)`` for the coordinator to schedule.
    Insertions at subtree depth are handled locally, exactly as serial.

    ``seeds`` (one frozenset per prefix position) lists the siblings the
    coordinator dispatched *before* this shard's choice at each node.
    Serial source-DPOR sleeps a subtree on every already-explored
    sibling; dispatch order is a strict per-node total order, so seeding
    the replayed sleep set with earlier-dispatched siblings is the same
    discipline and keeps overlapping steal subtrees from being explored
    once per shard.  The sleep set is filtered through the same
    dependence rule as serial at every replay step, so the subtree
    root's sleep set is exactly what serial DFS would carry there under
    the dispatch order.
    """
    from repro.core.drf0 import races_in_execution_vc
    from repro.core.dpor import _Event, _StackEntry, _dependent_with_pending
    from repro.core.sc import ExplorationCapError

    cfg = ctx.cfg
    program = ctx.program
    engine = make_engine(program)  # leaves need real executions
    stop = ctx.stop
    nprocs = program.num_procs
    plen = len(prefix)
    race_mode = ctx.mode == "dpor-race"
    model = ctx.model
    use_sleep = cfg.sleep_sets

    events: List[_Event] = []
    proc_last: List[Optional[_Event]] = [None] * nprocs
    last_write: Dict[str, Optional[_Event]] = {}
    reads_since: Dict[str, List[_Event]] = {}
    stack: List[Optional[_StackEntry]] = [None] * plen
    steal_reports: List[tuple] = []
    seen_reports: Set[tuple] = set()
    results: Set[Result] = set()
    path: List[int] = list(prefix)
    hit: List[Optional[Tuple[int, ...]]] = [None]
    complete = [True]

    def make_event(proc: int) -> tuple:
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
            deps.extend(r for r in reads_since.get(loc, ()) if r.proc != proc)
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

    def hb(e: _Event, f: _Event) -> bool:
        return f.clock[e.proc] >= e.pidx

    def add_backtracks(event: _Event, deps: List[_Event]) -> None:
        for e in deps:
            if e.proc == event.proc:
                continue
            if any(f is not e and hb(e, f) for f in deps):
                continue
            v = [f for f in events[e.index + 1 : -1] if not hb(e, f)]
            v.append(event)
            first: Dict[int, _Event] = {}
            for f in v:
                if f.proc not in first:
                    first[f.proc] = f
            initials = frozenset(
                q
                for q, fq in first.items()
                if not any(g is not fq and hb(g, fq) for g in v)
            )
            preferred = event.proc if event.proc in initials else min(initials)
            if e.index < plen:
                # The target node belongs to the coordinator's top tree:
                # report the full initials so the coordinator can apply
                # the serial skip rule against its global backtrack sets.
                node = tuple(prefix[: e.index])
                report = (node, initials)
                if report in seen_reports:
                    continue
                seen_reports.add(report)
                steal_reports.append((node, initials, preferred))
            else:
                entry = stack[e.index]
                if initials & entry.backtrack:
                    continue
                entry.backtrack.add(preferred)

    # Replay: rebuild the event history and race-process prefix events,
    # reconstructing the sleep set serial DFS would carry down this
    # path.  If the shard's own choice is already sleeping at some node,
    # an earlier-dispatched sibling covers the entire subtree: still
    # race-process the prefix (extra steal reports are sound -- the
    # coordinator's skip rule dedups them) but cut the subtree.
    sleep: Set[int] = set()
    redundant = False
    for i, proc in enumerate(prefix):
        if use_sleep and seeds is not None:
            sleeping = sleep | set(seeds[i])
            if proc in sleeping:
                redundant = True
            sleeping.discard(proc)
        else:
            sleeping = set()
        event, deps = make_event(proc)
        op = engine.step(proc)
        record_event(event)
        add_backtracks(event, deps)
        if use_sleep:
            sleep = {
                q
                for q in sleeping
                if not _dependent_with_pending(op, q, engine.pending(q))
            }

    def explore(sleep: Set[int]) -> bool:
        """Returns True on an early hit (race mode)."""
        enabled = engine.runnable()
        if not enabled:
            stats.executions += 1
            execution = engine.execution()
            if race_mode:
                if races_in_execution_vc(execution, model):
                    hit[0] = tuple(path)
                    return True
            else:
                results.add(execution.result())
            return False
        if engine.depth >= cfg.max_ops:
            if cfg.allow_incomplete:
                complete[0] = False
                return False
            raise ExplorationCapError(
                f"DPOR execution exceeded {cfg.max_ops} operations; use the "
                "naive explorer for programs with spin loops",
                states=stats.states,
            )
        awake = [p for p in enabled if p not in sleep] if use_sleep else enabled
        if not awake:
            stats.sleep_cuts += 1
            return False
        stats.states += 1
        if stats.states % _STOP_CHECK_NODES == 0 and stop.is_set():
            raise _Cancelled
        entry = _StackEntry(proc=-1, op=None, backtrack={min(awake)})
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
                path.append(choice)
                try:
                    add_backtracks(event, deps)
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
                    if explore(child_sleep):
                        return True
                finally:
                    path.pop()
                    unrecord_event(undo_frame)
                    engine.undo()
                if use_sleep:
                    sleeping.add(choice)
            stats.sleep_cuts += len(entry.backtrack - entry.done)
        finally:
            stack.pop()
        return False

    if redundant:
        stats.sleep_cuts += 1
        found = False
    else:
        found = explore(sleep)
    stats.transitions = engine.transitions
    stats.max_depth = engine.max_depth
    steals = tuple(steal_reports)
    if race_mode:
        if found:
            return ("hit", hit[0], stats, complete[0], steals)
        return ("ok", None, stats, complete[0], steals)
    return ("ok", frozenset(results), stats, complete[0], steals)


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class _Coordinator:
    """Phase 1-3 driver for one sharded exploration."""

    def __init__(
        self,
        program: Program,
        cfg,
        jobs: int,
        mode: str,
        model: Optional[SynchronizationModel] = None,
        failpoints: Sequence[object] = (),
        shard_stats: Optional[ShardStats] = None,
    ) -> None:
        self.program = program
        self.cfg = cfg
        self.jobs = max(1, jobs)
        self.mode = mode
        self.model = model
        self.max_states = cfg.max_states
        self.failpoints = tuple(failpoints or ())
        self.sstats = shard_stats if shard_stats is not None else ShardStats()
        self.stats = ExplorerStats()  # coordinator-side (phase-1) counters
        self.engine = make_engine(program, record_trace=False)
        self.target = max(2, self.jobs * _SHARD_FACTOR)
        self.prefix_depth = max(2, min(cfg.max_ops - 1, _DPOR_PREFIX_DEPTH))
        self.pending: deque = deque()
        self.dispatched: Set[Tuple[int, ...]] = set()
        self.nodes: Dict[Tuple[int, ...], Set[int]] = {}  # DPOR top tree
        #: Dispatch order of the choices at each top-tree node.  A shard
        #: sleeps on its earlier-dispatched siblings (the serial sleep
        #: discipline, with dispatch order standing in for exploration
        #: order), so overlapping subtrees are explored once, not once
        #: per steal.
        self.order: Dict[Tuple[int, ...], List[int]] = {}
        self.results: Set[Result] = set()
        self.hit = False
        self.hit_path: Optional[Tuple[int, ...]] = None
        self.complete = True
        self.capped_msg: Optional[str] = None

    # -- phase 1: frontier enumeration ---------------------------------

    def _replay(self, path: Tuple[int, ...], track_cycles: bool):
        """Reset the coordinator engine to ``path``; returns on-path keys."""
        eng = self.engine
        eng.reset()
        on_path: Set[object] = set()
        for proc in path:
            if track_cycles:
                on_path.add(eng.config_key())
            eng.step(proc)
        return on_path

    def _phase1_naive(self) -> None:
        """BFS prefixes down to the work-budget frontier.

        Interior nodes replicate the serial node semantics (cycle
        pruning, interned-key dedup, cap accounting); every surviving
        frontier node -- including complete leaves, which a worker folds
        -- becomes one shard.
        """
        eng = self.engine
        track_cycles = not eng.straightline
        dedup = self.cfg.dedup
        visited: Set[object] = set()
        level: List[Tuple[int, ...]] = [()]
        depth = 0
        while level:
            if (
                len(level) + len(self.pending) >= self.target
                or depth >= min(self.cfg.max_ops, _MAX_FRONTIER_DEPTH)
            ):
                for path in level:
                    self._queue_frontier(path, track_cycles, dedup, visited)
                return
            nxt: List[Tuple[int, ...]] = []
            for path in level:
                on_path = self._replay(path, track_cycles)
                children = eng.runnable()
                if not children:
                    # A leaf: dispatch as a trivial shard, which a worker
                    # folds into the result set.
                    self._queue_shard(path)
                    continue
                cycle_key = None
                if track_cycles or dedup:
                    cycle_key = eng.config_key()
                if track_cycles and cycle_key in on_path:
                    continue  # livelock cycle: pruned, exactly as serial
                if dedup:
                    key = (cycle_key, eng.reads_key())
                    if key in visited:
                        continue
                    visited.add(key)
                self.stats.states += 1
                nxt.extend(path + (p,) for p in children)
            level = nxt
            depth += 1

    def _queue_frontier(self, path, track_cycles, dedup, visited) -> None:
        """Cycle/dedup-check a frontier node, then dispatch it."""
        eng = self.engine
        on_path = self._replay(path, track_cycles)
        if track_cycles or dedup:
            cycle_key = eng.config_key()
            if track_cycles and cycle_key in on_path:
                return
            if dedup:
                key = (cycle_key, eng.reads_key())
                if key in visited:
                    return  # an identical packed configuration is already a shard
                visited.add(key)
        self._queue_shard(path)

    def _grow_dpor(self, start: Tuple[int, ...]) -> None:
        """Extend the DPOR top tree below ``start`` with the minimum
        *awake* enabled choice, dispatching one chain shard at the
        prefix depth (or wherever the chain ends -- the worker still
        race-processes the whole prefix).

        The chain replay reconstructs the sleep set the shard's worker
        will derive from the dispatch order.  Serial seeds a node's
        backtrack set with the first awake proc; descending through a
        *sleeping* proc instead would make the worker cut the subtree
        as redundant with no other shard covering its awake siblings.
        When every enabled proc sleeps, the chain stops early: the
        dispatched shard replays the same prefix, race-processes it for
        steal reports, and re-derives the same sleep cut.
        """
        use_sleep = self.cfg.sleep_sets
        eng = getattr(self, "_dpor_engine", None)
        if eng is None:
            # The shared coordinator engine is trace-free; the sleep
            # filter needs executed ops, so DPOR growth records.
            eng = self._dpor_engine = make_engine(self.program)
        eng.reset()
        sleep: Set[int] = set()
        v: Tuple[int, ...] = ()
        for proc in start:
            sleep = self._step_with_sleep(eng, v, proc, sleep, use_sleep)
            v = v + (proc,)
        while len(v) < self.prefix_depth:
            enabled = eng.runnable()
            if not enabled:
                break
            awake = [p for p in enabled if p not in sleep]
            if not awake:
                break
            q = min(awake)
            self._schedule_choice(v, q)
            sleep = self._step_with_sleep(eng, v, q, sleep, use_sleep)
            v = v + (q,)
        self.nodes.setdefault(v, set())
        self._queue_shard(v)

    def _step_with_sleep(
        self, eng, node, proc, sleep: Set[int], use_sleep: bool
    ) -> Set[int]:
        """Step ``proc``, folding earlier-dispatched siblings into the
        sleep set and filtering by dependence -- the serial discipline,
        mirrored byte-for-byte by the shard worker's prefix replay."""
        from repro.core.dpor import _dependent_with_pending

        if not use_sleep:
            eng.step(proc)
            return sleep
        order = self.order.get(node, ())
        try:
            position = order.index(proc)
        except ValueError:
            sleeping = set(sleep)
        else:
            sleeping = sleep | set(order[:position])
        sleeping.discard(proc)
        op = eng.step(proc)
        return {
            q
            for q in sleeping
            if not _dependent_with_pending(op, q, eng.pending(q))
        }

    def _schedule_choice(self, node: Tuple[int, ...], choice: int) -> None:
        """Record ``choice`` at ``node``, fixing its dispatch position."""
        scheduled = self.nodes.setdefault(node, set())
        if choice not in scheduled:
            scheduled.add(choice)
            self.order.setdefault(node, []).append(choice)

    def _sleep_seeds(
        self, prefix: Tuple[int, ...]
    ) -> Optional[Tuple[FrozenSet[int], ...]]:
        """Earlier-dispatched siblings at every prefix node.

        The worker replays the prefix folding these in exactly as the
        serial explorer folds already-explored siblings into its sleep
        set, so a steal shard skips the subtrees its predecessors
        already cover instead of re-exploring them.
        """
        if not (
            self.mode in ("dpor-results", "dpor-race")
            and self.cfg.sleep_sets
        ):
            return None
        seeds = []
        for i in range(len(prefix)):
            order = self.order.get(prefix[:i], ())
            try:
                position = order.index(prefix[i])
            except ValueError:
                seeds.append(frozenset())
            else:
                seeds.append(frozenset(order[:position]))
        return tuple(seeds)

    def _queue_shard(self, prefix: Tuple[int, ...]) -> None:
        if prefix in self.dispatched:
            return  # seen-key dedup: no subtree runs twice
        self.dispatched.add(prefix)
        self.pending.append((prefix, self._sleep_seeds(prefix)))

    # -- phase 3: merging ----------------------------------------------

    def _take_steals(self, steals) -> None:
        for node, initials, preferred in steals:
            self.sstats.steal_reports += 1
            scheduled = self.nodes.setdefault(node, set())
            if initials & scheduled:
                continue  # an equivalent first mover is already scheduled
            self._schedule_choice(node, preferred)
            self.sstats.steals += 1
            self._grow_dpor(node + (preferred,))

    def _fold(self, prefix, payload) -> None:
        status, data, stats, complete, steals = payload
        self.stats.merge(stats)
        self.sstats.observe_shard(stats.states)
        if steals:
            self._take_steals(steals)
        if status == "cancelled":
            self.sstats.cancelled += 1
            return
        if status == "capped":
            self.capped_msg = data
            self.complete = False
            return
        if not complete:
            self.complete = False
        if status == "hit":
            self.hit = True
            if self.hit_path is None:
                self.hit_path = data
        elif data is not None:
            self.results |= data

    def _fire_coordinator_failpoint(self) -> None:
        """Parent-side failpoints (KeyboardInterrupt hygiene tests)."""
        for fp in self.failpoints:
            if getattr(fp, "task_kind", None) != "coordinator":
                continue
            try:
                fd = os.open(
                    fp.token_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                continue
            os.close(fd)
            if fp.mode == "interrupt":
                raise KeyboardInterrupt
            raise RuntimeError(f"injected {fp.mode} failpoint (coordinator)")

    # -- phase 2: dispatch ---------------------------------------------

    def _run_in_parent(self, task) -> tuple:
        """Degraded execution of a repeatedly-lost shard.

        ``_SHARD_CONTEXT`` is already published in the parent (it must be
        set before the fork), and worker-kind failpoints refuse to fire
        outside forked workers, so this is safe and failure-free modulo
        genuine cap errors.
        """
        return _run_shard(task)

    def run(self) -> None:
        global _SHARD_CONTEXT, LAST_SHARD_STATS
        dpor = self.mode in ("dpor-results", "dpor-race")
        if dpor:
            self._grow_dpor(())
        else:
            self._phase1_naive()
        self.sstats.explorations += 1
        self.sstats.frontier += len(self.pending)

        ctx = multiprocessing.get_context("fork")
        stop = ctx.Event()
        worker_cfg = replace(self.cfg, tracer=None, explore_jobs=1)
        _SHARD_CONTEXT = _ShardContext(
            self.program,
            worker_cfg,
            self.mode,
            self.model,
            self.max_states,
            stop,
            self.failpoints,
        )
        pool = ctx.Pool(processes=self.jobs)
        inflight: Dict[int, list] = {}
        next_id = 0
        stop_at: Optional[float] = None
        try:
            while self.pending or inflight:
                while (
                    self.pending
                    and len(inflight) < self.jobs * 2
                    and stop_at is None
                ):
                    task = self.pending.popleft()
                    handle = pool.apply_async(_run_shard, (task,))
                    inflight[next_id] = [task, handle, 0]
                    next_id += 1
                    self.sstats.shards += 1
                if not inflight:
                    continue
                obs_stream.parent_poll()
                done = [i for i, rec in inflight.items() if rec[1].ready()]
                if not done:
                    self._check_workers(pool, inflight)
                    time.sleep(0.002)
                    continue
                for i in done:
                    task, handle, _retries = inflight.pop(i)
                    try:
                        payload = handle.get()
                    except Exception:
                        # An injected task error (or an unpicklable
                        # result): the shard is pure, so redo it here.
                        payload = self._run_in_parent(task)
                    self._fold(task, payload)
                    self._fire_coordinator_failpoint()
                if stop_at is None and self._should_stop():
                    stop.set()
                    stop_at = time.monotonic()
                    self.pending.clear()
            if stop_at is not None:
                self.sstats.cancel_latency_us = int(
                    (time.monotonic() - stop_at) * 1e6
                )
        finally:
            stop.set()
            pool.terminate()
            pool.join()
            _SHARD_CONTEXT = None
        LAST_SHARD_STATS = self.sstats

    def _should_stop(self) -> bool:
        if self.hit or self.capped_msg is not None:
            return True
        if self.mode == "results" and self.stats.states > self.max_states:
            if not self.cfg.allow_incomplete:
                self.capped_msg = (
                    f"visited more than {self.max_states} configurations "
                    "across shards"
                )
            self.complete = False
            return True
        return False

    def _check_workers(self, pool, inflight) -> None:
        """Detect worker deaths; resubmit in-flight shards (they are pure)."""
        pids = {p.pid for p in pool._pool}
        known = getattr(self, "_worker_pids", None)
        if known is None:
            self._worker_pids = pids
            return
        if pids == known:
            return
        self._worker_pids = pids
        for rec in inflight.values():
            if rec[1].ready():
                continue
            task, _old, retries = rec
            if retries >= 2:
                rec[1] = _ImmediateResult(self._run_in_parent(task))
            else:
                rec[1] = pool.apply_async(_run_shard, (task,))
            rec[2] = retries + 1
            self.sstats.resubmitted += 1

    def raise_if_capped(self, error_cls) -> None:
        if self.capped_msg is None:
            return
        if self.cfg.allow_incomplete:
            return
        raise error_cls(
            self.capped_msg,
            states=self.stats.states,
            frontier=self.sstats.frontier,
            shards=self.sstats.shards,
        )


class _ImmediateResult:
    """AsyncResult shim for shards degraded to in-parent execution."""

    def __init__(self, value):
        self._value = value

    def ready(self) -> bool:
        return True

    def get(self):
        return self._value


# ---------------------------------------------------------------------------
# Public entry points (one per serial caller)
# ---------------------------------------------------------------------------


def parallel_explore(
    program: Program,
    cfg,
    jobs: int,
    failpoints: Sequence[object] = (),
    shard_stats: Optional[ShardStats] = None,
):
    """Sharded counterpart of :func:`repro.core.sc.explore` for
    result-set-only configurations.  Returns an ``Exploration`` whose
    result set is bit-identical to the serial one."""
    from repro.core.sc import Exploration, ExplorationCapError

    coord = _Coordinator(
        program,
        cfg,
        jobs,
        "results",
        failpoints=failpoints,
        shard_stats=shard_stats,
    )
    coord.run()
    coord.raise_if_capped(ExplorationCapError)
    stats = coord.stats
    stats.peak_visited = max(stats.peak_visited, len(coord.results))
    return Exploration(
        program=program,
        executions=[],
        results=coord.results,
        complete=coord.complete,
        states_visited=stats.states,
        stats=stats,
    )


def parallel_check_program_dpor(
    program: Program,
    model: SynchronizationModel,
    cfg,
    jobs: int,
    failpoints: Sequence[object] = (),
    shard_stats: Optional[ShardStats] = None,
):
    """Sharded counterpart of :func:`repro.core.dpor.check_program_dpor`."""
    from repro.core.drf0 import (
        DRF0Report,
        _replay_execution,
        races_in_execution_vc,
    )
    from repro.core.sc import ExplorationCapError

    coord = _Coordinator(
        program,
        cfg,
        jobs,
        "dpor-race",
        model=model,
        failpoints=failpoints,
        shard_stats=shard_stats,
    )
    coord.run()
    coord.raise_if_capped(ExplorationCapError)
    stats = coord.stats
    if coord.hit:
        witness = _replay_execution(program, coord.hit_path)
        races = races_in_execution_vc(witness, model)
        return DRF0Report(
            program=program,
            model_name=model.name,
            obeys=False,
            executions_checked=stats.executions,
            race=races[0],
            witness=witness,
            stats=stats,
        )
    return DRF0Report(
        program=program,
        model_name=model.name,
        obeys=True,
        executions_checked=stats.executions,
        complete=coord.complete,
        stats=stats,
    )


def parallel_sc_results_dpor(
    program: Program,
    cfg,
    jobs: int,
    failpoints: Sequence[object] = (),
    shard_stats: Optional[ShardStats] = None,
) -> FrozenSet[Result]:
    """Sharded counterpart of :func:`repro.core.dpor.sc_results_dpor`."""
    from repro.core.sc import ExplorationCapError

    coord = _Coordinator(
        program,
        cfg,
        jobs,
        "dpor-results",
        model=DRF0_MODEL,
        failpoints=failpoints,
        shard_stats=shard_stats,
    )
    coord.run()
    coord.raise_if_capped(ExplorationCapError)
    return frozenset(coord.results)
