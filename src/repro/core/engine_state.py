"""The shared in-place transition engine behind every interleaving search.

Three searches bottom out in the same inner loop -- the enumerator
(:func:`repro.core.sc.explore`), the guided SC-membership search
(:func:`repro.core.contract.is_sc_result`), and the DRF0 configuration
search (:func:`repro.core.drf0.check_program`).  Historically each DFS
node paid a deep copy of every thread state, a ``dict(memory)`` copy, and a
``tuple(sorted(memory.items()))`` key -- O(procs + |memory| log |memory|)
per node.  :class:`EngineState` replaces all of that with *in-place
execution plus an undo log*, the standard stateless-search technique from
the DPOR literature (Flanagan & Godefroid, POPL 2005):

* :meth:`step` executes one memory operation directly against the live
  configuration and pushes a small undo frame (the stepping thread's
  pre-state, the single overwritten memory value, the pre-step key caches);
* :meth:`undo` pops the frame and restores the configuration exactly;
* configuration keys are **incremental**: per-thread keys are re-derived
  only for the thread that moved, the canonical memory key is a tuple of
  values in fixed sorted-location order (the location set is closed under
  :meth:`repro.machine.program.Program.make`) rebuilt only after a write
  invalidates it, and all keys are hash-consed so the visited set shares
  one object per distinct key.

The engine also carries the execution trace, the per-processor read
histories, and the program-order counters, so explorers read finished
:class:`~repro.core.execution.Execution`/:class:`~repro.core.execution.Result`
values straight off it at leaves.

:class:`ExplorerStats` is the profiling layer every explorer fills in:
states, transitions, executions, undo depth, peak visited-set size.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.execution import Execution, Result
from repro.core.ops import Operation
from repro.core.types import Location, Value
from repro.machine.isa import BranchIf, Jump
from repro.machine.interpreter import (
    MemRequest,
    ThreadState,
    complete,
    run_to_memory_op,
)
from repro.machine.program import Program


@dataclass
class ExplorerStats:
    """Counters every exploration fills in (the E10 profiling layer).

    Attributes:
        states: Configurations expanded (with dedup: *distinct* ones).
        transitions: Memory operations executed (:meth:`EngineState.step`
            calls), i.e. undo-log pushes.
        executions: Complete executions reached.
        max_depth: Peak undo-log depth (longest execution prefix held).
        peak_visited: Final size of the dedup set (it only grows, so this
            is also its peak).
    """

    states: int = 0
    transitions: int = 0
    executions: int = 0
    max_depth: int = 0
    peak_visited: int = 0

    def merge(self, other: "ExplorerStats") -> None:
        """Accumulate another exploration's counters into this one."""
        self.states += other.states
        self.transitions += other.transitions
        self.executions += other.executions
        self.max_depth = max(self.max_depth, other.max_depth)
        self.peak_visited = max(self.peak_visited, other.peak_visited)

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict form for JSON reports."""
        return {
            "states": self.states,
            "transitions": self.transitions,
            "executions": self.executions,
            "max_depth": self.max_depth,
            "peak_visited": self.peak_visited,
        }


class _Thread:
    """Exploration-time view of one thread: state plus pending request."""

    __slots__ = ("state", "pending")

    def __init__(self, state: ThreadState, pending: Optional[MemRequest]) -> None:
        self.state = state
        self.pending = pending

    def copy(self) -> "_Thread":
        return _Thread(self.state.copy(), self.pending)


def _advance(program: Program, proc: int, thread: _Thread) -> None:
    """Run thread ``proc`` to its next memory operation (skipping delays)."""
    pending, _ = run_to_memory_op(
        program.threads[proc], thread.state, skip_delays=True
    )
    assert pending is None or isinstance(pending, MemRequest)
    thread.pending = pending


def _initial_threads(program: Program) -> List[_Thread]:
    threads = []
    for proc in range(program.num_procs):
        thread = _Thread(ThreadState(), None)
        _advance(program, proc, thread)
        threads.append(thread)
    return threads


def execute_atomically(
    memory: Dict[Location, Value], request: MemRequest
) -> Tuple[Optional[Value], Optional[Value]]:
    """Perform one memory operation atomically against ``memory``.

    Returns ``(value_read, value_written)`` with ``None`` for the missing
    component.  This tiny function is the entire memory semantics of the
    idealized architecture.  (:class:`EngineState` inlines the same
    semantics against its fixed-order value array; this dict form remains
    for callers that carry plain memory mappings.)
    """
    value_read: Optional[Value] = None
    value_written: Optional[Value] = None
    if request.kind.has_read:
        value_read = memory[request.location]
    if request.kind.has_write:
        assert request.write_value is not None
        memory[request.location] = request.write_value
        value_written = request.write_value
    return value_read, value_written


def _is_straightline(program: Program) -> bool:
    """True when no thread has a backward branch (hence no loops)."""
    for code in program.threads:
        for index, instr in enumerate(code.instructions):
            if isinstance(instr, (Jump, BranchIf)) and (
                code.target(instr.label) <= index
            ):
                return False
    return True


#: Program-derived immutables, cached per live Program object so callers
#: that build many engines for one program (the guided SC-membership
#: search constructs one per judged result) do not rescan the code each
#: time.  Keyed by id() with a weakref guard -- Program is weakref-able
#: but not hashable -- and evicted when the program is collected.
_PROGRAM_META: Dict[int, tuple] = {}


def _program_meta(program: Program) -> tuple:
    """``(straightline, locs, loc_index, reg_orders)`` for ``program``."""
    key = id(program)
    entry = _PROGRAM_META.get(key)
    if entry is not None:
        ref, meta = entry
        if ref() is program:
            return meta
    locs = tuple(sorted(program.initial_memory))
    meta = (
        _is_straightline(program),
        locs,
        {loc: i for i, loc in enumerate(locs)},
        tuple(
            tuple(
                sorted(
                    {
                        instr.dst
                        for instr in code.instructions
                        if hasattr(instr, "dst")
                    }
                )
            )
            for code in program.threads
        ),
    )
    _PROGRAM_META[key] = (
        weakref.ref(program, lambda _ref, _key=key: _PROGRAM_META.pop(_key, None)),
        meta,
    )
    return meta


class EngineState:
    """One live configuration of the idealized architecture, with undo.

    The engine owns the mutable configuration -- thread states, pending
    requests, memory, program-order counters, the trace so far, and the
    per-processor read histories -- and exposes :meth:`step`/:meth:`undo`
    so a DFS explores the whole tree on a *single* configuration instead
    of copying it at every node.

    The explorers run on :class:`repro.core.compile.CompiledEngine`;
    this interpreted engine is its differential oracle
    (:func:`repro.core.compile.interpreted_engine`) and its fallback for
    a program that will not compile.
    """

    __slots__ = (
        "program",
        "threads",
        "po_counts",
        "trace",
        "reads",
        "transitions",
        "max_depth",
        "straightline",
        "_locs",
        "_loc_index",
        "_mem_values",
        "_mem_key",
        "_reg_orders",
        "_thread_keys",
        "_log",
        "_interned",
        "_op_cache",
        "tracer",
    )

    def __init__(self, program: Program) -> None:
        self.program = program
        self.threads = _initial_threads(program)
        self.po_counts = [0] * program.num_procs
        self.trace: List[Operation] = []
        #: Per processor, the tuple of values its reads returned so far (in
        #: program order).  Tuples, so key construction is allocation-only.
        self.reads: List[Tuple[Value, ...]] = [() for _ in self.threads]
        self.transitions = 0
        self.max_depth = 0
        #: ``straightline`` is True when no thread has a backward branch.
        #: Then every step strictly advances the stepping thread's pc, a DFS
        #: path can never revisit a configuration, and explorers skip
        #: livelock-cycle bookkeeping (and, without dedup, key maintenance
        #: entirely).  ``_reg_orders`` gives, per processor, the registers
        #: its code can write in fixed sorted order: the thread key is
        #: (pc, values in this order), no per-step ``sorted(regs.items())``.
        #: Registers never written read as 0, the same default
        #: :meth:`ThreadState.read_reg` applies.
        self.straightline, self._locs, self._loc_index, self._reg_orders = (
            _program_meta(program)
        )
        self._mem_values: List[Value] = [
            program.initial_memory[loc] for loc in self._locs
        ]
        self._interned: Dict[object, object] = {}
        self._mem_key: Optional[Tuple[Value, ...]] = self._intern(
            tuple(self._mem_values)
        )
        self._thread_keys: List[object] = [
            self._intern(self._thread_key(proc))
            for proc in range(program.num_procs)
        ]
        #: Undo frames: (proc, request, pc, regs, thread_key, mem_key,
        #: old_value_or_None_marker, old_reads_tuple).
        self._log: List[tuple] = []
        #: Hash-consed dynamic operations: the same (uid, proc, po_index,
        #: kind, location, values) access recurs across sibling branches,
        #: and a dict probe beats a frozen-dataclass construction ~5x.
        #: Operations are immutable, so sharing is safe.
        self._op_cache: Dict[tuple, Operation] = {}
        #: Optional observability tracer.  ``None`` (the default) keeps the
        #: hot loop free of even an attribute call on a null object; the
        #: explorers set it from their configuration when tracing is on.
        self.tracer = None

    def _thread_key(self, proc: int) -> tuple:
        """Hashable state key for one thread: pc plus register file."""
        state = self.threads[proc].state
        regs = state.regs
        return (state.pc,) + tuple(
            regs.get(r, 0) for r in self._reg_orders[proc]
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Current undo-log depth == number of executed operations."""
        return len(self.trace)

    def runnable(self) -> List[int]:
        """Processors with a pending memory request, in processor order.

        Built fresh per call (a scan over ``num_procs`` pending slots);
        callers iterate it while stepping the engine.  A scan beats the
        incrementally-maintained sorted list it replaced: maintaining one
        costs an O(n) ``list.remove`` on every halting step and a sorted
        re-insert on every undo of one, and those fire once per thread per
        explored interleaving.
        """
        return [
            proc
            for proc, thread in enumerate(self.threads)
            if thread.pending is not None
        ]

    def pending(self, proc: int) -> Optional[MemRequest]:
        """The request processor ``proc`` is blocked on (``None`` = halted)."""
        return self.threads[proc].pending

    def read_value(self, location: Location) -> Value:
        """Current memory value at ``location`` (what a read would return)."""
        return self._mem_values[self._loc_index[location]]

    # ------------------------------------------------------------------
    # Incremental keys
    # ------------------------------------------------------------------

    def _intern(self, key):
        """Hash-cons ``key`` so equal keys share one object in visited sets."""
        return self._interned.setdefault(key, key)

    def memory_key(self) -> Tuple[Value, ...]:
        """Canonical memory key: values in fixed sorted-location order.

        The location set is closed (every accessed location is in
        ``initial_memory``), so this tuple determines ``sorted(items())``
        bijectively -- no per-node sort needed.  Cached until a write
        invalidates it.
        """
        key = self._mem_key
        if key is None:
            key = self._mem_key = self._intern(tuple(self._mem_values))
        return key

    def threads_key(self) -> tuple:
        """Tuple of per-thread keys.

        Maintained lazily: :meth:`step` only marks the moved thread's key
        dirty, so explorers that never read keys (straight-line programs
        without dedup) pay nothing, and key readers re-derive at most the
        one thread that moved since the last read.
        """
        keys = self._thread_keys
        for proc, key in enumerate(keys):
            if key is None:
                keys[proc] = self._intern(self._thread_key(proc))
        return self._intern(tuple(keys))

    def config_key(self) -> tuple:
        """(thread states, memory) key -- the livelock-cycle/dedup core."""
        return (self.threads_key(), self.memory_key())

    def reads_key(self) -> tuple:
        """Per-processor read-history tuple (the observation component)."""
        return tuple(self.reads)

    def read_counts(self) -> Tuple[int, ...]:
        """How many reads each processor has completed."""
        return tuple(len(r) for r in self.reads)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def step(self, proc: int) -> Operation:
        """Execute ``proc``'s pending operation in place; push an undo frame.

        Returns the executed :class:`Operation` (uid = completion index).
        """
        thread = self.threads[proc]
        request = thread.pending
        assert request is not None
        state = thread.state
        kind = request.kind
        mem_values = self._mem_values
        index = self._loc_index[request.location]
        has_write = kind.has_write
        old_value = mem_values[index] if has_write else None
        reads = self.reads
        self._log.append(
            (
                proc,
                request,
                state.snapshot(),
                self._thread_keys[proc],
                self._mem_key,
                old_value,
                reads[proc],
            )
        )
        value_read: Optional[Value] = None
        value_written: Optional[Value] = None
        if kind.has_read:
            value_read = mem_values[index]
            reads[proc] = reads[proc] + (value_read,)
        if has_write:
            assert request.write_value is not None
            value_written = request.write_value
            mem_values[index] = value_written
            self._mem_key = None
        trace = self.trace
        op_key = (
            len(trace),
            proc,
            self.po_counts[proc],
            kind,
            request.location,
            value_read,
            value_written,
        )
        op = self._op_cache.get(op_key)
        if op is None:
            op = self._op_cache[op_key] = Operation(*op_key)
        trace.append(op)
        self.po_counts[proc] += 1
        complete(self.program.threads[proc], state, request, value_read)
        _advance(self.program, proc, thread)
        self._thread_keys[proc] = None  # dirty; re-derived on next key read
        self.transitions += 1
        if len(trace) > self.max_depth:
            self.max_depth = len(trace)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "engine", "step", f"T{proc}", self.transitions,
                args={
                    "depth": len(trace),
                    "op": f"{kind.value} {request.location}",
                },
            )
        return op

    def undo(self) -> None:
        """Reverse the most recent :meth:`step` exactly."""
        proc, request, snapshot, thread_key, mem_key, old_value, old_reads = (
            self._log.pop()
        )
        thread = self.threads[proc]
        thread.state.restore(snapshot)
        thread.pending = request
        self.po_counts[proc] -= 1
        self.trace.pop()
        self.reads[proc] = old_reads
        if request.kind.has_write:
            self._mem_values[self._loc_index[request.location]] = old_value
        self._mem_key = mem_key
        self._thread_keys[proc] = thread_key
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "engine", "undo", f"T{proc}", self.transitions,
                args={"depth": len(self.trace)},
            )

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------

    def final_memory(self) -> Tuple[Tuple[Location, Value], ...]:
        """Canonical (sorted-tuple) form of the current memory contents."""
        return tuple(zip(self._locs, self._mem_values))

    def result(self) -> Result:
        """The observable :class:`Result` of the current (finished) path."""
        return Result(tuple(self.reads), self.final_memory())

    def execution(self) -> Execution:
        """The current (finished) path as an :class:`Execution`."""
        return Execution(self.program, tuple(self.trace), self.final_memory())
