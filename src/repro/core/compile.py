"""Program-specialized compiled execution: the explorers' fast inner loop.

E10 left a real regression: the in-place do/undo engine *lost to the
legacy snapshot explorers* on small litmus-sized runs, because every
:meth:`~repro.core.engine_state.EngineState.step` still paid
``ThreadState`` snapshot/restore (a dict copy), ``run_to_memory_op``
isinstance-dispatch over the ISA, and nested-tuple key hash-consing --
costs that dwarf the useful work of a 6-op litmus test.  Those tiny runs
are exactly what every Definition-2/DRF0 verdict bottoms out in.

This module compiles each :class:`~repro.machine.program.Program` once
into program-specialized execution:

* **Packed state.**  The whole configuration lives in one flat ``list``
  of ints ``S``: per thread a segment ``[pc, reg0, reg1, ...]`` (that
  thread's registers in sorted name order), then the shared memory values
  in sorted-location order.  The packed configuration key is simply the
  interned ``tuple(S)`` -- a flat int tuple, hashed once, instead of the
  interpreter's nested (thread-keys, memory-key) tuples.  The flat key
  induces exactly the same equivalence classes: registers a thread never
  writes stay 0 forever, and the pc stored in ``S`` is the pc of the
  pending memory instruction, i.e. the same (pc, registers, memory)
  triple the interpreted keys encode.

* **Generated step closures.**  Each thread's code is compiled (via
  ``exec`` of generated source) into one ``advance(S)`` function that
  runs the thread's local instructions as direct array reads/writes and
  returns ``(pc, write_value)`` of the next memory instruction -- or
  ``None`` when the thread halts.  No instruction dispatch, no operand
  boxing, no ``ThreadState``.

* **Static descriptors.**  Everything else a step needs -- op kind,
  location, the memory slot index, the destination register slot -- is
  precomputed per (thread, pc) at compile time, so
  :meth:`CompiledEngine.step` is a few list writes plus an undo-frame
  append, and :meth:`CompiledEngine.undo` is a slice assignment.

:func:`make_engine` is the factory every explorer routes through.  It
returns a :class:`CompiledEngine` when compilation succeeds, and falls
back to the interpreted :class:`~repro.core.engine_state.EngineState`
when it does not (an unknown future instruction) or inside the
:func:`interpreted_engine` block the differential tests use.  Both
engines expose the same interface and produce bit-identical results,
executions, and :class:`~repro.core.engine_state.ExplorerStats` counts --
pinned by ``tests/test_explorer_equivalence.py`` against each other and
the frozen :mod:`repro.core._legacy` oracles.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.core.engine_state import EngineState, _program_meta
from repro.core.execution import Execution, Result
from repro.core.ops import Operation
from repro.core.types import Location, OpKind, Value
from repro.machine.interpreter import MAX_LOCAL_STEPS, InterpreterError
from repro.machine.isa import (
    Add,
    BranchIf,
    Delay,
    Div,
    Fence,
    Halt,
    Jump,
    MemoryInstruction,
    Mov,
    Mul,
    Store,
    Sub,
    SyncStore,
    TestAndSet,
    Unset,
)
from repro.machine.program import Program, registers_used

__all__ = [
    "CompiledEngine",
    "CompiledProgram",
    "CompiledRequest",
    "compiled_enabled",
    "compiled_program",
    "interpreted_engine",
    "make_engine",
]


class CompiledRequest:
    """Static stand-in for a pending :class:`~repro.machine.interpreter.MemRequest`.

    One immutable instance per (thread, pc) memory instruction, built at
    compile time and returned by :meth:`CompiledEngine.pending`.  It
    carries what schedulers inspect -- the instruction, its kind, its
    location.  It deliberately has **no** ``write_value`` attribute: the
    compiled engine resolves write values internally (they can depend on
    registers), so reading one here would be silently stale.
    """

    __slots__ = ("instr", "kind", "location")

    def __init__(self, instr: MemoryInstruction) -> None:
        self.instr = instr
        self.kind = instr.kind
        self.location = instr.location

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledRequest {self.kind.value} {self.location}>"


def _operand(value, reg_slot: Dict[str, int]) -> str:
    """Source expression for an operand: register slot read or literal."""
    if isinstance(value, str):
        return f"S[{reg_slot[value]}]"
    return repr(value)


def _has_backward_branch(code) -> bool:
    return any(
        isinstance(instr, (Jump, BranchIf))
        and code.target(instr.label) <= index
        for index, instr in enumerate(code.instructions)
    )


def _thread_source(
    code, base: int, reg_slot: Dict[str, int], fname: str
) -> str:
    """Generate the ``advance`` function source for one thread.

    The function resumes from ``pc = S[base]``, runs local instructions
    as direct array operations, and returns ``(pc, write_value)`` at the
    next memory instruction (storing its pc back into ``S``) or ``None``
    on halt.  Control flow is a flat ``if pc == i`` chain: fall-through
    handles straight-line code and forward branches (later tests simply
    skip), backward branches restart the chain with ``continue``.
    Threads with a backward branch also carry the interpreter's
    local-step guard so a local infinite loop raises instead of hanging.
    """
    guarded = _has_backward_branch(code)
    n = len(code.instructions)
    lines = [f"def {fname}(S):", f"    pc = S[{base}]"]
    if guarded:
        lines.append("    n_local = 0")
    lines.append("    while True:")

    def guard(out: List[str], indent: str) -> None:
        if not guarded:
            return
        out.append(f"{indent}n_local += 1")
        out.append(f"{indent}if n_local > {MAX_LOCAL_STEPS}:")
        out.append(
            f"{indent}    raise InterpreterError("
            "'thread executed too many local steps without reaching "
            "memory; likely a local infinite loop')"
        )

    for i, instr in enumerate(code.instructions):
        lines.append(f"        if pc == {i}:")
        b = "            "
        if isinstance(instr, MemoryInstruction):
            if isinstance(instr, (Store, SyncStore)):
                wv = _operand(instr.src, reg_slot)
            elif isinstance(instr, Unset):
                wv = "0"
            elif isinstance(instr, TestAndSet):
                wv = repr(instr.set_value)
            else:  # Load / SyncLoad: no write component
                wv = "0"
            lines.append(f"{b}S[{base}] = {i}")
            lines.append(f"{b}return ({i}, {wv})")
        elif isinstance(instr, Mov):
            lines.append(f"{b}S[{reg_slot[instr.dst]}] = {_operand(instr.src, reg_slot)}")
            lines.append(f"{b}pc = {i + 1}")
        elif isinstance(instr, (Add, Sub, Mul)):
            op = {Add: "+", Sub: "-", Mul: "*"}[type(instr)]
            a = _operand(instr.a, reg_slot)
            c = _operand(instr.b, reg_slot)
            lines.append(f"{b}S[{reg_slot[instr.dst]}] = {a} {op} {c}")
            lines.append(f"{b}pc = {i + 1}")
        elif isinstance(instr, Div):
            a = _operand(instr.a, reg_slot)
            c = _operand(instr.b, reg_slot)
            lines.append(f"{b}_den = {c}")
            lines.append(
                f"{b}S[{reg_slot[instr.dst]}] = {a} // _den if _den else 0"
            )
            lines.append(f"{b}pc = {i + 1}")
        elif isinstance(instr, Jump):
            target = code.target(instr.label)
            if target <= i:
                guard(lines, b)
                lines.append(f"{b}pc = {target}")
                lines.append(f"{b}continue")
            else:
                lines.append(f"{b}pc = {target}")
        elif isinstance(instr, BranchIf):
            target = code.target(instr.label)
            cond = (
                f"{_operand(instr.a, reg_slot)} {instr.cond.value} "
                f"{_operand(instr.b, reg_slot)}"
            )
            if target <= i:
                lines.append(f"{b}if {cond}:")
                guard(lines, b + "    ")
                lines.append(f"{b}    pc = {target}")
                lines.append(f"{b}    continue")
                lines.append(f"{b}pc = {i + 1}")
            else:
                lines.append(f"{b}pc = {target} if {cond} else {i + 1}")
        elif isinstance(instr, (Delay, Fence)):
            # No-ops on the idealized architecture (matching the
            # interpreter's skip_delays=True mode).
            lines.append(f"{b}pc = {i + 1}")
        elif isinstance(instr, Halt):
            lines.append(f"{b}S[{base}] = {n}")
            lines.append(f"{b}return None")
        else:
            raise NotImplementedError(
                f"cannot compile instruction {instr!r}"
            )
    # pc ran past the last instruction: implicit halt.
    lines.append(f"        S[{base}] = pc")
    lines.append("        return None")
    return "\n".join(lines)


class CompiledProgram:
    """Immutable compile-time artifacts of one program.

    Holds only *derived* data (no strong reference to the
    :class:`~repro.machine.program.Program` itself, so the weakref cache
    can evict it).
    """

    __slots__ = (
        "num_procs",
        "straightline",
        "locs",
        "loc_index",
        "mem_base",
        "bases",
        "ends",
        "initial",
        "advance",
        "descs",
    )

    def __init__(self, program: Program) -> None:
        straightline, locs, loc_index, _ = _program_meta(program)
        self.num_procs = program.num_procs
        self.straightline = straightline
        self.locs: Tuple[Location, ...] = locs
        self.loc_index = loc_index
        bases: List[int] = []
        ends: List[int] = []
        reg_slots: List[Dict[str, int]] = []
        offset = 0
        for code in program.threads:
            bases.append(offset)
            regs = registers_used(code.instructions)
            reg_slots.append(
                {r: offset + 1 + k for k, r in enumerate(regs)}
            )
            offset += 1 + len(regs)
            ends.append(offset)
        self.bases = tuple(bases)
        self.ends = tuple(ends)
        self.mem_base = offset
        self.initial = tuple(
            [0] * offset + [program.initial_memory[loc] for loc in locs]
        )

        sources = []
        fnames = []
        for proc, code in enumerate(program.threads):
            fname = f"_advance_{proc}"
            fnames.append(fname)
            sources.append(
                _thread_source(code, bases[proc], reg_slots[proc], fname)
            )
        namespace: Dict[str, object] = {"InterpreterError": InterpreterError}
        exec(  # noqa: S102 - source is generated from a closed ISA
            compile(
                "\n".join(sources), f"<compiled {program.name}>", "exec"
            ),
            namespace,
        )
        self.advance = tuple(namespace[f] for f in fnames)

        #: Per (thread, pc) static step descriptors:
        #: (kind, location, memory slot, has_read, has_write,
        #:  destination register slot or -1, CompiledRequest, kind id).
        #: The kind id is a small int standing in for the OpKind member in
        #: op-cache keys (enum hashing is a Python-level call).
        kind_ids = {kind: index for index, kind in enumerate(OpKind)}
        descs: List[List[Optional[tuple]]] = []
        for proc, code in enumerate(program.threads):
            row: List[Optional[tuple]] = []
            for instr in code.instructions:
                if not isinstance(instr, MemoryInstruction):
                    row.append(None)
                    continue
                kind = instr.kind
                dst = getattr(instr, "dst", None)
                row.append(
                    (
                        kind,
                        instr.location,
                        offset + loc_index[instr.location],
                        kind.has_read,
                        kind.has_write,
                        reg_slots[proc][dst] if dst is not None else -1,
                        CompiledRequest(instr),
                        kind_ids[kind],
                    )
                )
            descs.append(row)
        self.descs = tuple(tuple(row) for row in descs)


class CompiledEngine:
    """Drop-in :class:`~repro.core.engine_state.EngineState` replacement
    running a :class:`CompiledProgram`.

    Same interface, same observable behaviour (results, executions,
    stats counts), different inner loop: state is the flat int list
    ``S``, a step is a handful of list writes plus a generated
    ``advance`` call, an undo is a slice assignment, and the
    configuration key is the interned ``tuple(S)``.

    ``record_trace=False`` skips building :class:`Operation` objects and
    the trace list entirely -- for searches that never read the trace
    (the guided Definition-2 membership search), this removes the last
    allocation from the hot loop.  :meth:`execution` then refuses rather
    than returning a truncated trace.
    """

    __slots__ = (
        "program",
        "cp",
        "S",
        "straightline",
        "transitions",
        "max_depth",
        "reads",
        "trace",
        "po_counts",
        "tracer",
        "_pending",
        "_log",
        "_key",
        "_interned",
        "_op_cache",
        "_depth",
        "_record_trace",
        "_advance",
        "_descs",
        "_bases",
        "_ends",
    )

    def __init__(
        self, program: Program, cp: CompiledProgram, record_trace: bool = True
    ) -> None:
        self.program = program
        self.cp = cp
        self.straightline = cp.straightline
        # Hot tables rebound as instance attributes: one load in step()
        # instead of two.
        self._advance = cp.advance
        self._descs = cp.descs
        self._bases = cp.bases
        self._ends = cp.ends
        S = list(cp.initial)
        self.S = S
        advance = cp.advance
        #: Per thread, the ``(pc, write_value)`` of its pending memory
        #: instruction, or ``None`` once halted.
        self._pending: List[Optional[Tuple[int, Value]]] = [
            advance[proc](S) for proc in range(cp.num_procs)
        ]
        self.po_counts = [0] * cp.num_procs
        self.trace: List[Operation] = []
        self.reads: List[Tuple[Value, ...]] = [
            () for _ in range(cp.num_procs)
        ]
        self.transitions = 0
        self.max_depth = 0
        self._depth = 0
        self._log: List[tuple] = []
        self._interned: Dict[tuple, tuple] = {}
        self._op_cache: Dict[tuple, Operation] = {}
        self._key: Optional[tuple] = None
        self.tracer = None
        self._record_trace = record_trace

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Current undo-log depth == number of executed operations."""
        return self._depth

    def runnable(self) -> List[int]:
        """Processors with a pending memory request, in processor order."""
        return [
            proc
            for proc, pend in enumerate(self._pending)
            if pend is not None
        ]

    def pending(self, proc: int) -> Optional[CompiledRequest]:
        """The request ``proc`` is blocked on (``None`` = halted)."""
        pend = self._pending[proc]
        if pend is None:
            return None
        return self._descs[proc][pend[0]][6]

    def read_value(self, location: Location) -> Value:
        """Current memory value at ``location``."""
        cp = self.cp
        return self.S[cp.mem_base + cp.loc_index[location]]

    # ------------------------------------------------------------------
    # Packed keys
    # ------------------------------------------------------------------

    def config_key(self) -> tuple:
        """The packed configuration key: interned flat ``tuple(S)``."""
        key = self._key
        if key is None:
            key = tuple(self.S)
            key = self._key = self._interned.setdefault(key, key)
        return key

    def reads_key(self) -> tuple:
        """Per-processor read-history tuple (the observation component)."""
        return tuple(self.reads)

    def read_counts(self) -> Tuple[int, ...]:
        """How many reads each processor has completed."""
        return tuple(len(r) for r in self.reads)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def step(self, proc: int) -> Optional[Operation]:
        """Execute ``proc``'s pending operation in place; push an undo frame.

        Returns the executed :class:`Operation`, or ``None`` when the
        engine was built with ``record_trace=False``.
        """
        S = self.S
        pend = self._pending[proc]
        mem_pc, write_value = pend
        kind, location, mloc, has_read, has_write, dst, _request, kind_id = (
            self._descs[proc][mem_pc]
        )
        lo = self._bases[proc]
        hi = self._ends[proc]
        reads = self.reads
        old_reads = reads[proc]
        # The undo frame: the thread segment (pc + registers), the one
        # overwritten memory value, the read history, the key cache.
        self._log.append(
            (proc, pend, S[lo:hi], S[mloc], old_reads, self._key)
        )
        value_read: Optional[Value] = None
        if has_read:
            value_read = S[mloc]
            reads[proc] = old_reads + (value_read,)
            if dst >= 0:
                S[dst] = value_read
        if has_write:
            S[mloc] = write_value
        S[lo] = mem_pc + 1
        self._pending[proc] = self._advance[proc](S)
        self._key = None
        po_index = self.po_counts[proc]
        self.po_counts[proc] = po_index + 1
        self.transitions += 1
        depth = self._depth + 1
        self._depth = depth
        if depth > self.max_depth:
            self.max_depth = depth
        op = None
        if self._record_trace:
            trace = self.trace
            # The cache key uses the small-int kind id (enum hashing is a
            # Python-level __hash__ call); the Operation itself carries
            # the real OpKind member.
            op_key = (
                len(trace),
                proc,
                po_index,
                kind_id,
                location,
                value_read,
                write_value if has_write else None,
            )
            op = self._op_cache.get(op_key)
            if op is None:
                op = self._op_cache[op_key] = Operation(
                    len(trace),
                    proc,
                    po_index,
                    kind,
                    location,
                    value_read,
                    write_value if has_write else None,
                )
            trace.append(op)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "engine", "step", f"T{proc}", self.transitions,
                args={
                    "depth": depth,
                    "op": f"{kind.value} {location}",
                },
            )
        return op

    def undo(self) -> None:
        """Reverse the most recent :meth:`step` exactly."""
        proc, pend, frame_regs, old_mem, old_reads, key = self._log.pop()
        S = self.S
        # Restoring the memory slot unconditionally is safe: for a pure
        # read it rewrites the value already there.
        S[self._descs[proc][pend[0]][2]] = old_mem
        S[self._bases[proc] : self._ends[proc]] = frame_regs
        self._pending[proc] = pend
        self.po_counts[proc] -= 1
        self.reads[proc] = old_reads
        self._key = key
        self._depth -= 1
        if self._record_trace:
            self.trace.pop()
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "engine", "undo", f"T{proc}", self.transitions,
                args={"depth": self._depth},
            )

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------

    def final_memory(self) -> Tuple[Tuple[Location, Value], ...]:
        """Canonical (sorted-tuple) form of the current memory contents."""
        cp = self.cp
        return tuple(zip(cp.locs, self.S[cp.mem_base :]))

    def result(self) -> Result:
        """The observable :class:`Result` of the current (finished) path."""
        return Result(tuple(self.reads), self.final_memory())

    def execution(self) -> Execution:
        """The current (finished) path as an :class:`Execution`."""
        if not self._record_trace and self._depth:
            raise RuntimeError(
                "engine was built with record_trace=False; no trace to return"
            )
        return Execution(self.program, tuple(self.trace), self.final_memory())


# ---------------------------------------------------------------------------
# Factory and cache
# ---------------------------------------------------------------------------

#: Compiled programs, cached per live Program object (the guided
#: Definition-2 search builds one engine per judged result; sweeps build
#: thousands for one program).  Keyed by id() with a weakref guard, like
#: ``engine_state._PROGRAM_META``; a failed compilation is remembered as
#: ``None`` so the fallback does not retry per engine.
_COMPILED: Dict[int, tuple] = {}

#: Whether :func:`make_engine` returns compiled engines; only
#: :func:`interpreted_engine` clears it.
_ENABLED = True


def compiled_enabled() -> bool:
    """Whether :func:`make_engine` currently returns compiled engines."""
    return _ENABLED


@contextmanager
def interpreted_engine():
    """Force the interpreted engine within the block (differential tests)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def compiled_program(program: Program) -> Optional[CompiledProgram]:
    """The cached :class:`CompiledProgram`, or ``None`` if not compilable."""
    key = id(program)
    entry = _COMPILED.get(key)
    if entry is not None:
        ref, cp = entry
        if ref() is program:
            return cp
    try:
        cp: Optional[CompiledProgram] = CompiledProgram(program)
    except Exception:
        # Unknown instruction or malformed codegen input: fall back to
        # the interpreted engine (and remember, per program).
        cp = None
    _COMPILED[key] = (
        weakref.ref(program, lambda _ref, _key=key: _COMPILED.pop(_key, None)),
        cp,
    )
    return cp


def make_engine(program: Program, record_trace: bool = True):
    """An execution engine for ``program``: compiled when possible.

    This is the factory every explorer (`sc.explore`, the Definition-2
    membership search, the DRF0 checker) goes through.  The
    returned object is either a :class:`CompiledEngine` or an interpreted
    :class:`~repro.core.engine_state.EngineState`; both expose the same
    interface and identical observable behaviour.  ``record_trace`` only
    affects the compiled engine (the interpreter always records).
    """
    if _ENABLED:
        cp = compiled_program(program)
        if cp is not None:
            return CompiledEngine(program, cp, record_trace)
    return EngineState(program)
