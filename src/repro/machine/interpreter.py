"""Thread semantics shared by the idealized architecture and the simulator.

The interpreter advances a :class:`ThreadState` through local (register and
control-flow) instructions until the thread either halts or reaches a memory
instruction, which is surfaced to the caller as a :class:`MemRequest`.  The
*executor* (SC enumerator or hardware simulator) decides when and how that
request is satisfied, then calls :func:`complete` with the value returned by
the read component (if any).

``Delay`` instructions surface as :class:`DelayRequest` so the hardware
simulator can charge cycles; the idealized architecture skips them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

from repro.core.types import OpKind, Value
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
    Operand,
    Store,
    Sub,
    SyncStore,
    written_value,
)
from repro.machine.program import ThreadCode


class InterpreterError(RuntimeError):
    """Raised on runaway local execution or malformed operands."""


#: Upper bound on consecutive local instructions between memory operations;
#: a thread exceeding it is assumed to be in a local infinite loop.
MAX_LOCAL_STEPS = 100_000


class ThreadState:
    """Mutable per-thread architectural state: program counter + registers.

    Registers spring into existence holding 0 on first use, so litmus
    programs need no register declarations.
    """

    __slots__ = ("pc", "regs")

    def __init__(self, pc: int = 0, regs: Optional[Dict[str, Value]] = None) -> None:
        self.pc = pc
        self.regs: Dict[str, Value] = dict(regs) if regs else {}

    def copy(self) -> "ThreadState":
        """Independent copy (used by the legacy snapshot-based DFS)."""
        return ThreadState(self.pc, self.regs)

    def snapshot(self) -> Tuple[int, Dict[str, Value]]:
        """Cheap pre-step checkpoint for the do/undo transition engine.

        Unlike :meth:`copy` this allocates no new ``ThreadState``; the
        returned pair is meant to be stored in an undo frame and handed
        back to :meth:`restore`, which may then *adopt* the saved dict.
        """
        return (self.pc, dict(self.regs))

    def restore(self, snapshot: Tuple[int, Dict[str, Value]]) -> None:
        """Rewind to a :meth:`snapshot`.

        Adopts the snapshot's register dict (the undo frame held the only
        other reference, so no defensive copy is needed).
        """
        self.pc, self.regs = snapshot

    def key(self) -> Tuple[int, Tuple[Tuple[str, Value], ...]]:
        """Hashable snapshot for state deduplication."""
        return (self.pc, tuple(sorted(self.regs.items())))

    def read_reg(self, name: str) -> Value:
        """Current value of a register (0 if never written)."""
        return self.regs.get(name, 0)

    def operand(self, value: Operand) -> Value:
        """Evaluate an operand: immediate ints pass through, strings are registers."""
        if isinstance(value, int):
            return value
        return self.read_reg(value)

    def halted(self, code: ThreadCode) -> bool:
        """True once the program counter has run off the end of the code."""
        return self.pc >= len(code)


class MemRequest(NamedTuple):
    """A memory instruction the thread is blocked on.

    A named tuple rather than a frozen dataclass: one is built for every
    memory operation an executor runs, and tuple construction is the
    cheapest immutable record Python offers.

    Attributes:
        instr: The static memory instruction.
        kind: Its :class:`~repro.core.types.OpKind`.
        location: Location accessed.
        write_value: Value the write component will store (``None`` for pure
            reads); evaluated from registers at request time.
    """

    instr: MemoryInstruction
    kind: OpKind
    location: str
    write_value: Optional[Value]


@dataclass(frozen=True)
class DelayRequest:
    """The thread is at a ``Delay`` instruction for ``cycles`` cycles."""

    cycles: int


@dataclass(frozen=True)
class FenceRequest:
    """The thread is at a ``Fence``: wait for all prior accesses to be
    globally performed (skipped on the idealized architecture)."""


#: What a thread can be blocked on; ``None`` means the thread has halted.
Pending = Union[MemRequest, DelayRequest, FenceRequest, None]


def run_to_memory_op(
    code: ThreadCode, state: ThreadState, skip_delays: bool = False
) -> Tuple[Pending, int]:
    """Advance through local instructions until a boundary event.

    Mutates ``state`` in place.  Returns ``(pending, local_steps)`` where
    ``pending`` is the memory/delay request the thread stopped at (``None``
    if it halted) and ``local_steps`` counts the local instructions executed
    (the simulator charges one cycle each).

    With ``skip_delays`` set, ``Delay`` instructions are treated as local
    no-ops -- the idealized-architecture behaviour.
    """
    instructions = code.instructions
    end = len(instructions)
    steps = 0
    while True:
        if state.pc >= end:
            return None, steps
        instr = instructions[state.pc]
        step = _LOCAL_STEPS.get(type(instr))
        if step is None:
            if isinstance(instr, MemoryInstruction):
                return _make_request(instr, state), steps
            if isinstance(instr, Delay):
                if skip_delays:
                    state.pc += 1
                    continue
                return DelayRequest(instr.cycles), steps
            if isinstance(instr, Fence):
                if skip_delays:  # idealized architecture: fences are no-ops
                    state.pc += 1
                    continue
                return FenceRequest(), steps
            if isinstance(instr, Halt):
                state.pc = end
                return None, steps
            raise InterpreterError(f"unknown instruction {instr!r}")
        step(code, state, instr)
        steps += 1
        if steps > MAX_LOCAL_STEPS:
            raise InterpreterError(
                "thread executed %d local steps without reaching memory; "
                "likely a local infinite loop" % steps
            )


def _make_request(instr: MemoryInstruction, state: ThreadState) -> MemRequest:
    """Build the :class:`MemRequest` for the memory instruction at the pc."""
    kind = instr.kind
    if not kind.has_write:
        write_value = None
    elif isinstance(instr, (Store, SyncStore)):
        write_value = written_value(instr, state.operand(instr.src))
    else:  # Unset, TestAndSet: the stored value is fixed
        write_value = written_value(instr, 0)
    return MemRequest(instr, kind, instr.location, write_value)


def _arithmetic(op: Callable[[Value, Value], Value]):
    """Step function for ``dst = op(a, b)``."""

    def step(_code: ThreadCode, state: ThreadState, instr) -> None:
        a = instr.a
        b = instr.b
        regs = state.regs
        regs[instr.dst] = op(
            a if isinstance(a, int) else regs.get(a, 0),
            b if isinstance(b, int) else regs.get(b, 0),
        )
        state.pc += 1

    return step


def _mov(_code: ThreadCode, state: ThreadState, instr: Mov) -> None:
    state.regs[instr.dst] = state.operand(instr.src)
    state.pc += 1


def _jump(code: ThreadCode, state: ThreadState, instr: Jump) -> None:
    state.pc = code.labels[instr.label]


def _branch_if(code: ThreadCode, state: ThreadState, instr: BranchIf) -> None:
    a = instr.a
    b = instr.b
    regs = state.regs
    if instr.cond.compare(
        a if isinstance(a, int) else regs.get(a, 0),
        b if isinstance(b, int) else regs.get(b, 0),
    ):
        state.pc = code.labels[instr.label]
    else:
        state.pc += 1


#: The step function of each local instruction class, looked up by exact
#: type: one dict probe per instruction instead of an ``isinstance`` chain.
_LOCAL_STEPS: Dict[type, Callable[[ThreadCode, ThreadState, object], None]] = {
    Mov: _mov,
    Add: _arithmetic(operator.add),
    Sub: _arithmetic(operator.sub),
    Mul: _arithmetic(operator.mul),
    Div: _arithmetic(lambda a, b: a // b if b else 0),
    Jump: _jump,
    BranchIf: _branch_if,
}


def complete(
    code: ThreadCode,
    state: ThreadState,
    request: MemRequest,
    read_value: Optional[Value],
) -> None:
    """Finish the memory instruction the thread was blocked on.

    Writes the read component's value into the destination register (if the
    instruction has one) and advances the program counter past the
    instruction.  ``read_value`` must be provided exactly when the operation
    has a read component.
    """
    instr = request.instr
    if request.kind.has_read:
        if read_value is None:
            raise InterpreterError(f"{instr!r} needs a read value")
        dst = getattr(instr, "dst", None)
        if dst is not None:
            state.regs[dst] = read_value
    elif read_value is not None:
        raise InterpreterError(f"{instr!r} has no read component")
    state.pc += 1


def consume_delay(state: ThreadState) -> None:
    """Advance past a ``Delay``/``Fence`` instruction once it is satisfied."""
    state.pc += 1
