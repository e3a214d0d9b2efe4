"""Static events and symbolic values for the axiomatic framework.

The axiomatic layer works on **straight-line** programs (the standard
litmus-test restriction): each thread's memory instructions map to a fixed
list of :class:`Event` objects.  Store operands may be constants or
registers holding a value read earlier in the same thread -- that is enough
for data-dependency litmus tests (MP with dependent store, etc.) while
keeping value resolution a simple fixpoint.

Fences are not events: they carry no location and take part in no ``rf`` /
``co`` / ``fr`` edge.  :func:`extract_layout` records each fence as a
``(proc, slot)`` marker -- the fence sits *before* the thread's ``slot``-th
memory event -- so order-sensitive models (TSO's ppo filter) can ask
whether a fence separates a same-thread pair without the fence perturbing
``po_index`` numbering.  :func:`extract_events` keeps the historical
fence-rejecting behaviour for callers (delay-set analysis) whose theory
has no fence treatment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.types import Location, OpKind, Value
from repro.machine.isa import (
    Add,
    Div,
    Fence,
    MemoryInstruction,
    Mov,
    Mul,
    Store,
    Sub,
    SyncStore,
    TestAndSet,
    Unset,
)
from repro.machine.program import Program


class UnsupportedProgram(ValueError):
    """Raised for programs outside the axiomatic fragment."""


@dataclass(frozen=True)
class ReadRef:
    """Symbolic value: 'whatever event ``event_uid``'s read returns'."""

    event_uid: int


#: A symbolic-or-concrete value.
SymValue = Union[Value, ReadRef]


@dataclass
class Event:
    """One static memory event of a straight-line program.

    ``write_value`` is symbolic (:class:`ReadRef`) when the stored value
    depends on an earlier read of the same thread.
    """

    uid: int
    proc: int
    po_index: int
    kind: OpKind
    location: Location
    write_value: Optional[SymValue] = None

    @property
    def is_read(self) -> bool:
        """True if the event has a read component."""
        return self.kind.has_read

    @property
    def is_write(self) -> bool:
        """True if the event has a write component."""
        return self.kind.has_write

    @property
    def is_sync(self) -> bool:
        """True for synchronization events."""
        return self.kind.is_sync

    def __hash__(self) -> int:
        return self.uid

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"e{self.uid}(P{self.proc} {self.kind.value} {self.location})"


@dataclass(frozen=True)
class InitWrite:
    """The implicit initializing write of one location (co-minimal)."""

    location: Location
    value: Value


#: A fence marker ``(proc, slot)``: the fence separates the same-thread
#: pair ``(a, b)`` exactly when ``a.po_index < slot <= b.po_index``.
FenceMarker = Tuple[int, int]


@dataclass(frozen=True)
class EventLayout:
    """The static shape of a program in the axiomatic fragment.

    ``events`` are the memory events (uids dense, in thread/po order) and
    ``fences`` the fence markers, kept out of band so every existing
    event-indexed structure (rf, co, value maps) is untouched by fences.
    """

    events: Tuple[Event, ...]
    fences: Tuple[FenceMarker, ...] = ()

    def fence_between(self, a: Event, b: Event) -> bool:
        """True when a fence sits po-between same-thread events a and b."""
        if a.proc != b.proc:
            return False
        lo, hi = sorted((a.po_index, b.po_index))
        return any(
            proc == a.proc and lo < slot <= hi
            for proc, slot in self.fences
        )


def extract_events(program: Program) -> List[Event]:
    """Symbolically execute each (straight-line) thread into events.

    Rejects fences: callers of this entry point (delay-set analysis)
    model conflict/program-order graphs with no fence treatment, so a
    silently dropped fence would produce wrong answers.  Fence-aware
    callers use :func:`extract_layout`.
    """
    return list(extract_layout(program, allow_fences=False).events)


def extract_layout(
    program: Program, allow_fences: bool = True
) -> EventLayout:
    """Symbolically execute a straight-line program into an event layout."""
    if not program.is_straight_line():
        raise UnsupportedProgram(
            f"program {program.name!r} has branches; the axiomatic layer "
            "handles straight-line litmus programs only"
        )
    events: List[Event] = []
    fences: List[FenceMarker] = []
    uid = 0
    for proc, code in enumerate(program.threads):
        regs: Dict[str, SymValue] = {}

        def operand(value) -> SymValue:
            if isinstance(value, int):
                return value
            return regs.get(value, 0)

        def arith(op, a, b) -> SymValue:
            if isinstance(a, ReadRef) or isinstance(b, ReadRef):
                raise UnsupportedProgram(
                    "arithmetic on read values is outside the axiomatic fragment"
                )
            return op(a, b)

        po_index = 0
        for instr in code.instructions:
            if isinstance(instr, Mov):
                regs[instr.dst] = operand(instr.src)
            elif isinstance(instr, Add):
                regs[instr.dst] = arith(
                    lambda x, y: x + y, operand(instr.a), operand(instr.b)
                )
            elif isinstance(instr, Sub):
                regs[instr.dst] = arith(
                    lambda x, y: x - y, operand(instr.a), operand(instr.b)
                )
            elif isinstance(instr, Mul):
                regs[instr.dst] = arith(
                    lambda x, y: x * y, operand(instr.a), operand(instr.b)
                )
            elif isinstance(instr, Div):
                regs[instr.dst] = arith(
                    lambda x, y: (x // y if y else 0),
                    operand(instr.a),
                    operand(instr.b),
                )
            elif isinstance(instr, MemoryInstruction):
                write_value: Optional[SymValue] = None
                if isinstance(instr, (Store, SyncStore)):
                    write_value = operand(instr.src)
                elif isinstance(instr, Unset):
                    write_value = 0
                elif isinstance(instr, TestAndSet):
                    write_value = instr.set_value
                event = Event(
                    uid=uid,
                    proc=proc,
                    po_index=po_index,
                    kind=instr.kind,
                    location=instr.location,
                    write_value=write_value,
                )
                events.append(event)
                uid += 1
                po_index += 1
                dst = getattr(instr, "dst", None)
                if dst is not None and instr.kind.has_read:
                    regs[dst] = ReadRef(event.uid)
            elif isinstance(instr, Fence):
                if not allow_fences:
                    raise UnsupportedProgram(
                        f"instruction {instr!r} outside the axiomatic fragment"
                    )
                # The fence sits before the thread's next memory event;
                # po_index numbering is not perturbed.
                fences.append((proc, po_index))
            else:
                # Delay is harmless; branches were excluded above.
                from repro.machine.isa import Delay, Halt

                if not isinstance(instr, (Delay, Halt)):
                    raise UnsupportedProgram(
                        f"instruction {instr!r} outside the axiomatic fragment"
                    )
    return EventLayout(events=tuple(events), fences=tuple(fences))
