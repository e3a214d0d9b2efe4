"""Programs: per-thread instruction sequences plus shared-memory layout.

A :class:`Program` is the unit every executor consumes.  It holds one
:class:`ThreadCode` per processor, the set of shared locations with initial
values, and a human-readable name (used by the litmus harness and benchmark
reports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.types import INITIAL_VALUE, Location, Value
from repro.machine.isa import (
    BranchIf,
    Instruction,
    Jump,
    MemoryInstruction,
    SyncLoad,
    SyncStore,
    TestAndSet,
    Unset,
)


class ProgramError(ValueError):
    """Raised for malformed programs (unknown labels, bad operands...)."""


@dataclass(frozen=True)
class ThreadCode:
    """One thread's instruction sequence with resolved branch targets.

    Attributes:
        instructions: The instruction tuple; an implicit ``Halt`` follows the
            last instruction.
        labels: Mapping from label name to instruction index.
    """

    instructions: Tuple[Instruction, ...]
    labels: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for instr in self.instructions:
            if isinstance(instr, (Jump, BranchIf)) and instr.label not in self.labels:
                raise ProgramError(f"undefined label {instr.label!r}")
        for label, index in self.labels.items():
            if not 0 <= index <= len(self.instructions):
                raise ProgramError(f"label {label!r} points outside code")

    def target(self, label: str) -> int:
        """Instruction index a branch to ``label`` lands on."""
        return self.labels[label]

    def __len__(self) -> int:
        return len(self.instructions)

    def memory_instructions(self) -> List[MemoryInstruction]:
        """All memory instructions in this thread, in static code order."""
        return [i for i in self.instructions if isinstance(i, MemoryInstruction)]


@dataclass(frozen=True)
class Program:
    """A multiprocessor program.

    Attributes:
        threads: One :class:`ThreadCode` per processor; index == ProcId.
        initial_memory: Initial values for shared locations; every location a
            thread mentions must appear here (it defaults to
            :data:`repro.core.types.INITIAL_VALUE` via :meth:`make`).
        name: Identifier used in reports.
    """

    threads: Tuple[ThreadCode, ...]
    initial_memory: Mapping[Location, Value]
    name: str = "program"

    @staticmethod
    def make(
        threads: Sequence[Sequence[Instruction] | ThreadCode],
        initial_memory: Mapping[Location, Value] | None = None,
        name: str = "program",
        labels: Sequence[Mapping[str, int]] | None = None,
    ) -> "Program":
        """Build a program, inferring the shared-location set.

        Locations touched by any memory instruction but absent from
        ``initial_memory`` are added with the initial value 0, matching the
        paper's hypothetical initializing write to every location.
        """
        codes: List[ThreadCode] = []
        for index, thread in enumerate(threads):
            if isinstance(thread, ThreadCode):
                codes.append(thread)
            else:
                thread_labels = dict(labels[index]) if labels else {}
                codes.append(ThreadCode(tuple(thread), thread_labels))
        memory: Dict[Location, Value] = dict(initial_memory or {})
        for code in codes:
            for instr in code.memory_instructions():
                memory.setdefault(instr.location, INITIAL_VALUE)
        return Program(tuple(codes), memory, name)

    @property
    def num_procs(self) -> int:
        """Number of processors (threads) in the program."""
        return len(self.threads)

    @property
    def locations(self) -> Tuple[Location, ...]:
        """Shared locations in deterministic (sorted) order."""
        return tuple(sorted(self.initial_memory))

    def sync_locations(self) -> Tuple[Location, ...]:
        """Locations accessed by at least one synchronization instruction."""
        found = set()
        for code in self.threads:
            for instr in code.memory_instructions():
                if isinstance(instr, (SyncLoad, SyncStore, Unset, TestAndSet)):
                    found.add(instr.location)
        return tuple(sorted(found))

    def is_straight_line(self) -> bool:
        """True when no thread contains a branch (needed by the axiomatic layer)."""
        return not any(
            isinstance(instr, (Jump, BranchIf))
            for code in self.threads
            for instr in code.instructions
        )

    def static_op_count(self) -> int:
        """Total number of static memory instructions across all threads."""
        return sum(len(code.memory_instructions()) for code in self.threads)


def registers_used(instructions: Iterable[Instruction]) -> Tuple[str, ...]:
    """All register names mentioned by a sequence of instructions."""
    names = set()
    for instr in instructions:
        for attr in ("dst", "src", "a", "b"):
            value = getattr(instr, attr, None)
            if isinstance(value, str):
                names.add(value)
    return tuple(sorted(names))
