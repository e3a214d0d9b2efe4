"""Executions and results.

Following the paper's reading of Lamport's definition, the *result* of an
execution is "the union of the values returned by all the read operations in
the execution and the final state of memory".  Two executions are equivalent
exactly when they have the same :class:`Result`; a hardware system *appears
sequentially consistent* on a program when every result it can produce is
the result of some execution of the idealized architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from repro.core.ops import Operation
from repro.core.types import Location, ProcId, Value
from repro.machine.program import Program


@dataclass(frozen=True)
class Result:
    """The observable outcome of one execution.

    Attributes:
        reads: Per processor, the tuple of values returned by that
            processor's operations with a read component, in program order.
            (Program order is well defined per processor, so this encodes
            "the values returned by all the read operations".)
        final_memory: Final value of every shared location, sorted by
            location name.
    """

    reads: Tuple[Tuple[Value, ...], ...]
    final_memory: Tuple[Tuple[Location, Value], ...]

    @staticmethod
    def build(
        reads_by_proc: Sequence[Sequence[Value]],
        memory: Mapping[Location, Value],
    ) -> "Result":
        """Normalize read lists and a memory mapping into a Result."""
        return Result(
            tuple(tuple(values) for values in reads_by_proc),
            tuple(sorted(memory.items())),
        )

    def memory_value(self, location: Location) -> Value:
        """Final value of one location."""
        for loc, value in self.final_memory:
            if loc == location:
                return value
        raise KeyError(location)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        reads = "; ".join(
            f"P{p}:{list(values)}" for p, values in enumerate(self.reads)
        )
        memory = ", ".join(f"{loc}={value}" for loc, value in self.final_memory)
        return f"Result(reads=[{reads}], mem={{{memory}}})"


@dataclass(frozen=True)
class Execution:
    """One complete execution: the operations in their completion order.

    For executions of the idealized architecture the completion order *is*
    the single total order in which operations atomically executed; for
    hardware executions it is the commit order reported by the simulator.

    Attributes:
        program: The program this execution belongs to.
        ops: Operations in completion order.  ``ops[i].uid == i``.
        final_memory: Memory contents when the execution finished.
    """

    program: Program
    ops: Tuple[Operation, ...]
    final_memory: Tuple[Tuple[Location, Value], ...]

    def result(self) -> Result:
        """The observable :class:`Result` of this execution."""
        reads: List[List[Value]] = [[] for _ in range(self.program.num_procs)]
        for op in self.by_program_order():
            if op.has_read:
                assert op.value_read is not None
                reads[op.proc].append(op.value_read)
        return Result(
            tuple(tuple(values) for values in reads),
            self.final_memory,
        )

    def by_program_order(self) -> List[Operation]:
        """Operations sorted by (processor, program-order index)."""
        return sorted(self.ops, key=lambda op: (op.proc, op.po_index))

    def ops_of(self, proc: ProcId) -> List[Operation]:
        """One processor's operations in program order."""
        return sorted(
            (op for op in self.ops if op.proc == proc), key=lambda op: op.po_index
        )

    def sync_ops(self) -> List[Operation]:
        """All synchronization operations, in completion order."""
        return [op for op in self.ops if op.is_sync]

    def writes_to(self, location: Location) -> List[Operation]:
        """Operations with a write component on ``location``, completion order."""
        return [
            op for op in self.ops if op.location == location and op.has_write
        ]

    def __len__(self) -> int:
        return len(self.ops)


def final_memory_from_dict(memory: Mapping[Location, Value]) -> Tuple[Tuple[Location, Value], ...]:
    """Canonical (sorted-tuple) form of a final-memory mapping."""
    return tuple(sorted(memory.items()))
