"""Shared test helpers: canned programs and execution builders."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.execution import Execution, final_memory_from_dict
from repro.core.ops import Operation
from repro.core.types import Condition, OpKind
from repro.machine.dsl import ThreadBuilder, build_program
from repro.machine.program import Program


def store_buffer_program() -> Program:
    """The paper's Figure-1 litmus: W(x) R(y) || W(y) R(x)."""
    p1 = ThreadBuilder().store("x", 1).load("r1", "y")
    p2 = ThreadBuilder().store("y", 1).load("r2", "x")
    return build_program([p1, p2], name="store-buffer")


def message_passing_program(sync: bool = True) -> Program:
    """Producer writes data then flag; consumer spins on flag, reads data.

    With ``sync=True`` the flag accesses are synchronization operations
    (DRF0-conformant); otherwise they are data accesses (racy).
    """
    p0 = ThreadBuilder().store("data", 42)
    p1 = ThreadBuilder()
    if sync:
        p0.unset("flag")
        p1.label("wait").sync_load("r0", "flag").branch_if(
            Condition.NE, "r0", 0, "wait"
        )
    else:
        p0.store("flag", 0)
        p1.label("wait").load("r0", "flag").branch_if(Condition.NE, "r0", 0, "wait")
    p1.load("r1", "data")
    return build_program(
        [p0, p1],
        initial_memory={"flag": 1},
        name="mp-sync" if sync else "mp-racy",
    )


def lock_increment_program(num_procs: int = 2, ttas: bool = False) -> Program:
    """Each processor acquires a lock, increments a counter, releases."""
    threads = []
    for _ in range(num_procs):
        t = ThreadBuilder()
        if ttas:
            t.acquire_ttas("lock")
        else:
            t.acquire("lock")
        t.load("tmp", "count").add("tmp", "tmp", 1).store("count", "tmp").release(
            "lock"
        )
        threads.append(t)
    name = f"lock{num_procs}" + ("-ttas" if ttas else "")
    return build_program(threads, name=name)


def racy_program() -> Program:
    """Unsynchronized conflicting accesses: the simplest DRF0 violation."""
    return build_program(
        [ThreadBuilder().store("x", 1), ThreadBuilder().load("r0", "x")],
        name="racy",
    )


def make_ops(
    specs: Sequence[Tuple[int, OpKind, str, Optional[int], Optional[int]]],
) -> Tuple[Operation, ...]:
    """Build operations from (proc, kind, location, read, written) tuples.

    The sequence order is the completion order; program-order indices are
    assigned per processor in that order.
    """
    po_counts: dict = {}
    ops: List[Operation] = []
    for uid, (proc, kind, location, read, written) in enumerate(specs):
        po = po_counts.get(proc, 0)
        po_counts[proc] = po + 1
        ops.append(
            Operation(
                uid=uid,
                proc=proc,
                po_index=po,
                kind=kind,
                location=location,
                value_read=read,
                value_written=written,
            )
        )
    return tuple(ops)


def execution_from_specs(
    specs: Sequence[Tuple[int, OpKind, str, Optional[int], Optional[int]]],
    num_procs: int,
    final_memory: Optional[dict] = None,
) -> Execution:
    """An :class:`Execution` over a placeholder program, for relation tests."""
    program = Program.make(
        [[] for _ in range(num_procs)],
        initial_memory=final_memory or {},
        name="constructed",
    )
    return Execution(
        program, make_ops(specs), final_memory_from_dict(final_memory or {})
    )


class StandInCampaign:
    """The campaign an engine session publishes for maps whose tasks a
    patched ``repro.verify.engine._execute_task`` runs: every task
    counts against one circuit-breaker key and adds no telemetry
    counts."""

    failpoints = ()

    def breaker_key(self, task: tuple) -> str:
        return "stand-in"

    def counts(self, task: tuple, value) -> dict:
        return {}
