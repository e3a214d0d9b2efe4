"""The processor front end: in-order issue with policy-controlled overlap.

Each processor runs one thread of the program through the shared
interpreter.  Local instructions cost ``local_cycle`` cycles each.  At a
memory instruction the processor builds an :class:`AccessRecord` and:

1. waits for the policy's **generation gate** (e.g. Definition 1's
   "previous accesses globally performed" before a sync access);
2. generates the access -- hands it to the memory port (cache controller or
   cacheless port);
3. blocks the thread per the required level: an access with a read
   component always blocks until commit (its value feeds the program); the
   policy can extend blocking to globally-performed (the SC baseline), or
   let pure writes fly (weak orderings).

Intra-processor dependencies (condition 1 of Section 5.1) hold by
construction: the front end is in-order and an access's operands are
evaluated when the request is formed.

The processor records how many cycles it spent stalled at generation gates
versus blocked waiting for values/completions -- the numbers behind the
paper's Figure-3 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.types import ProcId, Value
from repro.machine.interpreter import (
    DelayRequest,
    MemRequest,
    ThreadState,
    complete,
    consume_delay,
    run_to_memory_op,
)
from repro.machine.program import ThreadCode
from repro.obs.stall import (
    BLOCK_BUFFER_DRAIN,
    BLOCK_COHERENCE_MISS,
    BLOCK_COUNTER_WAIT,
    BLOCK_HIT,
    BLOCK_RESERVE_NACK,
    GATE_FENCE,
    GATE_GP,
    GATE_SYNC_COMMIT,
    GATE_SYNC_GP,
)
from repro.sim.access import AccessRecord, BlockLevel, GateCondition
from repro.sim.events import Simulator
from repro.sim.faults import NULL_INJECTOR

# Bound once: looking up an Enum member on its class is slow on CPython 3.11.
_BLOCK_NONE = BlockLevel.NONE
_BLOCK_COMMIT = BlockLevel.COMMIT


def _gate_cause(gates: List["GateCondition"]) -> str:
    """Classify a generation-gate stall from the unsatisfied conditions."""
    if all(g.access.is_sync for g in gates):
        if all(g.level is _BLOCK_COMMIT for g in gates):
            return GATE_SYNC_COMMIT
        return GATE_SYNC_GP
    return GATE_GP


@dataclass
class ProcessorStats:
    """Per-processor timing breakdown.

    ``stall_by_cause`` refines the two coarse stall buckets with the
    observability layer's cause taxonomy (see :mod:`repro.obs.stall`):
    every stalled cycle lands in exactly one cause, so the invariant
    ``sum(stall_by_cause.values()) == gate_stall_cycles +
    block_stall_cycles`` holds on every run (asserted in the tests).
    """

    local_instructions: int = 0
    accesses_generated: int = 0
    gate_stall_cycles: int = 0
    block_stall_cycles: int = 0
    halt_time: Optional[int] = None
    stall_by_cause: Dict[str, int] = field(default_factory=dict)

    @property
    def total_stall_cycles(self) -> int:
        """Cycles spent not making architectural progress."""
        return self.gate_stall_cycles + self.block_stall_cycles

    def add_stall(self, cause: str, cycles: int) -> None:
        """Attribute ``cycles`` of stall to ``cause`` (no-op for zero)."""
        if cycles:
            self.stall_by_cause[cause] = (
                self.stall_by_cause.get(cause, 0) + cycles
            )

    def as_dict(self) -> Dict[str, object]:
        """Stable plain-dict form for JSON reports."""
        return {
            "local_instructions": self.local_instructions,
            "accesses_generated": self.accesses_generated,
            "gate_stall_cycles": self.gate_stall_cycles,
            "block_stall_cycles": self.block_stall_cycles,
            "total_stall_cycles": self.total_stall_cycles,
            "halt_time": self.halt_time,
            "stall_by_cause": {
                cause: self.stall_by_cause[cause]
                for cause in sorted(self.stall_by_cause)
            },
        }


class Processor:
    """One simulated processor driving one thread."""

    def __init__(
        self,
        sim: Simulator,
        proc_id: ProcId,
        code: ThreadCode,
        policy: "MemoryPolicy",
        port,
        uid_allocator: Callable[[], int],
        on_halt: Callable[["Processor"], None],
        local_cycle: int = 1,
        injector=NULL_INJECTOR,
    ) -> None:
        self.sim = sim
        self.proc_id = proc_id
        self.code = code
        self.policy = policy
        self.port = port
        self._uid_allocator = uid_allocator
        self._on_halt = on_halt
        self.local_cycle = local_cycle
        self.injector = injector

        self.tracer = sim.tracer
        self._track = f"P{proc_id}"
        self.state = ThreadState()
        self.halted = False
        self.accesses: List[AccessRecord] = []
        # Indexes behind the policy-facing queries below, so a gate check
        # costs the accesses still in flight rather than every access of
        # the run: each holds, in program order, a superset of the
        # accesses its query returns and is pruned when queried.
        self._not_gp: List[AccessRecord] = []
        self._syncs_not_committed: List[AccessRecord] = []
        self._syncs_not_gp: List[AccessRecord] = []
        self.stats = ProcessorStats()
        self.last_generated: Optional[AccessRecord] = None
        self._current_request: Optional[MemRequest] = None
        self._po_index = 0
        #: Cycle at which the thread blocked on its current access.
        self._block_start = 0
        #: What this processor is waiting on right now, for the liveness
        #: watchdog's diagnosis: None, ("gate", cause, access-or-None), or
        #: ("block", access).
        self.wait_state: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Policy-facing bookkeeping
    # ------------------------------------------------------------------

    def not_globally_performed(self) -> List[AccessRecord]:
        """Generated accesses not yet globally performed, program order."""
        pending = [a for a in self._not_gp if a.gp_time is None]
        self._not_gp = pending
        return pending[:]

    def pending_syncs(self, level: BlockLevel) -> List[AccessRecord]:
        """Sync accesses that have not reached ``level`` yet."""
        if level is _BLOCK_COMMIT:
            pending = self._syncs_not_committed
            if pending:
                pending = [a for a in pending if a.commit_time is None]
                self._syncs_not_committed = pending
        else:
            pending = self._syncs_not_gp
            if pending:
                pending = [a for a in pending if a.gp_time is None]
                self._syncs_not_gp = pending
        return pending[:]

    def _take_over_accesses(self, donor: "Processor") -> None:
        """Continue ``donor``'s access stream (process migration)."""
        self.accesses = donor.accesses
        self._not_gp = donor._not_gp
        self._syncs_not_committed = donor._syncs_not_committed
        self._syncs_not_gp = donor._syncs_not_gp
        self.last_generated = donor.last_generated
        self._po_index = donor._po_index

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the first step at time 0."""
        self.sim.at(0, self._resume)

    def _resume(self) -> None:
        pending, steps = run_to_memory_op(self.code, self.state)
        self.stats.local_instructions += steps
        delay = steps * self.local_cycle
        if type(pending) is MemRequest:
            self._current_request = pending
            self.sim.after(
                delay,
                self._at_memory_request
                if self.injector.enabled
                else self._issue_request,
            )
        elif pending is None:
            self.sim.after(delay, self._halt)
        elif isinstance(pending, DelayRequest):
            self.sim.after(delay + pending.cycles, self._finish_delay)
        else:
            self.sim.after(delay, self._at_fence)

    def _finish_delay(self) -> None:
        consume_delay(self.state)
        self._resume()

    def _at_fence(self) -> None:
        """RP3-style fence: wait until every prior access globally performs.

        Fences are processor-level (policy-independent): they give a
        relaxed machine explicit ordering points, exactly the RP3 option
        Section 2.1 describes.
        """
        pending = self.not_globally_performed()
        if not pending:
            self._finish_delay()
            return
        fence_start = self.sim.now
        remaining = {"count": len(pending)}
        self.wait_state = ("gate", GATE_FENCE, None)

        def one_done(_a: AccessRecord) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                self.wait_state = None
                stalled = self.sim.now - fence_start
                self.stats.gate_stall_cycles += stalled
                self.stats.add_stall(GATE_FENCE, stalled)
                if self.tracer.enabled and stalled:
                    self.tracer.span(
                        "stall", GATE_FENCE, self._track,
                        fence_start, self.sim.now,
                    )
                self._finish_delay()

        for access in pending:
            access.on_globally_performed(one_done)

    def _halt(self) -> None:
        self.halted = True
        self.stats.halt_time = self.sim.now
        if self.tracer.enabled:
            self.tracer.instant("proc", "halt", self._track, self.sim.now)
        self._on_halt(self)

    def _at_memory_request(self) -> None:
        """Issue the current request after any fault-injected delay."""
        extra = self.injector.issue_delay()
        if extra:
            self.sim.after(extra, self._issue_request)
        else:
            self._issue_request()

    def _issue_request(self) -> None:
        """Build the access for the current request and pass its gate."""
        request = self._current_request
        access = AccessRecord(
            self._uid_allocator(),
            self.proc_id,
            self._po_index,
            request.kind,
            request.location,
            request.write_value,
        )
        self._po_index += 1
        gates = self.policy.generation_gate(self, access)
        if gates:
            gates = [g for g in gates if not g.satisfied]
            if gates:
                self._wait_for_gate(access, gates)
                return
        self._generate(access)

    def _wait_for_gate(
        self, access: AccessRecord, gates: List[GateCondition]
    ) -> None:
        gate_start = self.sim.now
        cause = _gate_cause(gates)
        remaining = {"count": len(gates)}
        self.wait_state = ("gate", cause, access)

        def one_done() -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                self.wait_state = None
                stalled = self.sim.now - gate_start
                self.stats.gate_stall_cycles += stalled
                self.stats.add_stall(cause, stalled)
                if self.tracer.enabled and stalled:
                    self.tracer.span(
                        "stall", cause, self._track, gate_start, self.sim.now,
                        args={
                            "kind": access.kind.value,
                            "loc": access.location,
                        },
                    )
                self._generate(access)

        for gate in gates:
            gate.subscribe(one_done)

    def _generate(self, access: AccessRecord) -> None:
        """Hand ``access`` to the port, then block the thread or go on."""
        now = self.sim.now
        access.generate_time = now  # the access is fresh: never generated
        self.accesses.append(access)
        self._not_gp.append(access)
        if access.is_sync:
            self._syncs_not_committed.append(access)
            self._syncs_not_gp.append(access)
        self.stats.accesses_generated += 1
        self.last_generated = access
        self.port.submit(access)

        level = self.policy.block_level(access)
        if level is _BLOCK_NONE:
            if not access.has_read:
                self._finish_instruction(access)
                return
            level = _BLOCK_COMMIT
        self._block_start = now
        self.wait_state = ("block", access)
        if level is _BLOCK_COMMIT:
            access.on_commit(self._unblock)
        else:
            access.on_globally_performed(self._unblock)

    def _unblock(self, access: AccessRecord) -> None:
        """The access the thread blocked on reached its level: attribute
        the stall, then finish the instruction.

        The stall splits at the access's commit point.  The service
        interval (up to commit) is attributed to how the memory system
        handled the access -- a reserve-bit NACK beats a plain miss beats
        the hit latency; the completion interval (commit to globally
        performed, only present when the policy blocks to GP) is the
        write-buffer drain or the invalidation-ack counter wait.
        """
        self.wait_state = None
        block_start = self._block_start
        end = self.sim.now
        if end > block_start:
            stats = self.stats
            stats.block_stall_cycles += end - block_start
            stall = stats.stall_by_cause
            commit = access.commit_time
            split = end if commit is None else min(max(commit, block_start), end)
            pre = split - block_start
            if pre:
                if access.nacks:
                    cause = BLOCK_RESERVE_NACK
                elif access.missed:
                    cause = BLOCK_COHERENCE_MISS
                else:
                    cause = BLOCK_HIT
                stall[cause] = stall.get(cause, 0) + pre
                if self.tracer.enabled:
                    self.tracer.span(
                        "stall", cause, self._track, block_start, split,
                        args={"kind": access.kind.value, "loc": access.location},
                    )
            post = end - split
            if post:
                cause = BLOCK_BUFFER_DRAIN if access.buffered else BLOCK_COUNTER_WAIT
                stall[cause] = stall.get(cause, 0) + post
                if self.tracer.enabled:
                    self.tracer.span(
                        "stall", cause, self._track, split, end,
                        args={"kind": access.kind.value, "loc": access.location},
                    )
        self._finish_instruction(access)

    def _finish_instruction(self, access: AccessRecord) -> None:
        request = self._current_request
        self._current_request = None
        complete(
            self.code, self.state, request,
            access.value_read if access.has_read else None,
        )
        self._resume()

    # ------------------------------------------------------------------

    def stall_diagnosis(self) -> Optional[str]:
        """What this processor is stuck on, for the liveness watchdog.

        Returns None for a halted processor; otherwise a one-line
        description naming the stall cause (the observability layer's
        taxonomy) and the access being waited on.
        """
        if self.halted:
            return None
        state = self.wait_state
        if state is None:
            return (
                f"P{self.proc_id}: no access in flight "
                "(local execution or a lost scheduling event)"
            )
        if state[0] == "gate":
            _, cause, access = state
            if access is None:
                return f"P{self.proc_id}: stalled at {cause}"
            return (
                f"P{self.proc_id}: stalled at generation gate {cause} before "
                f"{access.kind.value} {access.location} (uid {access.uid})"
            )
        _, access = state
        if not access.committed:
            if access.nacks:
                cause = BLOCK_RESERVE_NACK
            elif access.missed:
                cause = BLOCK_COHERENCE_MISS
            else:
                cause = BLOCK_HIT
        else:
            cause = BLOCK_BUFFER_DRAIN if access.buffered else BLOCK_COUNTER_WAIT
        return (
            f"P{self.proc_id}: blocked on {cause} for "
            f"{access.kind.value} {access.location} (uid {access.uid})"
        )

    def read_values_in_program_order(self) -> List[Value]:
        """Values returned by this processor's read components, po order."""
        return [
            a.value_read
            for a in self.accesses
            if a.has_read and a.commit_time is not None
        ]
