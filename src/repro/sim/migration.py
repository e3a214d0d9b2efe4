"""Process migration: re-scheduling a thread onto another processor.

Section 5.1: "Re-scheduling of a process on another processor is possible
if it can be ensured that before a context switch, all previous reads of
the process have returned their values and all previous writes have been
globally performed."  Footnote 3 gives the Section-5.3 realization: "a
processor is also required to stall on a context switch until its counter
reads zero."

:func:`run_with_migration` runs a program on a system with one spare
processor; after a chosen thread completes its N-th memory access, its
architectural state is handed to the spare, subject to the paper's
context-switch condition (every access generated so far committed, and
every write globally performed -- which is exactly "counter reads zero"
plus returned reads in the cache implementation).  The thread then resumes
on the spare processor with a cold cache.

The migrated thread keeps its original processor *identity* (its accesses
keep their program-order stream and the result is reported under the
original index); only the hardware resources change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.machine.program import Program
from repro.sim.access import AccessRecord
from repro.sim.processor import Processor
from repro.sim.system import (
    MachineRun,
    SimulationDeadlock,
    SystemConfig,
    _package_run,
    build_interconnect,
)


@dataclass(frozen=True)
class MigrationPlan:
    """Move ``thread`` to the spare processor after ``after_accesses``."""

    thread: int
    after_accesses: int


class _MigratingProcessor(Processor):
    """A processor that hands its thread over after N completed accesses."""

    def __init__(self, *args, plan: Optional[MigrationPlan] = None,
                 on_migrate=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._plan = plan
        self._on_migrate = on_migrate
        self._migrated = False
        self._completed_accesses = 0

    def _finish_instruction(self, access: AccessRecord) -> None:
        request = self._current_request
        self._current_request = None
        value = access.value_read if access.has_read else None
        from repro.machine.interpreter import complete

        complete(self.code, self.state, request, value)
        self._completed_accesses += 1
        if (
            self._plan is not None
            and not self._migrated
            and self._completed_accesses >= self._plan.after_accesses
        ):
            self._migrated = True
            self._await_context_switch()
            return
        self._resume()

    def _await_context_switch(self) -> None:
        """The paper's condition: previous reads returned, writes globally
        performed (the counter reads zero), before the switch."""
        pending = [
            a
            for a in self.accesses
            if (a.has_write and not a.globally_performed)
            or (a.has_read and not a.committed)
        ]
        remaining = {"count": len(pending)}

        def one_done(_a: AccessRecord) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                self._on_migrate(self)

        if not pending:
            self._on_migrate(self)
            return
        for access in pending:
            if access.has_write:
                access.on_globally_performed(one_done)
            else:
                access.on_commit(one_done)


class _ResumedProcessor(Processor):
    """The spare processor continuing a migrated thread's state."""

    def adopt(self, donor: Processor) -> None:
        """Take over the donor's architectural and bookkeeping state."""
        self.state = donor.state
        self._take_over_accesses(donor)
        self.stats.gate_stall_cycles = donor.stats.gate_stall_cycles
        self.stats.block_stall_cycles = donor.stats.block_stall_cycles
        self.stats.local_instructions = donor.stats.local_instructions
        self.stats.accesses_generated = donor.stats.accesses_generated
        self.sim.after(0, self._resume)


def run_with_migration(
    program: Program,
    policy,
    plan: MigrationPlan,
    config: Optional[SystemConfig] = None,
) -> MachineRun:
    """Run ``program`` with one thread migrating to a spare processor."""
    from repro.sim.cache import CacheController
    from repro.sim.directory import Directory
    from repro.sim.events import Simulator
    from repro.sim.memory import CachelessPort, MemoryModule

    config = config or SystemConfig()
    if not (0 <= plan.thread < program.num_procs):
        raise ValueError(f"no thread {plan.thread} in {program.name!r}")
    if policy.requires_caches and not config.caches:
        raise ValueError(f"policy {policy.name!r} needs caches")
    if config.coherence == "snoop":
        raise ValueError(
            "migration is implemented for the directory and cacheless "
            "substrates; the snooping bus does not need it for the paper's "
            "claims"
        )

    sim = Simulator()
    network = build_interconnect(sim, config)
    spare_index = program.num_procs  # one extra hardware context

    directory = None
    memory_module = None
    caches: List = []
    ports: List = []
    if config.caches:
        directory = Directory(
            sim, network, "dir", dict(program.initial_memory),
            latency=config.mem_latency,
        )
        for proc in range(program.num_procs + 1):
            cache = CacheController(
                sim,
                network,
                node_id=f"proc{proc}",
                directory_id="dir",
                hit_latency=config.hit_latency,
                use_reserve_bits=policy.use_reserve_bits,
                drf1_optimized=policy.drf1_optimized,
                sync_nack=config.remote_sync_nack,
                nack_retry_delay=config.nack_retry_delay,
                capacity=config.cache_capacity,
            )
            caches.append(cache)
            ports.append(cache)
    else:
        memory_module = MemoryModule(
            sim, network, "mem", dict(program.initial_memory),
            latency=config.mem_latency,
        )
        for proc in range(program.num_procs + 1):
            ports.append(
                CachelessPort(
                    sim, network, f"proc{proc}", "mem",
                    write_buffer=config.write_buffer,
                    drain_delay=config.wb_drain_delay,
                )
            )

    uid_counter = {"next": 0}

    def allocate_uid() -> int:
        uid = uid_counter["next"]
        uid_counter["next"] += 1
        return uid

    halted = {"count": 0}

    def on_halt(_p) -> None:
        halted["count"] += 1

    processors: List[Processor] = []
    spare = _ResumedProcessor(
        sim, plan.thread, program.threads[plan.thread], policy,
        ports[spare_index], allocate_uid, on_halt,
        local_cycle=config.local_cycle,
    )

    def on_migrate(donor: Processor) -> None:
        spare.adopt(donor)

    for proc in range(program.num_procs):
        if proc == plan.thread:
            processor = _MigratingProcessor(
                sim, proc, program.threads[proc], policy, ports[proc],
                allocate_uid, on_halt, local_cycle=config.local_cycle,
                plan=plan, on_migrate=on_migrate,
            )
        else:
            processor = Processor(
                sim, proc, program.threads[proc], policy, ports[proc],
                allocate_uid, on_halt, local_cycle=config.local_cycle,
            )
        processors.append(processor)
        processor.start()

    sim.run(max_events=config.max_events)
    if halted["count"] != program.num_procs:
        raise SimulationDeadlock(
            f"not all threads halted in migrated run of {program.name!r}"
        )

    # Report under the original thread identities: the migrated thread's
    # accesses live partly on the donor, partly on the spare, but both
    # share one accesses list (adopted), so the donor list is complete.
    reporters = list(processors)
    if not processors[plan.thread].halted:
        # The donor never halts itself; the spare carries the halt.
        reporters[plan.thread] = spare
    return _package_run(
        program, policy, config, sim, network, reporters,
        directory, memory_module, caches,
    )
