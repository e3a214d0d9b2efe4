"""Lock-based workloads: the Section-6 spinning analysis and beyond.

Two acquire idioms matter to the paper:

* plain ``TestAndSet`` spinning -- every spin iteration is a read-write
  synchronization operation, so under the base DRF0 implementation every
  iteration acquires the line exclusively;
* ``Test-and-TestAndSet`` ([RuS84], cited in Section 6) -- spin with a
  read-only ``Test`` and attempt the ``TestAndSet`` only when the lock
  looks free.  The base implementation *serializes these Tests as writes*
  (the performance problem Section 6 identifies); the DRF1 optimization
  lets them spin on a shared cached copy.
"""

from __future__ import annotations

from typing import Optional

from repro.machine.dsl import ThreadBuilder, build_program
from repro.machine.program import Program


def lock_workload(
    num_procs: int = 4,
    increments_per_proc: int = 1,
    ttas: bool = False,
    critical_work: int = 0,
    private_work: int = 0,
    name: Optional[str] = None,
) -> Program:
    """Each processor repeatedly acquires a lock and bumps a shared counter.

    Args:
        num_procs: Contending processors.
        increments_per_proc: Critical-section entries per processor.
        ttas: Use Test-and-TestAndSet acquire (Section 6's idiom).
        critical_work: Local-work cycles inside the critical section
            (longer hold time means more spinning by the others).
        private_work: Local-work cycles outside the critical section.

    The final value of ``count`` must equal
    ``num_procs * increments_per_proc`` under any correct memory system.
    """
    threads = []
    for proc in range(num_procs):
        t = ThreadBuilder()
        for round_index in range(increments_per_proc):
            if ttas:
                t.acquire_ttas("lock", scratch=f"tas{round_index}")
            else:
                t.acquire("lock", scratch=f"tas{round_index}")
            if critical_work:
                t.delay(critical_work)
            t.load("tmp", "count").add("tmp", "tmp", 1).store("count", "tmp")
            t.release("lock")
            if private_work:
                t.delay(private_work)
        threads.append(t)
    label = name or (
        f"lock-{'ttas' if ttas else 'tas'}-p{num_procs}x{increments_per_proc}"
    )
    return build_program(threads, name=label)


def expected_count(num_procs: int, increments_per_proc: int) -> int:
    """The only correct final counter value for :func:`lock_workload`."""
    return num_procs * increments_per_proc


def contended_release_workload(
    num_spinners: int = 3, hold_cycles: int = 120
) -> Program:
    """One holder keeps the lock while others spin: the Section-6 stressor.

    Processor 0 acquires the lock (it starts free), performs
    ``hold_cycles`` of work, and releases.  The other processors spin for
    the lock, increment the counter, and release.  While P0 holds the lock,
    the spinners' repeated synchronization reads either ping-pong the lock
    line (base implementation: Tests are writes) or idle in local caches
    (DRF1 optimization) -- the difference is P0's release latency and total
    traffic.
    """
    holder = (
        ThreadBuilder()
        .acquire("lock")
        .delay(hold_cycles)
        .load("tmp", "count")
        .add("tmp", "tmp", 1)
        .store("count", "tmp")
        .release("lock")
    )
    threads = [holder]
    for _ in range(num_spinners):
        t = (
            ThreadBuilder()
            .acquire_ttas("lock")
            .load("tmp", "count")
            .add("tmp", "tmp", 1)
            .store("count", "tmp")
            .release("lock")
        )
        threads.append(t)
    return build_program(
        threads, name=f"contended-release-s{num_spinners}h{hold_cycles}"
    )
