"""Synthetic workloads for the quantitative comparison (Section 7's
future work).

:data:`WORKLOAD_FACTORIES` is the one table of workload names, as
:data:`repro.hw.POLICY_FACTORIES` is of policy names: each factory
imports its workload module only when it is called.
:func:`resolve_program` is the one lookup of a program by name, for the
command line and the campaign daemon alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import _deferred, _lazy_exports

if TYPE_CHECKING:
    from repro.machine.program import Program

_EXPORTS = {
    "barrier": (
        "barrier_workload", "expected_neighbour_values",
        "phase_parallel_workload",
    ),
    "locks": ("contended_release_workload", "expected_count", "lock_workload"),
    "producer_consumer": (
        "batch_value", "data_locations", "expected_final_data",
        "producer_consumer_workload",
    ),
    "work_queue": ("consumed_total", "expected_total", "work_queue_workload"),
}

#: The workload names a command line accepts wherever it takes a program.
WORKLOAD_FACTORIES = {
    "lock": _deferred("repro.workloads.locks", "lock_workload", 3, 1),
    "ttas": _deferred(
        "repro.workloads.locks", "lock_workload", 3, 1, ttas=True
    ),
    "prodcons": _deferred(
        "repro.workloads.producer_consumer", "producer_consumer_workload",
        batch_size=6,
    ),
    "barrier": _deferred(
        "repro.workloads.barrier", "barrier_workload", num_procs=3, phases=1
    ),
    "phases": _deferred(
        "repro.workloads.barrier", "phase_parallel_workload",
        num_procs=3, chunk=2, phases=1,
    ),
    "workqueue": _deferred(
        "repro.workloads.work_queue", "work_queue_workload",
        num_consumers=2, num_items=4,
    ),
    # Figure 3's release/acquire handoff with cold invalidations and
    # post-release work -- the stall-attribution showcase.
    "critical_section": _deferred(
        "repro.litmus.figures", "figure3_program",
        num_extra_sharers=2, post_release_work=80,
    ),
}


def resolve_program(name: str) -> Program:
    """The workload named ``name``, else the litmus test's program;
    :class:`KeyError` when neither has the name."""
    if name in WORKLOAD_FACTORIES:
        return WORKLOAD_FACTORIES[name]()
    from repro.litmus import by_name

    return by_name(name).program


__all__ = _lazy_exports(__name__, _EXPORTS) + [
    "WORKLOAD_FACTORIES", "resolve_program",
]
