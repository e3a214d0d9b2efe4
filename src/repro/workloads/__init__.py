"""Synthetic workloads for the quantitative comparison (Section 7's future work)."""

from repro import _lazy_exports

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
__all__ = _lazy_exports(__name__, _EXPORTS)
