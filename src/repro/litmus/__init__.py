"""Litmus tests: the paper's figures and the classic suite."""

from repro import _lazy_exports

_EXPORTS = {
    "catalog": ("LitmusTest", "all_tests", "by_name"),
    "figures": ("figure2a_execution", "figure2b_execution", "figure3_program"),
    "harness": (
        "LitmusHardwareReport", "hardware_outcome_table",
        "run_litmus_on_hardware", "verify_catalog_expectations",
    ),
}
__all__ = _lazy_exports(__name__, _EXPORTS)
