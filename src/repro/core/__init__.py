"""Formal core: operations, relations, SC enumeration, DRF0, the contract."""

from repro import _lazy_exports

_EXPORTS = {
    "compile": (
        "CompiledEngine", "compiled_enabled", "compiled_program",
        "interpreted_engine", "make_engine",
    ),
    "contract": (
        "ContractReport", "WeakOrderingVerdict", "appears_sc",
        "check_weak_ordering", "is_sc_result",
    ),
    "drf0": (
        "DRF0Report", "Race", "check_program", "check_program_sampled",
        "obeys_drf0", "races_in_execution", "races_in_execution_vc",
    ),
    "engine_state": ("EngineState", "ExplorerStats"),
    "execution": ("Execution", "Result"),
    "models": (
        "DRF0", "DRF0_MODEL", "DRF1", "DRF1_MODEL", "SynchronizationModel",
    ),
    "ops": ("Operation", "conflicts"),
    "relations": (
        "Relation", "happens_before", "program_order", "synchronization_order",
    ),
    "sc": (
        "Exploration", "ExplorationCapError", "ExplorationConfig",
        "ExplorationIncomplete", "explore", "random_sc_execution",
        "sc_executions", "sc_results",
    ),
    "types": ("Condition", "Location", "OpKind", "ProcId", "Value"),
}
__all__ = _lazy_exports(__name__, _EXPORTS)
