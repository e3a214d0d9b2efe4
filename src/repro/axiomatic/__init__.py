"""Axiomatic framework: candidate executions and acyclicity models."""

from repro import _lazy_exports

_EXPORTS = {
    "candidates": ("Candidate", "enumerate_candidates"),
    "checker": (
        "allowed_candidates", "allowed_results", "allowed_results_by_model",
        "model_groups", "outcome_table", "well_formed_candidates",
    ),
    "events": (
        "Event", "EventLayout", "ReadRef", "UnsupportedProgram",
        "extract_events", "extract_layout",
    ),
    "models": (
        "ALL_MODELS", "AxiomGraph", "AxiomaticModel", "CoherenceModel",
        "SCModel", "TSOModel", "WeakOrderingDRF",
    ),
    "solver": (
        "SearchBudgetExceeded", "SolverConfig", "result_allowed",
        "solve_candidates", "solver_allowed_results",
    ),
}
__all__ = _lazy_exports(__name__, _EXPORTS)
