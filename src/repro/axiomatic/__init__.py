"""Axiomatic framework: candidate executions and acyclicity models."""

from repro.axiomatic.candidates import Candidate, enumerate_candidates
from repro.axiomatic.checker import (
    LEGACY_BACKEND_ENV,
    allowed_candidates,
    allowed_results,
    allowed_results_by_model,
    default_backend,
    outcome_table,
    well_formed_candidates,
)
from repro.axiomatic.events import (
    Event,
    EventLayout,
    ReadRef,
    UnsupportedProgram,
    extract_events,
    extract_layout,
)
from repro.axiomatic.models import (
    ALL_MODELS,
    AxiomaticModel,
    AxiomGraph,
    CoherenceModel,
    SCModel,
    TSOModel,
    WeakOrderingDRF,
)
from repro.axiomatic.solver import (
    SearchBudgetExceeded,
    SolverConfig,
    result_allowed,
    solve_candidates,
    solver_allowed_results,
)

__all__ = [
    "ALL_MODELS",
    "AxiomGraph",
    "AxiomaticModel",
    "Candidate",
    "CoherenceModel",
    "Event",
    "EventLayout",
    "LEGACY_BACKEND_ENV",
    "ReadRef",
    "SCModel",
    "SearchBudgetExceeded",
    "SolverConfig",
    "TSOModel",
    "UnsupportedProgram",
    "WeakOrderingDRF",
    "allowed_candidates",
    "allowed_results",
    "allowed_results_by_model",
    "default_backend",
    "enumerate_candidates",
    "extract_events",
    "extract_layout",
    "outcome_table",
    "result_allowed",
    "solve_candidates",
    "solver_allowed_results",
    "well_formed_candidates",
]
