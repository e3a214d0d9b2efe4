"""Verification harnesses: contract sweeps, the Section-5.1 monitor, the
parallel verification engine, and the chaos/resilience suite."""

from repro import _lazy_exports

_EXPORTS = {
    "cache": (
        "CacheIntegrityError", "DRF0VerdictCache", "SCVerdictCache",
        "program_fingerprint",
    ),
    "chaos": ("ChaosReport", "PlanOutcome", "chaos_sweep"),
    "conditions": ("ConditionReport", "check_conditions"),
    "engine": (
        "Failpoint", "InjectedTaskError", "RunSummary", "VerificationEngine",
    ),
    "fuzz": ("FuzzReport", "SeedOutcome", "fuzz", "fuzz_one_seed"),
    "store": (
        "AuditReport", "SEMANTICS_VERSION", "StoreStats", "VerdictStore",
    ),
    "sweeps": (
        "Definition2Evidence", "SweepReport", "contract_sweep",
        "definition2_sweep",
    ),
}
__all__ = _lazy_exports(__name__, _EXPORTS)
