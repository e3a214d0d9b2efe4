"""Discrete-event hardware simulator: the contract's hardware side."""

from repro import _lazy_exports

_EXPORTS = {
    "access": ("AccessRecord",),
    "cache": ("CacheController", "CacheLine", "LineState"),
    "directory": ("Directory", "DirectoryEntry"),
    "events": ("SimulationError", "Simulator"),
    "faults": (
        "DELIVERY_PRESERVING_PLANS", "DELIVERY_VIOLATING_PLANS", "FAULT_PLANS",
        "FaultConfigError", "FaultInjector", "FaultPlan", "NULL_INJECTOR",
        "NullInjector", "build_injector",
    ),
    "memory": ("CachelessPort", "MemoryModule"),
    "messages": ("Message", "MsgKind"),
    "migration": ("MigrationPlan", "run_with_migration"),
    "network": ("Bus", "GeneralNetwork", "Interconnect"),
    "processor": ("Processor", "ProcessorStats"),
    "system": (
        "FIGURE1_CONFIGS", "LivenessError", "MachineRun", "SimulationDeadlock",
        "SystemConfig", "WatchdogTimeout", "run_on_hardware", "run_seed_sweep",
    ),
}
__all__ = _lazy_exports(__name__, _EXPORTS)
