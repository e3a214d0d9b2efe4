"""Formal core: operations, relations, SC enumeration, DRF0, the contract."""

from repro.core.contract import (
    ContractReport,
    WeakOrderingVerdict,
    appears_sc,
    check_weak_ordering,
    is_sc_result,
)
from repro.core.dpor import (
    check_program_dpor,
    explore_dpor,
    iter_dpor_executions,
    sc_results_dpor,
)
from repro.core.compile import (
    CompiledEngine,
    compiled_enabled,
    compiled_program,
    interpreted_engine,
    make_engine,
    use_compiled,
)
from repro.core.engine_state import EngineState, ExplorerStats
from repro.core.drf0 import (
    DRF0Report,
    Race,
    check_program,
    check_program_sampled,
    obeys_drf0,
    races_in_execution,
    races_in_execution_vc,
)
from repro.core.execution import Execution, Result
from repro.core.models import DRF0_MODEL, DRF1_MODEL, DRF0, DRF1, SynchronizationModel
from repro.core.ops import Operation, conflicts
from repro.core.relations import (
    Relation,
    happens_before,
    program_order,
    synchronization_order,
)
from repro.core.sc import (
    Exploration,
    ExplorationCapError,
    ExplorationConfig,
    ExplorationIncomplete,
    explore,
    random_sc_execution,
    sc_executions,
    sc_results,
)
from repro.core.types import Condition, Location, OpKind, ProcId, Value

__all__ = [
    "Condition",
    "ContractReport",
    "DRF0",
    "DRF0Report",
    "DRF0_MODEL",
    "DRF1",
    "DRF1_MODEL",
    "CompiledEngine",
    "EngineState",
    "Execution",
    "Exploration",
    "ExplorationCapError",
    "ExplorationConfig",
    "ExplorationIncomplete",
    "ExplorerStats",
    "compiled_enabled",
    "compiled_program",
    "interpreted_engine",
    "make_engine",
    "use_compiled",
    "Location",
    "OpKind",
    "Operation",
    "ProcId",
    "Race",
    "Relation",
    "Result",
    "SynchronizationModel",
    "Value",
    "WeakOrderingVerdict",
    "appears_sc",
    "check_program",
    "check_program_dpor",
    "check_program_sampled",
    "check_weak_ordering",
    "conflicts",
    "explore",
    "explore_dpor",
    "iter_dpor_executions",
    "sc_results_dpor",
    "happens_before",
    "is_sc_result",
    "obeys_drf0",
    "program_order",
    "races_in_execution",
    "races_in_execution_vc",
    "random_sc_execution",
    "sc_executions",
    "sc_results",
    "synchronization_order",
]
