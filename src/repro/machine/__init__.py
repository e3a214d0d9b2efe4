"""Register-machine frontend: ISA, programs, DSL, interpreter."""

from repro import _lazy_exports

_EXPORTS = {
    "dsl": ("ThreadBuilder", "build_program"),
    "interpreter": (
        "DelayRequest", "FenceRequest", "InterpreterError", "MemRequest",
        "ThreadState", "complete", "consume_delay", "run_to_memory_op",
    ),
    "isa": (
        "Add", "BranchIf", "Delay", "Div", "Fence", "Halt", "Instruction",
        "Jump", "Load", "MemoryInstruction", "Mov", "Mul", "Store", "Sub",
        "SyncLoad", "SyncStore", "TestAndSet", "Unset",
    ),
    "program": ("Program", "ProgramError", "ThreadCode"),
}
__all__ = _lazy_exports(__name__, _EXPORTS)
