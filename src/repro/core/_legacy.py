"""The pre-engine snapshot-based searches, frozen as a differential oracle.

These are verbatim copies of the interleaving searches as they existed
before the in-place do/undo transition engine
(:mod:`repro.core.engine_state`) replaced them: every DFS node deep-copies
every thread state, copies the whole memory dict, and re-derives
``tuple(sorted(memory.items()))`` keys from scratch.

They are **not** part of the public API and are kept for two purposes only:

* the equivalence property tests (``tests/test_explorer_equivalence.py``)
  check the fast engine against them on the litmus catalog and hundreds of
  generated programs -- same result sets, same executions, same DRF0
  verdicts, same ``complete`` flags, including cap-hit paths.
  :func:`legacy_explore` is the only independent oracle of
  :func:`repro.core.sc.explore` on spin programs (MP+sync), on cap-hit
  truncation order and on ``dedup=False`` execution counts;
* the explorer benchmarks (``benchmarks/bench_e10_explorer.py`` and
  ``bench_e14_compiled.py``) measure the engines' speedup against them
  and assert bit-identical outputs.

Do not "fix" or optimize this module; its value is being the old code.
(One deliberate deviation: ``legacy_explore`` counts ``states`` outside the
dedup branch, mirroring the satellite bugfix in the live code, so cap-hit
``complete`` flags stay comparable between the two in ``dedup=False`` mode.)
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.engine_state import (
    _Thread,
    _advance,
    _initial_threads,
    execute_atomically,
)
from repro.core.execution import Execution, Result, final_memory_from_dict
from repro.core.ops import Operation
from repro.core.types import Location, Value
from repro.machine.interpreter import complete
from repro.machine.program import Program
from repro.core.sc import (  # noqa: F401 -- shared config/exception types
    Exploration,
    ExplorationConfig,
    ExplorationIncomplete,
)


def legacy_explore(
    program: Program, config: Optional[ExplorationConfig] = None
) -> Exploration:
    """The original copy-per-node :func:`repro.core.sc.explore`."""
    cfg = config or ExplorationConfig()
    executions: List[Execution] = []
    results: Set[Result] = set()
    visited: Set[object] = set()
    stats = {"states": 0, "complete": True}

    def config_key(
        threads: Sequence[_Thread],
        memory: Dict[Location, Value],
        reads: Sequence[Tuple[Value, ...]],
    ) -> object:
        return (
            tuple(t.state.key() for t in threads),
            tuple(sorted(memory.items())),
            tuple(reads),
        )

    def emit(
        threads: Sequence[_Thread],
        memory: Dict[Location, Value],
        trace: List[Operation],
    ) -> bool:
        execution = Execution(program, tuple(trace), final_memory_from_dict(memory))
        executions.append(execution)
        results.add(execution.result())
        if cfg.max_executions is not None and len(executions) >= cfg.max_executions:
            stats["complete"] = False
            return False
        return True

    def dfs(
        threads: List[_Thread],
        memory: Dict[Location, Value],
        trace: List[Operation],
        reads: List[Tuple[Value, ...]],
        po_counts: List[int],
        on_path: Set[object],
    ) -> bool:
        runnable = [i for i, t in enumerate(threads) if t.pending is not None]
        if not runnable:
            return emit(threads, memory, trace)
        if len(trace) >= cfg.max_ops:
            stats["complete"] = False
            if cfg.allow_incomplete:
                return True
            raise ExplorationIncomplete(
                f"execution exceeded {cfg.max_ops} operations; "
                "the program may spin forever under some schedule"
            )
        cycle_key = (
            tuple(t.state.key() for t in threads),
            tuple(sorted(memory.items())),
        )
        if cycle_key in on_path:
            return True
        if cfg.dedup:
            key = config_key(threads, memory, reads)
            if key in visited:
                return True
            visited.add(key)
        stats["states"] += 1
        if stats["states"] > cfg.max_states:
            stats["complete"] = False
            if cfg.allow_incomplete:
                return True
            raise ExplorationIncomplete(
                f"visited more than {cfg.max_states} configurations"
            )
        on_path.add(cycle_key)
        try:
            for proc in runnable:
                new_threads = [t.copy() for t in threads]
                new_memory = dict(memory)
                new_reads = list(reads)
                new_po = list(po_counts)
                thread = new_threads[proc]
                request = thread.pending
                assert request is not None
                value_read, value_written = execute_atomically(new_memory, request)
                op = Operation(
                    uid=len(trace),
                    proc=proc,
                    po_index=new_po[proc],
                    kind=request.kind,
                    location=request.location,
                    value_read=value_read,
                    value_written=value_written,
                )
                new_po[proc] += 1
                if value_read is not None:
                    new_reads[proc] = new_reads[proc] + (value_read,)
                complete(program.threads[proc], thread.state, request, value_read)
                _advance(program, proc, thread)
                if not dfs(
                    new_threads, new_memory, trace + [op], new_reads, new_po, on_path
                ):
                    return False
        finally:
            on_path.remove(cycle_key)
        return True

    threads = _initial_threads(program)
    memory = dict(program.initial_memory)
    dfs(threads, memory, [], [() for _ in threads], [0] * program.num_procs, set())
    return Exploration(
        program=program,
        executions=executions,
        results=results,
        complete=stats["complete"],
        states_visited=stats["states"],
    )


def legacy_is_sc_result(
    program: Program, result: Result, max_states: int = 2_000_000
) -> bool:
    """The original copy-per-node guided SC-membership search."""
    from repro.core.contract import ContractSearchLimit

    if len(result.reads) != program.num_procs:
        return False
    expected_reads = [list(values) for values in result.reads]
    expected_memory = dict(result.final_memory)
    if set(expected_memory) != set(program.initial_memory):
        return False

    visited: Set[object] = set()
    states = 0

    def key(threads, memory, pos):
        return (
            tuple(t.state.key() for t in threads),
            tuple(sorted(memory.items())),
            tuple(pos),
        )

    def dfs(threads: List[_Thread], memory: Dict[Location, Value], pos: List[int]) -> bool:
        nonlocal states
        runnable = [i for i, t in enumerate(threads) if t.pending is not None]
        if not runnable:
            if any(p != len(expected_reads[i]) for i, p in enumerate(pos)):
                return False
            return dict(memory) == expected_memory
        k = key(threads, memory, pos)
        if k in visited:
            return False
        visited.add(k)
        states += 1
        if states > max_states:
            raise ContractSearchLimit(
                f"guided SC search exceeded {max_states} configurations"
            )
        for proc in runnable:
            request = threads[proc].pending
            assert request is not None
            if request.kind.has_read:
                if pos[proc] >= len(expected_reads[proc]):
                    continue
                if memory[request.location] != expected_reads[proc][pos[proc]]:
                    continue
            new_threads = [t.copy() for t in threads]
            new_memory = dict(memory)
            new_pos = list(pos)
            thread = new_threads[proc]
            value_read, _ = execute_atomically(new_memory, request)
            if value_read is not None:
                new_pos[proc] += 1
            complete(program.threads[proc], thread.state, request, value_read)
            _advance(program, proc, thread)
            if dfs(new_threads, new_memory, new_pos):
                return True
        return False

    threads = _initial_threads(program)
    memory = dict(program.initial_memory)
    return dfs(threads, memory, [0] * program.num_procs)


def legacy_all_interleavings(
    program: Program, cfg: ExplorationConfig
) -> Iterator[Execution]:
    """The original copy-per-node path-pruned interleaving generator."""

    def path_key(threads, memory):
        return (
            tuple(t.state.key() for t in threads),
            tuple(sorted(memory.items())),
        )

    def dfs(threads, memory, trace, po_counts, on_path: Set[object]):
        runnable = [i for i, t in enumerate(threads) if t.pending is not None]
        if not runnable:
            yield Execution(program, tuple(trace), final_memory_from_dict(memory))
            return
        if len(trace) >= cfg.max_ops:
            if cfg.allow_incomplete:
                return
            raise ExplorationIncomplete(
                f"interleaving exceeded {cfg.max_ops} operations"
            )
        key = path_key(threads, memory)
        if key in on_path:
            return
        on_path.add(key)
        try:
            for proc in runnable:
                new_threads = [t.copy() for t in threads]
                new_memory = dict(memory)
                new_po = list(po_counts)
                thread = new_threads[proc]
                request = thread.pending
                value_read, value_written = execute_atomically(new_memory, request)
                op = Operation(
                    uid=len(trace),
                    proc=proc,
                    po_index=new_po[proc],
                    kind=request.kind,
                    location=request.location,
                    value_read=value_read,
                    value_written=value_written,
                )
                new_po[proc] += 1
                complete(program.threads[proc], thread.state, request, value_read)
                _advance(program, proc, thread)
                yield from dfs(new_threads, new_memory, trace + [op], new_po, on_path)
        finally:
            on_path.remove(key)

    threads = _initial_threads(program)
    memory = dict(program.initial_memory)
    yield from dfs(threads, memory, [], [0] * program.num_procs, set())


def legacy_check_program(program: Program, model=None, config=None):
    """Old exhaustive Definition-3 verdict over the legacy generator."""
    from repro.core.drf0 import DRF0Report, races_in_execution_vc
    from repro.core.models import DRF0_MODEL

    model = model or DRF0_MODEL
    cfg = config or ExplorationConfig(max_ops=400)
    checked = 0
    for execution in legacy_all_interleavings(program, cfg):
        checked += 1
        races = races_in_execution_vc(execution, model)
        if races:
            return DRF0Report(
                program=program,
                model_name=model.name,
                obeys=False,
                executions_checked=checked,
                race=races[0],
                witness=execution,
            )
    return DRF0Report(
        program=program, model_name=model.name, obeys=True, executions_checked=checked
    )
