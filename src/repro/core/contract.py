"""The Definition-2 contract: "appears sequentially consistent".

Definition 2 of the paper: *hardware is weakly ordered with respect to a
synchronization model if and only if it appears sequentially consistent to
all software that obey the synchronization model.*

The operational question is therefore: given a result observed on some
hardware (here: the discrete-event simulator), is it the result of *some*
execution of the idealized architecture?  For loop-free programs one can
enumerate the full SC result set, but programs with synchronization spin
loops have unboundedly many SC results (every spin count is a distinct
read history).  This module instead implements a *guided membership
search*: an interleaving search in which a processor may complete a read
only if the value it would return matches the next value in that
processor's observed read history.

The guided search always terminates: a thread's control path is a
deterministic function of the values its reads return, and the observed
history bounds the number of reads, so each thread can execute only a fixed
finite instruction sequence.  Configurations are deduplicated on
(thread states, memory, read positions).

Spin loops are folded: a read that leaves its location holding the value
it returned (a plain read, or a ``TestAndSet`` that wrote back what it
read) is seen by no other access, so a processor's following re-reads of
that location and value are taken in the same transition
(:func:`_fold_rereads`).  ``docs/formal-model.md`` proves the folded
search accepts exactly the results the unfolded one does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set

from repro.core.compile import make_engine
from repro.core.engine_state import ExplorerStats
from repro.core.execution import Result
from repro.core.sc import ExplorationCapError
from repro.core.types import Location, Value
from repro.machine.program import Program


class ContractSearchLimit(ExplorationCapError):
    """Raised when the guided membership search exceeds its state budget."""


def _fold_rereads(
    engine,
    proc: int,
    location: Location,
    value: Value,
    history: Sequence[Value],
) -> int:
    """Absorb ``proc``'s re-reads of ``location`` into the current step.

    Call right after ``proc`` completed a read of ``location`` that
    returned ``value``.  While memory still holds ``value`` there, the
    processor's next operation reads ``location`` and its observed
    ``history`` expects ``value`` next, step it too; a step that changes
    memory (a winning ``TestAndSet``) is undone and ends the fold.
    Returns the number of steps absorbed, each to be undone with the
    transition.  Uses only ``pending``/``step``/``undo``/``read_value``
    and the read histories, so it runs on either engine.
    """
    folded = 0
    pos = len(engine.reads[proc])
    while engine.read_value(location) == value:
        request = engine.pending(proc)
        if (
            request is None
            or not request.kind.has_read
            or request.location != location
            or pos >= len(history)
            or history[pos] != value
        ):
            return folded
        engine.step(proc)
        folded += 1
        pos += 1
    if folded:  # the last absorbed step changed memory: take it back
        engine.undo()
        folded -= 1
    return folded


def is_sc_result(
    program: Program,
    result: Result,
    max_states: int = 2_000_000,
    stats: Optional[ExplorerStats] = None,
) -> bool:
    """True iff ``result`` is the result of some idealized execution.

    This is the membership test behind "appears sequentially consistent":
    an interleaving search guided by the observed per-processor read
    histories.  Read operations may only complete with the observed value;
    the search succeeds when all threads halt having consumed their entire
    read history and the final memory matches.  Repeated reads that leave
    memory unchanged are folded into one transition (module docstring).

    The search runs on the in-place do/undo transition engine
    (:class:`~repro.core.engine_state.EngineState`); pass ``stats`` to
    accumulate its exploration counters.
    """
    if len(result.reads) != program.num_procs:
        return False
    expected_reads = [tuple(values) for values in result.reads]
    if set(dict(result.final_memory)) != set(program.initial_memory):
        return False
    expected_memory = tuple(sorted(result.final_memory))
    expected_counts = tuple(len(r) for r in expected_reads)

    # The guided search never reads the trace: skip recording it.
    engine = make_engine(program, record_trace=False)
    # Without a backward branch no processor can spin: nothing to fold.
    fold = not engine.straightline
    visited: Set[object] = set()
    states = 0

    def dfs() -> bool:
        nonlocal states
        runnable = engine.runnable()
        if not runnable:
            if engine.read_counts() != expected_counts:
                return False
            return engine.final_memory() == expected_memory
        k = (engine.config_key(), engine.read_counts())
        if k in visited:
            return False
        visited.add(k)
        states += 1
        if states > max_states:
            raise ContractSearchLimit(
                f"guided SC search exceeded {max_states} configurations",
                states=states,
            )
        for proc in runnable:
            request = engine.pending(proc)
            assert request is not None
            folded = 0
            if request.kind.has_read:
                history = expected_reads[proc]
                pos = len(engine.reads[proc])
                if pos >= len(history):
                    continue  # observed history exhausted; branch impossible
                value = engine.read_value(request.location)
                if value != history[pos]:
                    continue  # would read a value the hardware never returned
                engine.step(proc)
                if fold:
                    folded = _fold_rereads(
                        engine, proc, request.location, value, history
                    )
            else:
                engine.step(proc)
            try:
                if dfs():
                    return True
            finally:
                engine.undo()
                while folded:
                    engine.undo()
                    folded -= 1
        return False

    found = dfs()
    if stats is not None:
        stats.states += states
        stats.transitions += engine.transitions
        stats.max_depth = max(stats.max_depth, engine.max_depth)
        stats.peak_visited = max(stats.peak_visited, len(visited))
    return found


@dataclass
class ContractReport:
    """Verdict of an appears-sequentially-consistent check.

    Attributes:
        program: The program checked.
        appears_sc: True when every observed result is an SC result.
        results_checked: How many distinct observed results were tested.
        violations: Observed results with no idealized execution.
    """

    program: Program
    appears_sc: bool
    results_checked: int
    violations: List[Result] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.appears_sc


def appears_sc(
    program: Program,
    observed_results: Iterable[Result],
    max_states: int = 2_000_000,
) -> ContractReport:
    """Check a batch of observed hardware results against the SC oracle."""
    violations: List[Result] = []
    seen: Set[Result] = set()
    for result in observed_results:
        if result in seen:
            continue
        seen.add(result)
        if not is_sc_result(program, result, max_states=max_states):
            violations.append(result)
    return ContractReport(
        program=program,
        appears_sc=not violations,
        results_checked=len(seen),
        violations=violations,
    )


@dataclass
class WeakOrderingVerdict:
    """Definition-2 verdict for one (program, hardware) pair.

    Definition 2 only obliges the hardware when the program obeys the
    synchronization model; ``program_obeys_model`` records that premise so a
    racy program's non-SC results are reported as *permitted*, not as a
    contract violation.
    """

    program: Program
    program_obeys_model: bool
    contract: ContractReport

    @property
    def hardware_ok(self) -> bool:
        """True unless a model-obeying program observed a non-SC result."""
        if not self.program_obeys_model:
            return True
        return self.contract.appears_sc


def check_weak_ordering(
    program: Program,
    program_obeys_model: bool,
    observed_results: Iterable[Result],
    max_states: int = 2_000_000,
) -> WeakOrderingVerdict:
    """Assemble the Definition-2 verdict from its two proof obligations."""
    report = appears_sc(program, observed_results, max_states=max_states)
    return WeakOrderingVerdict(
        program=program,
        program_obeys_model=program_obeys_model,
        contract=report,
    )
