"""Axiomatic outcome computation and cross-validation against enumeration.

:func:`allowed_results` is the axiomatic counterpart of
:func:`repro.core.sc.sc_results`: the set of results a model admits on a
straight-line program.  For the SC model the two must agree exactly --
that agreement is property-tested in the suite, tying the axiomatic and
operational halves of the library together.

Two interchangeable backends compute the set:

* ``"solver"`` (the default) -- the incremental backtracking search of
  :mod:`repro.axiomatic.solver`, which prunes partial (rf, co)
  assignments the moment an axiom breaks;
* ``"enumerator"`` -- the original generate-then-filter enumeration of
  :mod:`repro.axiomatic.candidates`, kept as the differential oracle the
  solver is checked against (the ``core/_legacy.py`` idiom).

Every entry point takes ``backend=``.  ``repro diff`` asks both on
every program it generates, so the solver is differentially checked
against the enumerator on each run.

:func:`allowed_results_by_model` answers several models at once: on the
enumerator it generates each program's candidates once for all of them,
which is how ``repro diff`` and :func:`outcome_table` use the oracle, and
on the solver it searches once per group of models with the same axiom
graphs (:func:`model_groups`).
"""

from __future__ import annotations

import time
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.axiomatic.candidates import Candidate, enumerate_candidates
from repro.axiomatic.events import extract_layout
from repro.axiomatic.models import (
    AcyclicityCheck,
    AxiomaticModel,
    AxiomGraph,
)
from repro.axiomatic.solver import (
    SearchBudgetExceeded,
    SolverConfig,
    solve_candidates,
)
from repro.core.execution import Result
from repro.machine.program import Program

def _deadline_check(
    program: Program, config: SolverConfig
) -> Optional[Callable[[], None]]:
    """The enumerator's ``check_budget`` hook for ``config``'s deadline."""
    if config.max_seconds is None:
        return None
    deadline = time.monotonic() + config.max_seconds

    def check() -> None:
        if time.monotonic() > deadline:
            raise SearchBudgetExceeded(
                f"axiomatic search for {program.name!r} passed its deadline"
            )

    return check


def _over_cap(program: Program, config: SolverConfig, admitted: int) -> None:
    if config.max_candidates is not None and admitted > config.max_candidates:
        raise SearchBudgetExceeded(
            f"axiomatic search for {program.name!r} exceeded "
            f"{config.max_candidates} admitted candidates"
        )


def _admitted_candidates(
    program: Program,
    model: Optional[AxiomaticModel],
    backend: str,
    config: Optional[SolverConfig],
) -> Iterator[Candidate]:
    """Candidates the model admits, via the chosen backend.

    Both backends honor the same :class:`SolverConfig` budget: the cap
    counts admitted candidates, the deadline is wall-clock, and crossing
    either raises :class:`SearchBudgetExceeded`.  The enumerator checks
    its deadline inside its loop over rf picks and combinations, so a run
    of rf picks that meet no RMW-atomic co pick cannot outlast it.
    """
    if backend == "solver":
        yield from solve_candidates(program, model, config)
        return
    if backend != "enumerator":
        raise ValueError(f"unknown axiomatic backend {backend!r}")
    config = config or SolverConfig()
    admitted = 0
    for candidate in enumerate_candidates(
        program, _deadline_check(program, config)
    ):
        if model is not None and not model.allows(candidate):
            continue
        admitted += 1
        _over_cap(program, config, admitted)
        yield candidate


def allowed_results(
    program: Program,
    model: AxiomaticModel,
    backend: str = "solver",
    config: Optional[SolverConfig] = None,
) -> FrozenSet[Result]:
    """Every result the model admits on ``program``."""
    return frozenset(
        candidate.result()
        for candidate in _admitted_candidates(program, model, backend, config)
    )


def allowed_candidates(
    program: Program,
    model: AxiomaticModel,
    backend: str = "solver",
    config: Optional[SolverConfig] = None,
) -> List[Candidate]:
    """The admitted candidates themselves (for inspection/tests)."""
    return list(_admitted_candidates(program, model, backend, config))


def well_formed_candidates(
    program: Program,
    backend: str = "solver",
    config: Optional[SolverConfig] = None,
) -> Iterator[Candidate]:
    """Every well-formed candidate, with no model axioms applied."""
    return _admitted_candidates(program, None, backend, config)


def model_groups(
    program: Program, models: Iterable[AxiomaticModel]
) -> Dict[Tuple[AxiomGraph, ...], List[AxiomaticModel]]:
    """``models`` grouped by their axiom graphs on ``program``.

    A model is its axiom graphs, so the models of one group admit the
    same candidates, and one search answers them all.  WO-DRF0's group
    is SC's on a DRF0 program and COHERENCE's on a racy one.
    """
    layout = extract_layout(program)
    groups: Dict[Tuple[AxiomGraph, ...], List[AxiomaticModel]] = {}
    for model in models:
        key = tuple(model.axiom_graphs(program, layout))
        groups.setdefault(key, []).append(model)
    return groups


def allowed_results_by_model(
    program: Program,
    models: Iterable[AxiomaticModel],
    backend: str = "solver",
    config: Optional[SolverConfig] = None,
) -> Dict[str, FrozenSet[Result]]:
    """Every model's admitted results on ``program``, keyed by model name.

    Equal to ``{m.name: allowed_results(program, m, backend, config)}``,
    answered once per group of models with the same axiom graphs
    (:func:`model_groups`): WO-DRF0 shares SC's or COHERENCE's.  The
    solver prunes per group, so its backend runs one search per group.
    The enumerator generates the well-formed candidates once and checks
    every group against each: a graph several groups share (TSO's
    coherence axiom is COHERENCE's) is checked once per candidate, in one
    :class:`AcyclicityCheck` pass that builds the candidate's rf, co and
    fr edges once for all of them and decides each graph only when a
    group asks for it (:meth:`AcyclicityCheck.verdicts`).  The budget is
    the per-model one: the cap counts each model's admitted candidates,
    the deadline covers the pass.
    """
    models = list(models)
    if backend not in ("solver", "enumerator"):
        raise ValueError(f"unknown axiomatic backend {backend!r}")
    groups = model_groups(program, models)
    if backend == "solver":
        found = [
            allowed_results(program, group[0], backend, config)
            for group in groups.values()
        ]
    else:
        found = _one_pass(program, list(groups), config or SolverConfig())
    sets = {
        model.name: results
        for group, results in zip(groups.values(), found)
        for model in group
    }
    return {model.name: sets[model.name] for model in models}


def _one_pass(
    program: Program,
    graph_sets: List[Tuple[AxiomGraph, ...]],
    config: SolverConfig,
) -> List[FrozenSet[Result]]:
    """The enumerator's admitted results for each set of axiom graphs
    (a model's), from one walk over the program's candidates."""
    graphs: Dict[AxiomGraph, int] = {}
    indices = [
        [graphs.setdefault(graph, len(graphs)) for graph in graph_set]
        for graph_set in graph_sets
    ]
    check = AcyclicityCheck(extract_layout(program), list(graphs))
    admitted = [0] * len(graph_sets)
    results: List[set] = [set() for _ in graph_sets]
    for candidate in enumerate_candidates(
        program, _deadline_check(program, config)
    ):
        holds = check.verdicts(candidate)
        result = None
        for k, needed in enumerate(indices):
            if all(holds[i] for i in needed):
                admitted[k] += 1
                _over_cap(program, config, admitted[k])
                if result is None:
                    result = candidate.result()
                results[k].add(result)
    return [frozenset(found) for found in results]


def outcome_table(
    programs: Iterable[Program], models: Iterable[AxiomaticModel]
) -> List[Dict[str, object]]:
    """Rows of {program, model, num_results} for reporting."""
    rows: List[Dict[str, object]] = []
    models = list(models)
    for program in programs:
        sets = allowed_results_by_model(program, models)
        for model in models:
            rows.append(
                {
                    "program": program.name,
                    "model": model.name,
                    "num_results": len(sets[model.name]),
                }
            )
    return rows
