"""Empirical Definition-2 sweeps: hardware results vs the SC oracle.

The contract is checked the only way a contract can be checked against a
nondeterministic implementation without exhaustive model checking: run the
hardware across many nondeterminism seeds, collect the distinct results,
and test each against the exact guided SC-membership oracle
(:func:`repro.core.contract.is_sc_result`).  The SC side is exact; the
hardware side is sampled -- :class:`SweepReport.seeds_run` records the
evidence size.

These are the serial reference implementations.  The parallel engine
(:mod:`repro.verify.engine`) fans the same sweeps across a worker fleet and
memoizes oracle verdicts; its output is bit-for-bit identical to the
functions here, which the test suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.core.contract import is_sc_result
from repro.core.drf0 import check_program, check_program_sampled
from repro.core.execution import Result
from repro.machine.program import Program
from repro.sim.system import SystemConfig, run_on_hardware
from repro.verify.conditions import check_conditions


@dataclass
class SweepReport:
    """Outcome of one (program, policy, config) contract sweep.

    ``mean_cycles`` averages over *all* seeds run (every run contributes a
    timing sample), while ``distinct_results`` counts deduplicated
    observable results -- the two denominators differ by design: timing is
    per run, SC-membership evidence is per distinct result.
    """

    program: Program
    policy_name: str
    seeds_run: int
    distinct_results: int
    non_sc_results: List[Result] = field(default_factory=list)
    condition_violations: List[str] = field(default_factory=list)
    mean_cycles: float = 0.0

    @property
    def appears_sc(self) -> bool:
        """True when every observed result had an idealized execution."""
        return not self.non_sc_results


def contract_sweep(
    program: Program,
    policy_factory: Callable[[], object],
    config: Optional[SystemConfig] = None,
    seeds: Sequence[int] = range(20),
    check_51_conditions: bool = False,
) -> SweepReport:
    """Run ``program`` across seeds and check every result against SC.

    With ``check_51_conditions`` the Section-5.1 runtime monitor also runs
    on each run (only meaningful for policies that claim those conditions,
    i.e. the Adve-Hill implementation).

    ``seeds`` may be any iterable, including a one-shot generator: it is
    materialized once at entry, so ``seeds_run`` always reports the true
    evidence size.
    """
    config = config or SystemConfig()
    seeds = list(seeds)
    seen: Set[Result] = set()
    non_sc: List[Result] = []
    condition_problems: List[str] = []
    cycles: List[int] = []
    policy_name: Optional[str] = None
    for seed in seeds:
        policy = policy_factory()
        if policy_name is None:
            policy_name = policy.name
        run = run_on_hardware(program, policy, config.with_seed(seed))
        cycles.append(run.cycles)
        if check_51_conditions:
            report = check_conditions(
                run, drf1_optimized=getattr(policy, "drf1_optimized", False)
            )
            if not report.ok:
                for cond, messages in report.violations.items():
                    condition_problems.extend(
                        f"seed {seed} {cond}: {m}" for m in messages
                    )
        if run.result in seen:
            continue
        seen.add(run.result)
        if not is_sc_result(program, run.result):
            non_sc.append(run.result)
    if policy_name is None:
        # No seeds ran; only then is a throwaway instantiation needed.
        policy_name = policy_factory().name
    return SweepReport(
        program=program,
        policy_name=policy_name,
        seeds_run=len(seeds),
        distinct_results=len(seen),
        non_sc_results=non_sc,
        condition_violations=condition_problems,
        mean_cycles=sum(cycles) / len(cycles) if cycles else 0.0,
    )


@dataclass
class Definition2Evidence:
    """Evidence table for Definition 2 over a program suite."""

    rows: List[Dict[str, object]] = field(default_factory=list)

    @property
    def contract_holds(self) -> bool:
        """No DRF0 program observed a non-SC result anywhere in the suite."""
        return all(
            row["appears_sc"] for row in self.rows if row["program_drf0"]
        )


def evidence_row(
    program: Program, drf0: bool, policy_name: str, report: SweepReport
) -> Dict[str, object]:
    """One :class:`Definition2Evidence` row.

    Shared by the serial sweep and the parallel engine so both paths
    produce byte-identical tables.
    """
    return {
        "program": program.name,
        "program_drf0": drf0,
        "policy": policy_name,
        "appears_sc": report.appears_sc,
        "distinct_results": report.distinct_results,
        "condition_violations": list(report.condition_violations),
        "mean_cycles": report.mean_cycles,
    }


def axiomatic_cross_check(
    program: Program, results: Iterable[Result]
) -> List[str]:
    """Re-judge observed results against the axiomatic SC set.

    For every result a sweep observed, the operational membership oracle
    (:func:`is_sc_result`, a guided state-space search) and the axiomatic
    solver's pinned target-mode query
    (:func:`repro.axiomatic.result_allowed`) must agree -- they are
    independent implementations of the same question.  Returns one
    message per disagreement; programs outside the axiomatic fragment
    (branches, arithmetic on read values) are skipped.
    """
    from repro.axiomatic import SCModel, UnsupportedProgram, result_allowed

    problems: List[str] = []
    model = SCModel()
    for result in results:
        operational = is_sc_result(program, result)
        try:
            axiomatic = result_allowed(program, model, result)
        except UnsupportedProgram:
            return []
        if operational != axiomatic:
            problems.append(
                f"{program.name}: operational SC oracle says "
                f"{operational}, axiomatic solver says {axiomatic} "
                f"for {result}"
            )
    return problems


def definition2_sweep(
    programs: Iterable[Program],
    policy_factories: Dict[str, Callable[[], object]],
    config: Optional[SystemConfig] = None,
    seeds: Sequence[int] = range(20),
    drf0_seeds: Sequence[int] = range(30),
    exhaustive_drf0: bool = False,
    check_51_conditions: bool = False,
) -> Definition2Evidence:
    """Sweep a suite of programs across policies, recording the evidence.

    Each row records whether the program obeys DRF0 (exhaustively, or
    sampled for programs too large to enumerate) and whether the policy
    appeared sequentially consistent on it.  With ``check_51_conditions``
    the Section-5.1 monitor runs on every hardware run and any violations
    are recorded in the row's ``condition_violations``.
    """
    evidence = Definition2Evidence()
    seeds = list(seeds)
    drf0_seeds = list(drf0_seeds)
    for program in programs:
        if exhaustive_drf0:
            drf0 = check_program(program).obeys
        else:
            drf0 = check_program_sampled(program, seeds=drf0_seeds).obeys
        for name, factory in policy_factories.items():
            report = contract_sweep(
                program,
                factory,
                config,
                seeds,
                check_51_conditions=check_51_conditions,
            )
            evidence.rows.append(evidence_row(program, drf0, name, report))
    return evidence
