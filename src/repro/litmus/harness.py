"""Litmus harness: run the catalog across models and hardware.

Three evaluation backends share the catalog:

* the idealized architecture (exact SC result enumeration),
* the axiomatic models (:mod:`repro.axiomatic`), for straight-line tests,
* the hardware simulator, sweeping nondeterminism seeds per configuration
  and policy.

:func:`run_litmus_on_hardware` reports whether the interesting outcome was
ever observed, plus the Definition-2 verdict (every observed result checked
against the guided SC-membership oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.core.contract import appears_sc
from repro.core.drf0 import check_program
from repro.core.execution import Result
from repro.core.sc import ExplorationConfig, sc_results
from repro.litmus.catalog import LitmusTest
from repro.sim.system import SystemConfig, run_seed_sweep


@dataclass
class LitmusHardwareReport:
    """Outcome of one litmus test on one (config, policy) hardware pair."""

    test: LitmusTest
    policy_name: str
    config: SystemConfig
    seeds_run: int
    outcome_observed: bool
    results: Set[Result] = field(default_factory=set)
    appears_sc: bool = True
    non_sc_results: List[Result] = field(default_factory=list)

    @property
    def contract_respected(self) -> bool:
        """Definition 2: only binding when the program obeys DRF0."""
        if not self.test.drf0:
            return True
        return self.appears_sc


def run_litmus_on_hardware(
    test: LitmusTest,
    policy_factory,
    config: SystemConfig,
    seeds: Sequence[int] = range(20),
    check_contract: bool = True,
) -> LitmusHardwareReport:
    """Run one litmus test over many seeds under one policy.

    ``seeds`` may be a one-shot iterable (e.g. a generator): it is
    materialized once at entry so ``seeds_run`` reports the true count.
    The sweep is batched through :func:`~repro.sim.system.run_seed_sweep`:
    one policy instance (policies are stateless), one up-front
    (policy, config) validation.
    """
    seeds = list(seeds)
    policy = policy_factory()
    results: Set[Result] = {
        run.result
        for run in run_seed_sweep(test.program, policy, config, seeds)
    }
    observed = test.outcome_observed(results)
    report = LitmusHardwareReport(
        test=test,
        policy_name=policy.name,
        config=config,
        seeds_run=len(seeds),
        outcome_observed=observed,
        results=results,
    )
    if check_contract:
        contract = appears_sc(test.program, results)
        report.appears_sc = contract.appears_sc
        report.non_sc_results = contract.violations
    return report


def verify_catalog_expectations(
    tests: Iterable[LitmusTest],
    exploration: Optional[ExplorationConfig] = None,
) -> List[str]:
    """Check each test's declared sc_allows / drf0 flags against the oracles.

    Returns a list of human-readable discrepancies (empty = catalog sound).
    Used by the test suite to keep the catalog honest.
    """
    problems: List[str] = []
    for test in tests:
        results = sc_results(test.program, exploration)
        sc_observed = test.outcome_observed(results)
        if sc_observed != test.sc_allows:
            problems.append(
                f"{test.name}: sc_allows={test.sc_allows} but enumeration "
                f"says {sc_observed}"
            )
        verdict = check_program(test.program)
        if verdict.obeys != test.drf0:
            problems.append(
                f"{test.name}: drf0={test.drf0} but checker says {verdict.obeys}"
            )
    return problems


def hardware_outcome_table(
    tests: Iterable[LitmusTest],
    policy_factories: Dict[str, object],
    config: SystemConfig,
    seeds: Sequence[int] = range(20),
) -> List[Dict[str, object]]:
    """Rows of {test, policy, observed, contract} for reporting."""
    rows: List[Dict[str, object]] = []
    for test in tests:
        for name, factory in policy_factories.items():
            report = run_litmus_on_hardware(test, factory, config, seeds)
            rows.append(
                {
                    "test": test.name,
                    "drf0": test.drf0,
                    "policy": name,
                    "outcome_observed": report.outcome_observed,
                    "appears_sc": report.appears_sc,
                    "contract_respected": report.contract_respected,
                }
            )
    return rows
