"""End-to-end fuzzing: random programs against the whole stack.

Three oracles run on every random program:

1. **SC hardware is SC for everything** -- every result the SC policy
   produces (any substrate) must pass the exact membership oracle; no
   DRF0 precondition is needed, so arbitrary racy programs are fair game.
2. **Cross-checker agreement** -- the axiomatic SC model and the
   operational enumerator must agree on the program's SC result set.
3. **Liveness everywhere** -- every policy/substrate combination must run
   the program to completion with all writes globally performed.

This is the library testing itself: a disagreement pinpoints a bug in one
of the independent components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.axiomatic import SCModel, allowed_results
from repro.core.contract import is_sc_result
from repro.core.sc import sc_results
from repro.hw import (
    AdveHillPolicy,
    Definition1Policy,
    ReleaseConsistencyPolicy,
    SCPolicy,
)
from repro.machine.generator import GeneratorConfig, random_program
from repro.sim.system import SystemConfig, run_on_hardware
from repro.verify.diff import seed_results


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz campaign."""

    programs_run: int = 0
    hardware_runs: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no oracle disagreed."""
        return not self.failures


#: The hardware matrix each fuzz program runs on.
_FUZZ_CONFIGS = [
    SystemConfig(),
    SystemConfig(topology="bus"),
    SystemConfig(caches=False),
    SystemConfig(coherence="snoop", topology="bus"),
    SystemConfig(cache_capacity=2),
]

_LIVENESS_POLICIES = [
    Definition1Policy,
    AdveHillPolicy,
    ReleaseConsistencyPolicy,
]


@dataclass
class SeedOutcome:
    """One fuzz seed's contribution to a :class:`FuzzReport`.

    The per-seed body is factored out so the serial loop and the parallel
    engine (:mod:`repro.verify.engine`) run literally the same code; a
    parallel campaign merges outcomes in seed order and is therefore
    byte-identical to the serial one.
    """

    seed: int
    programs_run: int = 0
    hardware_runs: int = 0
    failures: List[str] = field(default_factory=list)


def fuzz_one_seed(
    seed: int,
    generator: Optional[GeneratorConfig] = None,
    hardware_seeds: Sequence[int] = range(3),
    judge: Optional[Callable[..., bool]] = None,
) -> SeedOutcome:
    """Run every fuzz oracle on the one random program ``seed`` names.

    ``judge`` is the SC-membership oracle; it defaults to the exact
    :func:`is_sc_result` and exists so callers can substitute a memoizing
    wrapper (the parallel engine does).  A config that draws nothing from
    its seed runs the SC policy once
    (:func:`repro.verify.diff.seed_results`); that result is still counted
    and judged at every hardware seed.
    """
    judge = judge or is_sc_result
    outcome = SeedOutcome(seed=seed)
    program = random_program(seed, generator)
    outcome.programs_run += 1

    if allowed_results(program, SCModel()) != sc_results(program):
        outcome.failures.append(
            f"seed {seed}: axiomatic SC disagrees with enumerator"
        )

    for config_index, config in enumerate(_FUZZ_CONFIGS):
        if config.coherence == "snoop" and not config.caches:
            continue
        results = seed_results(program, SCPolicy(), config, hardware_seeds)
        for hw_seed, result in zip(hardware_seeds, results):
            outcome.hardware_runs += 1
            if not judge(program, result):
                outcome.failures.append(
                    f"seed {seed} config {config_index} hw-seed {hw_seed}: "
                    f"SC hardware produced non-SC result {result}"
                )
        for factory in _LIVENESS_POLICIES:
            if factory().requires_caches and not config.caches:
                continue
            run = run_on_hardware(
                program, factory(), config.with_seed(hardware_seeds[0])
            )
            outcome.hardware_runs += 1
            for per_proc in run.raw_accesses:
                if not all(
                    a.globally_performed for a in per_proc if a.has_write
                ):
                    outcome.failures.append(
                        f"seed {seed}: {factory().name} left a write "
                        "not globally performed"
                    )
    return outcome


def merge_outcomes(outcomes: Sequence[SeedOutcome]) -> FuzzReport:
    """Fold per-seed outcomes (in the order given) into one report."""
    report = FuzzReport()
    for outcome in outcomes:
        report.programs_run += outcome.programs_run
        report.hardware_runs += outcome.hardware_runs
        report.failures.extend(outcome.failures)
    return report


def fuzz(
    seeds: Sequence[int],
    generator: Optional[GeneratorConfig] = None,
    hardware_seeds: Sequence[int] = range(3),
) -> FuzzReport:
    """Run the fuzz oracles over one random program per seed."""
    return merge_outcomes(
        [fuzz_one_seed(seed, generator, hardware_seeds) for seed in seeds]
    )
