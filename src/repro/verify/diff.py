"""Differential campaign: axiomatic solver vs enumerator vs operational
explorers vs the hardware simulator, over the generated-program corpus.

The solver (:mod:`repro.axiomatic.solver`) is trusted because it is
*checked*, continuously, against every independent implementation of the
same semantics this library has:

1. **Backend agreement** -- for each model (SC, COHERENCE, TSO, WO-DRF0)
   the solver's ``allowed_results`` must be bit-identical to the legacy
   generate-then-filter enumerator's, which answers all four models from
   one pass over the program's candidates.
2. **Operational agreement** -- the axiomatic SC set must equal the
   operational explorer's :func:`repro.core.sc.sc_results`.
3. **Contract shape** -- WO-DRF0 must collapse to the SC set on DRF0
   programs and contain the SC set (the coherence floor is weaker) on
   racy ones: the paper's Definition 2 read axiomatically.
4. **Simulator containment** -- every result the hardware simulator
   produces must fall inside the right axiomatic set: SC-policy runs
   inside the SC set, Adve--Hill (the paper's weakly ordered
   implementation) runs inside the WO-DRF0 set.

Any disagreement is auto-minimized at the DSL level
(:func:`repro.machine.generator.shrink_program`) into a litmus-sized
reproducer and attached to the report.  The per-seed body is factored
out (like :mod:`repro.verify.fuzz`) so the serial loop and the parallel
engine run literally the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.axiomatic import (
    CoherenceModel,
    SCModel,
    TSOModel,
    UnsupportedProgram,
    WeakOrderingDRF,
    allowed_results,
    allowed_results_by_model,
    model_groups,
)
from repro.core.execution import Result
from repro.core.sc import sc_results
from repro.hw import AdveHillPolicy, MemoryPolicy, SCPolicy
from repro.machine.generator import (
    GeneratorConfig,
    random_program,
    shrink_program,
)
from repro.machine.program import Program
from repro.sim.system import SystemConfig, run_on_hardware

#: The comparison kinds a seed can disagree on.
KINDS = ("backend", "sc-explorer", "wo-contract", "simulator")

#: Hardware substrates the simulator comparison runs on: the directory
#: default and the snoop/bus alternative (one of each protocol family).
_DIFF_CONFIGS = (
    SystemConfig(),
    SystemConfig(coherence="snoop", topology="bus"),
)


def _default_drf0_judge(program: Program) -> bool:
    from repro.core.drf0 import check_program

    return check_program(program).obeys


def seed_results(
    program: Program,
    policy: MemoryPolicy,
    config: SystemConfig,
    hardware_seeds: Sequence[int],
) -> List[Result]:
    """``program``'s result under ``policy`` on ``config`` at each
    hardware seed, in order.

    A config that draws nothing from its seed
    (:attr:`~repro.sim.system.SystemConfig.draws_from_seed`) would run
    alike at every seed, so it is simulated once, at the first seed, and
    that result stands for every seed.  Both differential campaigns (this
    module and :mod:`repro.verify.fuzz`) run their seed loops through
    here.
    """
    if config.draws_from_seed:
        return [
            run_on_hardware(program, policy, config.with_seed(seed)).result
            for seed in hardware_seeds
        ]
    once = [
        run_on_hardware(program, policy, config.with_seed(seed)).result
        for seed in hardware_seeds[:1]
    ]
    return once * len(hardware_seeds)


def compare_program(
    program: Program,
    hardware_seeds: Sequence[int] = range(2),
    drf0_judge: Optional[Callable[[Program], bool]] = None,
    counters: Optional[Dict[str, int]] = None,
) -> List[Tuple[str, str]]:
    """Run every differential comparison; return (kind, detail) failures.

    ``drf0_judge`` supplies the operational DRF0 verdict (the engine
    substitutes a memoizing wrapper); ``counters`` accumulates
    ``comparisons`` / ``hardware_runs`` when given.  Each distinct
    question is asked once: the solver searches once per group of models
    with the same axiom graphs (WO-DRF0's are SC's or COHERENCE's), and a
    seed-free hardware config is simulated once per policy
    (:func:`seed_results`); every model and every hardware seed is still
    compared and counted.
    """
    drf0_judge = drf0_judge or _default_drf0_judge
    failures: List[Tuple[str, str]] = []

    def count(key: str, n: int = 1) -> None:
        if counters is not None:
            counters[key] = counters.get(key, 0) + n

    drf0 = drf0_judge(program)
    wo_model = WeakOrderingDRF()
    wo_model.prime_verdict(program, drf0)
    models = [SCModel(), CoherenceModel(), TSOModel(), wo_model]

    # One enumerator pass answers every model; the solver prunes per
    # group of models with the same axiom graphs.
    oracle_sets = allowed_results_by_model(
        program, models, backend="enumerator"
    )
    sets: Dict[str, frozenset] = {}
    for group in model_groups(program, models).values():
        found = allowed_results(program, group[0], backend="solver")
        sets.update((model.name, found) for model in group)
    for model in models:
        solver_set = sets[model.name]
        oracle_set = oracle_sets[model.name]
        count("comparisons")
        if solver_set != oracle_set:
            extra = len(solver_set - oracle_set)
            missing = len(oracle_set - solver_set)
            failures.append(
                (
                    "backend",
                    f"{model.name}: solver has {extra} extra / "
                    f"{missing} missing results vs enumerator",
                )
            )

    sc_set = sets[SCModel.name]
    operational = sc_results(program)
    count("comparisons")
    if sc_set != operational:
        failures.append(
            (
                "sc-explorer",
                f"axiomatic SC ({len(sc_set)} results) != operational "
                f"explorer ({len(operational)} results)",
            )
        )

    wo_set = sets[WeakOrderingDRF.name]
    count("comparisons")
    if drf0 and wo_set != sc_set:
        failures.append(
            ("wo-contract", "DRF0 program but WO-DRF0 set != SC set")
        )
    elif not drf0 and not sc_set <= wo_set:
        failures.append(
            (
                "wo-contract",
                "racy program but coherence floor misses "
                f"{len(sc_set - wo_set)} SC results",
            )
        )

    bounds = (
        (SCPolicy(), sc_set, "SC"),
        (AdveHillPolicy(), wo_set, "WO-DRF0"),
    )
    for config in _DIFF_CONFIGS:
        results = [
            seed_results(program, policy, config, hardware_seeds)
            for policy, _, _ in bounds
        ]
        for position, hw_seed in enumerate(hardware_seeds):
            for (policy, bound, bound_name), found in zip(bounds, results):
                count("hardware_runs")
                count("comparisons")
                if found[position] not in bound:
                    failures.append(
                        (
                            "simulator",
                            f"{policy.name} on "
                            f"{config.coherence}/{config.topology} seed "
                            f"{hw_seed} produced a result outside the "
                            f"axiomatic {bound_name} set",
                        )
                    )
    return failures


@dataclass
class Disagreement:
    """One differential failure, with its minimized reproducer."""

    seed: int
    kind: str
    detail: str
    program_name: str
    minimized: Optional[Program] = None
    litmus_name: Optional[str] = None


@dataclass
class DiffSeedOutcome:
    """One seed's contribution to a :class:`DiffReport`."""

    seed: int
    programs_run: int = 0
    comparisons: int = 0
    hardware_runs: int = 0
    skipped: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)


@dataclass
class DiffReport:
    """Aggregate outcome of one differential campaign."""

    programs_run: int = 0
    comparisons: int = 0
    hardware_runs: int = 0
    skipped: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every comparison agreed."""
        return not self.disagreements


def diff_one_seed(
    seed: int,
    generator: Optional[GeneratorConfig] = None,
    hardware_seeds: Sequence[int] = range(2),
    drf0_judge: Optional[Callable[[Program], bool]] = None,
) -> DiffSeedOutcome:
    """Run every differential comparison on the program ``seed`` names."""
    outcome = DiffSeedOutcome(seed=seed)
    program = random_program(seed, generator)
    counters: Dict[str, int] = {}
    try:
        failures = compare_program(
            program, hardware_seeds, drf0_judge, counters
        )
    except UnsupportedProgram:
        outcome.skipped += 1
        return outcome
    outcome.programs_run += 1
    outcome.comparisons = counters.get("comparisons", 0)
    outcome.hardware_runs = counters.get("hardware_runs", 0)
    for kind, detail in failures:
        outcome.disagreements.append(
            Disagreement(
                seed=seed,
                kind=kind,
                detail=detail,
                program_name=program.name,
            )
        )
    return outcome


def minimize_disagreement(
    disagreement: Disagreement,
    generator: Optional[GeneratorConfig] = None,
    hardware_seeds: Sequence[int] = range(2),
) -> Disagreement:
    """Shrink the disagreeing program into a named litmus reproducer.

    The predicate is "the same *kind* of comparison still fails": each
    shrink candidate reruns the full differential body, so the minimized
    program provably still exhibits a ``kind`` disagreement.
    """
    program = random_program(disagreement.seed, generator)
    litmus_name = f"diff-{disagreement.seed}-{disagreement.kind}"

    def still_fails(candidate: Program) -> bool:
        try:
            kinds = {
                kind
                for kind, _ in compare_program(candidate, hardware_seeds)
            }
        except UnsupportedProgram:
            return False
        return disagreement.kind in kinds

    disagreement.minimized = shrink_program(
        program, still_fails, name=litmus_name
    )
    disagreement.litmus_name = litmus_name
    return disagreement


def merge_diff_outcomes(outcomes: Sequence[DiffSeedOutcome]) -> DiffReport:
    """Fold per-seed outcomes (in the order given) into one report."""
    report = DiffReport()
    for outcome in outcomes:
        report.programs_run += outcome.programs_run
        report.comparisons += outcome.comparisons
        report.hardware_runs += outcome.hardware_runs
        report.skipped += outcome.skipped
        report.disagreements.extend(outcome.disagreements)
    return report


def diff_campaign(
    seeds: Sequence[int],
    generator: Optional[GeneratorConfig] = None,
    hardware_seeds: Sequence[int] = range(2),
    minimize: bool = True,
) -> DiffReport:
    """Serial differential campaign over one random program per seed."""
    report = merge_diff_outcomes(
        [
            diff_one_seed(seed, generator, hardware_seeds)
            for seed in seeds
        ]
    )
    if minimize:
        for disagreement in report.disagreements:
            minimize_disagreement(disagreement, generator, hardware_seeds)
    return report


def render_program(program: Program) -> str:
    """A compact textual litmus rendering of a (shrunk) program."""
    lines = [f"{program.name}:"]
    memory = ", ".join(
        f"{loc}={value}"
        for loc, value in sorted(program.initial_memory.items())
    )
    lines.append(f"  init: {{{memory}}}")
    for proc, code in enumerate(program.threads):
        body = "; ".join(repr(instr) for instr in code.instructions)
        lines.append(f"  P{proc}: {body}")
    return "\n".join(lines)


def report_as_dict(report: DiffReport) -> Dict[str, object]:
    """JSON-ready summary of a campaign (for ``repro diff --report``)."""
    return {
        "programs_run": report.programs_run,
        "comparisons": report.comparisons,
        "hardware_runs": report.hardware_runs,
        "skipped": report.skipped,
        "ok": report.ok,
        "disagreements": [
            {
                "seed": d.seed,
                "kind": d.kind,
                "detail": d.detail,
                "program": d.program_name,
                "litmus_name": d.litmus_name,
                "minimized": (
                    render_program(d.minimized)
                    if d.minimized is not None
                    else None
                ),
            }
            for d in report.disagreements
        ],
    }
