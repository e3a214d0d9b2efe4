"""Chaos harness: the paper's verdicts must survive a hostile memory system.

Definition 2 is a statement about *results*, not timings: a policy either
keeps DRF0 programs inside the SC result set or it does not.  A correct
reproduction therefore has an invariance obligation -- perturbing the
hardware in any way that preserves message delivery (jitter, reordering,
duplication, transport retries, forced evictions, slowed counters) must
move cycle counts but never move a verdict.  And perturbations that
*break* delivery (dropped messages) must be caught by the liveness
machinery with a diagnosis, not hang the process.

:func:`chaos_sweep` runs both halves:

* every **delivery-preserving** fault plan re-runs the full Definition-2
  sweep and diffs its verdict map against the fault-free baseline;
* every **delivery-violating** plan probes individual hardware runs and
  checks each one either completes or raises a
  :class:`~repro.sim.system.LivenessError` carrying per-processor
  stall-cause diagnoses.

The report renders as text (the ``repro chaos`` subcommand) and as JSON
(the CI artifact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.faults import (
    DELIVERY_PRESERVING_PLANS,
    DELIVERY_VIOLATING_PLANS,
)
from repro.sim.system import (
    LivenessError,
    SystemConfig,
    build_config,
    run_on_hardware,
)
from repro.verify.engine import VerificationEngine

#: Default litmus selection: covers the contract's load-bearing shapes
#: (synchronized message passing, store buffering, unsynchronized racing).
DEFAULT_PROGRAMS = ("MP", "MP+sync", "SB", "SB+sync")
QUICK_PROGRAMS = ("MP+sync", "SB")

DEFAULT_POLICIES = (
    "sc",
    "definition1",
    "adve-hill",
    "adve-hill-drf1",
    "release-consistency",
    "relaxed",
)
QUICK_POLICIES = ("sc", "adve-hill", "relaxed")

QUICK_PRESERVING = ("jitter-heavy", "reorder", "duplicate", "kitchen-sink")

#: Every faulted run's liveness watchdog: a delivery-violating plan must
#: end in a diagnosed stall within this many cycles, never a hang.
WATCHDOG_CYCLES = 20_000


@dataclass
class PlanOutcome:
    """What one fault plan did to the sweep."""

    plan: str
    delivery_preserving: bool
    runs: int = 0
    #: Preserving plans: did the verdict map equal the baseline's?
    verdicts_match: Optional[bool] = None
    mismatches: List[str] = field(default_factory=list)
    #: Violating plans: probe runs flagged by the liveness machinery vs.
    #: runs that completed anyway (a violation that never bit).
    flagged: int = 0
    completed: int = 0
    #: Anything that escaped as a non-LivenessError is a harness bug.
    unexpected_errors: List[str] = field(default_factory=list)
    sample_diagnoses: List[str] = field(default_factory=list)
    #: Injector counters sampled from probe runs (proof faults fired).
    fault_events: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        if self.delivery_preserving:
            return bool(self.verdicts_match)
        return (
            not self.unexpected_errors
            and self.flagged > 0
        )


@dataclass
class ChaosReport:
    """Outcome of a full chaos sweep."""

    programs: List[str]
    policies: List[str]
    seeds: int
    #: "program/policy" -> (drf0, appears_sc) from the fault-free sweep.
    baseline_verdicts: Dict[str, Tuple[bool, bool]]
    outcomes: List[PlanOutcome] = field(default_factory=list)

    @property
    def invariance_holds(self) -> bool:
        """Every delivery-preserving plan reproduced the baseline map."""
        return all(
            o.ok for o in self.outcomes if o.delivery_preserving
        )

    @property
    def watchdog_sound(self) -> bool:
        """Every delivery-violating probe was flagged cleanly, never hung
        or escaped with a foreign traceback."""
        return all(
            o.ok for o in self.outcomes if not o.delivery_preserving
        )

    @property
    def ok(self) -> bool:
        return self.invariance_holds and self.watchdog_sound

    def render(self) -> str:
        lines = [
            "chaos resilience report",
            "=======================",
            f"suite: {len(self.programs)} programs x "
            f"{len(self.policies)} policies x {self.seeds} seeds "
            f"({', '.join(self.programs)})",
            "",
            "delivery-preserving plans (verdicts must not move):",
        ]
        for outcome in self.outcomes:
            if not outcome.delivery_preserving:
                continue
            verdict = "MATCH" if outcome.verdicts_match else "MISMATCH"
            events = sum(outcome.fault_events.values())
            lines.append(
                f"  {outcome.plan:<18} {verdict:<9} "
                f"({events} fault events sampled)"
            )
            for mismatch in outcome.mismatches:
                lines.append(f"      !! {mismatch}")
        lines.append("")
        lines.append(
            "delivery-violating plans (liveness machinery must flag, "
            "not hang):"
        )
        for outcome in self.outcomes:
            if outcome.delivery_preserving:
                continue
            lines.append(
                f"  {outcome.plan:<18} {outcome.flagged}/{outcome.runs} "
                f"probes flagged, {outcome.completed} completed"
            )
            for diag in outcome.sample_diagnoses:
                lines.append(f"      {diag}")
            for err in outcome.unexpected_errors:
                lines.append(f"      !! unexpected: {err}")
        lines.append("")
        lines.append(
            "verdict invariance: "
            + ("HOLDS" if self.invariance_holds else "BROKEN")
        )
        lines.append(
            "liveness detection: "
            + ("SOUND" if self.watchdog_sound else "BROKEN")
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "programs": self.programs,
            "policies": self.policies,
            "seeds": self.seeds,
            "baseline_verdicts": {
                key: {"drf0": drf0, "appears_sc": sc}
                for key, (drf0, sc) in sorted(self.baseline_verdicts.items())
            },
            "plans": [
                {
                    "plan": o.plan,
                    "delivery_preserving": o.delivery_preserving,
                    "runs": o.runs,
                    "verdicts_match": o.verdicts_match,
                    "mismatches": o.mismatches,
                    "flagged": o.flagged,
                    "completed": o.completed,
                    "unexpected_errors": o.unexpected_errors,
                    "sample_diagnoses": o.sample_diagnoses,
                    "fault_events": o.fault_events,
                    "ok": o.ok,
                }
                for o in self.outcomes
            ],
            "invariance_holds": self.invariance_holds,
            "watchdog_sound": self.watchdog_sound,
            "ok": self.ok,
        }


def _verdict_map(evidence) -> Dict[str, Tuple[bool, bool]]:
    return {
        f"{row['program']}/{row['policy']}": (
            bool(row["program_drf0"]),
            bool(row["appears_sc"]),
        )
        for row in evidence.rows
    }


def chaos_sweep(
    engine: VerificationEngine,
    seeds: Sequence[int] = range(10),
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run the full chaos suite on ``engine`` and return its report.

    ``quick`` shrinks every axis (programs, policies, plans, seeds) to a
    CI-smoke-sized subset.  Every sweep -- the baseline and one per
    delivery-preserving plan -- runs on the one engine, so its SC and
    DRF0 verdict caches serve them all: an SC judgment is keyed by
    (program, result) and is fault-plan-independent, so the baseline
    pays for the oracle and every plan after it mostly re-proves
    hardware behavior.  An engine with a persistent
    :class:`~repro.verify.store.VerdictStore` lets a *second* chaos run
    skip the oracle entirely and reuse per-plan hardware summaries (the
    run keys include the fault plan via the config repr, so plans never
    cross-contaminate); the caller closes it.

    The engine's monitor (a :class:`~repro.obs.progress.CampaignMonitor`)
    makes the suite watchable: the harness claims the campaign plan --
    one unit for the baseline, one per preserving plan and one per
    violating-plan probe -- before its sweeps run, so they heartbeat
    without re-planning it (their :meth:`claim_plan` returns ``False``).
    """
    from repro.hw import POLICY_FACTORIES
    from repro.litmus.catalog import by_name

    program_names = QUICK_PROGRAMS if quick else DEFAULT_PROGRAMS
    policy_names = QUICK_POLICIES if quick else DEFAULT_POLICIES
    preserving_plans = (
        QUICK_PRESERVING if quick else tuple(DELIVERY_PRESERVING_PLANS)
    )
    if quick:
        seeds = range(min(6, len(list(seeds)) or 6))
    seeds = list(seeds)
    config = SystemConfig()
    say = progress if progress is not None else (lambda _msg: None)

    programs = [by_name(name).program for name in program_names]
    factories = {name: POLICY_FACTORIES[name] for name in policy_names}

    probe_seeds = seeds[:2] or [0]
    probes_per_plan = len(programs) * len(factories) * len(probe_seeds)
    monitor = engine.monitor
    owns_plan = monitor is not None and monitor.claim_plan()
    if owns_plan:
        monitor.progress.plan(
            [("baseline", 1, 0.0)]
            + [(f"plan/{name}", 1, 0.0) for name in preserving_plans]
            + [
                (f"probe/{name}", probes_per_plan, 0.0)
                for name in DELIVERY_VIOLATING_PLANS
            ]
        )
        monitor.poll(force=True)

    def plan_tick(cell: int) -> None:
        if owns_plan:
            monitor.progress.unit_done(cell)
            monitor.poll()

    say("baseline sweep (no faults)")
    baseline = _verdict_map(
        engine.definition2_sweep(programs, factories, config, seeds=seeds)
    )
    plan_tick(0)

    report = ChaosReport(
        programs=list(program_names),
        policies=list(policy_names),
        seeds=len(seeds),
        baseline_verdicts=baseline,
    )

    for plan_index, plan_name in enumerate(preserving_plans):
        say(f"plan {plan_name} (delivery-preserving)")
        outcome = PlanOutcome(plan=plan_name, delivery_preserving=True)
        cfg = build_config(faults=plan_name, watchdog_cycles=WATCHDOG_CYCLES)
        faulted = _verdict_map(
            engine.definition2_sweep(programs, factories, cfg, seeds=seeds)
        )
        outcome.runs = len(programs) * len(factories) * len(seeds)
        outcome.verdicts_match = faulted == baseline
        for key in sorted(baseline):
            if faulted.get(key) != baseline[key]:
                outcome.mismatches.append(
                    f"{key}: baseline {baseline[key]} vs {faulted.get(key)}"
                )
        outcome.fault_events = _sample_fault_events(
            programs[0], factories[policy_names[0]], cfg, seeds[:2]
        )
        report.outcomes.append(outcome)
        plan_tick(1 + plan_index)

    for probe_index, plan_name in enumerate(DELIVERY_VIOLATING_PLANS):
        say(f"plan {plan_name} (delivery-violating)")
        outcome = PlanOutcome(plan=plan_name, delivery_preserving=False)
        cfg = build_config(faults=plan_name, watchdog_cycles=WATCHDOG_CYCLES)
        probe_cell = 1 + len(preserving_plans) + probe_index
        for program in programs:
            for name, factory in factories.items():
                for seed in probe_seeds:
                    outcome.runs += 1
                    try:
                        run_on_hardware(
                            program, factory(), cfg.with_seed(seed)
                        )
                    except LivenessError as exc:
                        outcome.flagged += 1
                        if len(outcome.sample_diagnoses) < 3:
                            outcome.sample_diagnoses.append(
                                f"{program.name}/{name}: "
                                f"{type(exc).__name__}: "
                                + (exc.stuck[0] if exc.stuck else str(exc))
                            )
                    except Exception as exc:  # noqa: BLE001 -- harness audit
                        outcome.unexpected_errors.append(
                            f"{program.name}/{name} seed {seed}: "
                            f"{type(exc).__name__}: {exc}"
                        )
                    else:
                        outcome.completed += 1
                    plan_tick(probe_cell)
        report.outcomes.append(outcome)

    return report


def _sample_fault_events(
    program, factory, cfg: SystemConfig, seeds: Sequence[int]
) -> Dict[str, int]:
    """Sum injector counters over a few probe runs (RunSummary does not
    carry them through the engine, and two runs are plenty as evidence
    that the plan actually fired)."""
    totals: Dict[str, int] = {}
    for seed in seeds:
        run = run_on_hardware(program, factory(), cfg.with_seed(seed))
        for key, value in run.fault_stats.items():
            totals[key] = totals.get(key, 0) + value
    return totals
