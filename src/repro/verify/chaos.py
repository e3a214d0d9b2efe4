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

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.faults import (
    DELIVERY_PRESERVING_PLANS,
    DELIVERY_VIOLATING_PLANS,
)
from repro.sim.system import LivenessError, SystemConfig, run_on_hardware
from repro.verify.cache import DRF0VerdictCache, SCVerdictCache
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
    program_names: Optional[Sequence[str]] = None,
    policy_names: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = range(10),
    config: Optional[SystemConfig] = None,
    jobs: Optional[int] = 1,
    quick: bool = False,
    watchdog_cycles: int = 20_000,
    preserving_plans: Optional[Sequence[str]] = None,
    violating_plans: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    cache_dir: Optional[str] = None,
    monitor=None,
) -> ChaosReport:
    """Run the full chaos suite and return its report.

    ``quick`` shrinks every axis (programs, policies, plans, seeds) to a
    CI-smoke-sized subset.  SC and DRF0 verdict caches are shared across
    all plans: an SC judgment is keyed by (program, result) and is
    fault-plan-independent, so the baseline pays for the oracle and every
    plan after it mostly re-proves hardware behavior.  ``cache_dir``
    additionally attaches one shared persistent
    :class:`~repro.verify.store.VerdictStore`, so a *second* chaos run
    skips the oracle entirely and reuses per-plan hardware summaries
    (the run keys include the fault plan via the config repr, so plans
    never cross-contaminate).

    ``monitor`` (a :class:`~repro.obs.progress.CampaignMonitor`) makes
    the suite watchable: the chaos harness claims the campaign plan --
    one unit per sweep plan plus one per violating-plan probe -- and the
    per-plan engines share the monitor for heartbeats without re-planning
    it (their :meth:`claim_plan` returns ``False``).
    """
    from repro.hw import POLICY_FACTORIES
    from repro.litmus.catalog import by_name

    if program_names is None:
        program_names = QUICK_PROGRAMS if quick else DEFAULT_PROGRAMS
    if policy_names is None:
        policy_names = QUICK_POLICIES if quick else DEFAULT_POLICIES
    if preserving_plans is None:
        preserving_plans = (
            QUICK_PRESERVING if quick else tuple(DELIVERY_PRESERVING_PLANS)
        )
    if violating_plans is None:
        violating_plans = tuple(DELIVERY_VIOLATING_PLANS)
    if quick:
        seeds = range(min(6, len(list(seeds)) or 6))
    seeds = list(seeds)
    config = config or SystemConfig()
    say = progress if progress is not None else (lambda _msg: None)

    programs = [by_name(name).program for name in program_names]
    factories = {name: POLICY_FACTORIES[name] for name in policy_names}

    sc_cache = SCVerdictCache()
    drf0_cache = DRF0VerdictCache()
    store = None
    if cache_dir is not None:
        from repro.verify.store import VerdictStore

        store = VerdictStore(cache_dir)
        store.load()

    def engine() -> VerificationEngine:
        return VerificationEngine(
            jobs=jobs, sc_cache=sc_cache, drf0_cache=drf0_cache, store=store,
            monitor=monitor,
        )

    probe_seeds = seeds[:2] or [0]
    probes_per_plan = len(programs) * len(factories) * len(probe_seeds)
    owns_plan = monitor is not None and monitor.claim_plan()
    if owns_plan:
        monitor.plan(
            [("baseline", 1, 0.0)]
            + [(f"plan/{name}", 1, 0.0) for name in preserving_plans]
            + [
                (f"probe/{name}", probes_per_plan, 0.0)
                for name in violating_plans
            ]
        )
        monitor.poll(force=True)

    def plan_tick(cell: int, units: int = 1) -> None:
        if owns_plan:
            monitor.unit_done(cell, units)
            monitor.poll()

    say("baseline sweep (no faults)")
    baseline = _verdict_map(
        engine().definition2_sweep(programs, factories, config, seeds=seeds)
    )
    plan_tick(0)

    report = ChaosReport(
        programs=list(program_names),
        policies=list(policy_names),
        seeds=len(seeds),
        baseline_verdicts=baseline,
    )

    for plan_index, plan_name in enumerate(preserving_plans):
        plan = DELIVERY_PRESERVING_PLANS[plan_name]
        say(f"plan {plan_name} (delivery-preserving)")
        outcome = PlanOutcome(plan=plan_name, delivery_preserving=True)
        cfg = replace(
            config, fault_plan=plan, watchdog_cycles=watchdog_cycles
        )
        faulted = _verdict_map(
            engine().definition2_sweep(programs, factories, cfg, seeds=seeds)
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

    for probe_index, plan_name in enumerate(violating_plans):
        plan = DELIVERY_VIOLATING_PLANS[plan_name]
        say(f"plan {plan_name} (delivery-violating)")
        outcome = PlanOutcome(plan=plan_name, delivery_preserving=False)
        cfg = replace(
            config, fault_plan=plan, watchdog_cycles=watchdog_cycles
        )
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

    if store is not None:
        store.close()
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


# -- service kill-chaos -------------------------------------------------

def _daemon_entry(state_dir: str, workers: int, task_timeout: float) -> None:
    """Child-process body: run a campaign daemon until it drains."""
    from repro.service.daemon import CampaignDaemon

    daemon = CampaignDaemon(
        state_dir, port=0, workers=workers, task_timeout=task_timeout
    )
    daemon.serve_forever()


def service_kill_chaos(
    state_dir: str,
    program_names: Sequence[str] = ("MP+sync", "SB"),
    policy_names: Sequence[str] = ("sc", "adve-hill"),
    seeds: int = 4,
    drf0_seeds: int = 4,
    worker_kills: int = 2,
    daemon_restart: bool = True,
    workers: int = 2,
    task_timeout: float = 30.0,
    timeout: float = 300.0,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Process-level chaos: the daemon's evidence must survive murder.

    The fault-plan chaos above perturbs the *simulated* memory system;
    this half perturbs the *service* itself.  A campaign is submitted to
    a real daemon with ``worker_kills`` crash failpoints armed
    (``{"task_kind": "run", "mode": "crash"}`` -- each kills one fleet
    worker mid-task, exactly once, token-claimed across the fleet), and
    -- with ``daemon_restart`` -- the daemon process is SIGKILLed the
    moment the first worker dies, then restarted on the same state
    directory to resume the campaign from the daemon's verdict store.

    The invariance obligation is the same as every other chaos axis:
    the final evidence rows must be byte-identical (as canonical JSON)
    to a plain in-process serial sweep of the same spec.  The returned
    report also carries the ``engine.service.*`` counters so callers can
    assert the recovery machinery actually engaged (worker crashes
    reaped, leases reclaimed, retries charged) rather than the kills
    having silently missed.
    """
    import multiprocessing
    import signal as signal_mod

    from repro.service.campaigns import resolve_policies, resolve_program
    from repro.service.client import ServiceClient, ServiceError

    say = progress if progress is not None else (lambda _msg: None)
    deadline = time.monotonic() + timeout
    os.makedirs(state_dir, exist_ok=True)
    token_dir = os.path.join(state_dir, "chaos-tokens")
    os.makedirs(token_dir, exist_ok=True)
    tokens = [
        os.path.join(token_dir, f"kill-{index}")
        for index in range(worker_kills)
    ]
    for token in tokens:
        try:
            os.unlink(token)
        except OSError:
            pass

    spec = {
        "programs": list(program_names),
        "policies": list(policy_names),
        "seeds": int(seeds),
        "drf0_seeds": int(drf0_seeds),
        "failpoints": [
            {"task_kind": "run", "mode": "crash", "token": token}
            for token in tokens
        ],
    }

    say("serial baseline sweep (no daemon, no kills)")
    programs = [resolve_program(name) for name in program_names]
    factories = resolve_policies(list(policy_names))
    baseline = VerificationEngine(jobs=1).definition2_sweep(
        programs,
        factories,
        SystemConfig(),
        seeds=range(int(seeds)),
        drf0_seeds=range(int(drf0_seeds)),
    )
    baseline_blob = json.dumps(baseline.rows, sort_keys=True)

    ctx = multiprocessing.get_context("fork")
    endpoint_path = os.path.join(state_dir, "endpoint.json")

    def start_daemon():
        proc = ctx.Process(
            target=_daemon_entry,
            args=(state_dir, workers, task_timeout),
        )
        proc.start()
        while time.monotonic() < deadline:
            try:
                with open(endpoint_path, "r", encoding="utf-8") as handle:
                    endpoint = json.load(handle)
                if endpoint.get("pid") == proc.pid:
                    return proc, ServiceClient(
                        endpoint.get("host", "127.0.0.1"), endpoint["port"]
                    )
            except (OSError, ValueError, KeyError):
                pass
            if not proc.is_alive():
                raise RuntimeError("campaign daemon died during startup")
            time.sleep(0.05)
        proc.terminate()
        raise RuntimeError("campaign daemon did not bind in time")

    say("starting the campaign daemon")
    proc, client = start_daemon()
    restarts = 0
    try:
        accepted = client.submit_with_backoff(spec)
        cid = accepted["id"]
        say(f"campaign {cid} submitted ({worker_kills} worker kills armed)")
        if daemon_restart:
            while not any(os.path.exists(token) for token in tokens):
                if time.monotonic() >= deadline:
                    raise RuntimeError(
                        "no worker kill fired before the chaos deadline"
                    )
                if not proc.is_alive():
                    raise RuntimeError("daemon died before any worker kill")
                time.sleep(0.02)
            say("first worker kill observed; SIGKILLing the daemon")
            os.kill(proc.pid, signal_mod.SIGKILL)
            proc.join(timeout=10.0)
            restarts += 1
            say("restarting the daemon on the same state directory")
            proc, client = start_daemon()
        info = client.wait(
            cid, timeout=max(1.0, deadline - time.monotonic())
        )
        if info.get("state") != "done":
            raise RuntimeError(
                f"campaign ended {info.get('state')!r}: "
                f"{info.get('error', 'no error recorded')}"
            )
        result = client.result(cid)
        say("draining the daemon")
        try:
            client.shutdown()
        except ServiceError:
            pass
        proc.join(timeout=30.0)
    finally:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=10.0)

    fired = sum(1 for token in tokens if os.path.exists(token))
    rows_identical = (
        json.dumps(result["rows"], sort_keys=True) == baseline_blob
    )
    metric_counters = (result.get("metrics") or {}).get("counters") or {}
    service_metrics = {
        key: value
        for key, value in metric_counters.items()
        if key.startswith("engine.service.")
    }
    return {
        "campaign": cid,
        "signature": result.get("signature"),
        "programs": list(program_names),
        "policies": list(policy_names),
        "seeds": int(seeds),
        "worker_kills_requested": worker_kills,
        "worker_kills_fired": fired,
        "daemon_restarts": restarts,
        "resumed_after_restart": bool(result.get("resumed")),
        "rows_identical_to_serial": rows_identical,
        "contract_holds": result.get("contract_holds"),
        "baseline_contract_holds": baseline.contract_holds,
        "service": dict(result.get("service") or {}),
        "service_metrics": service_metrics,
        "ok": (
            rows_identical
            and fired >= worker_kills
            and bool(result.get("contract_holds"))
            == bool(baseline.contract_holds)
            and (
                not daemon_restart
                or (restarts >= 1 and bool(result.get("resumed")))
            )
        ),
    }
