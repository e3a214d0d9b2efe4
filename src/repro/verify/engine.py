"""Parallel contract-verification engine.

The evidence behind Definition 2 comes from two kinds of campaign:

* a **sweep campaign** (:class:`SweepCampaign`) runs every (program,
  policy) cell across many nondeterminism seeds and judges each
  distinct observed result against the exact guided SC-membership
  oracle, with each program's DRF0 verdict as the premise;
* a **seed campaign** (:class:`SeedCampaign`) runs ``fuzz`` or ``diff``,
  one task per generated program, its oracle memoized across seeds.

A campaign is the only code that reads its task tuples: it computes a
task's value and names its heartbeat label, telemetry counts,
circuit-breaker key and progress tick.  One driver,
:meth:`VerificationEngine._drive`, claims the monitor's plan, publishes
the campaign, runs its rounds in one dispatch session and returns its
fold; SC and DRF0 verdicts are each filed one way (into their cache and
the store).  Both kinds are embarrassingly parallel and highly
redundant, so the engine does two things:

* **fan-out** -- tasks are dispatched to a supervised worker fleet.
  Run and judgment chunks are sized against the whole plan, about four
  tasks per worker: each cell with pending work is split into about
  ``ceil(jobs * 4 / cells with pending work)`` balanced chunks (up to
  twice as many for a cell whose stored cost is more than twice the
  median), so a one-cell sweep still gets ``jobs * 4`` tasks and a
  40-cell sweep about one task per cell;
* **memoization** -- oracle verdicts land in content-keyed caches
  (:mod:`repro.verify.cache`), so a result observed under five policies and
  forty seeds is judged once, and a program swept twice is DRF0-checked
  once.

Determinism contract: for the same inputs, every engine entry point returns
output *bit-for-bit identical* to its serial counterpart in
:mod:`repro.verify.sweeps` / :mod:`repro.verify.fuzz`, regardless of
``jobs``.  The engine achieves this by keeping workers pure (they only map
task -> value) and doing every fold in the parent, in the serial code's
iteration order; floating-point accumulations (``mean_cycles``) therefore
sum in the identical order too.

Worker plumbing: with ``jobs > 1`` each engine call forks a
:class:`~repro.verify.fleet.Fleet` of ``jobs`` workers at its first
non-empty map, and the call's campaign is published in a module global
*before* that fork so workers inherit it by address-space copy; every
worker runs :func:`_execute_task`, which asks that campaign for each
task's value.  Only small index tuples cross the workers' pipes and
only plain result records come back -- policy factories (often
lambdas) are never pickled.  The fork check runs at the first pooled
map, so a call that dispatches nothing (a warm sweep) imports neither
the fleet nor ``multiprocessing``; on platforms without ``fork`` the
engine transparently degrades to the in-process path (still memoized,
still identical output).  Building a campaign loads, before the fork,
the modules its workers run (see each class).  The campaign daemon
lends the engine its persistent fleet as ``fleet=`` instead; its
workers, forked before the campaign existed, build the same
:class:`SweepCampaign` from the campaign spec
(:func:`repro.service.campaigns.build_task_context`).  Both run the one
lease loop, :class:`~repro.verify.supervisor.FleetSession`, which takes
its task timeout, retry budget and backoff from the engine.

Resilience (the lease loop's hardening, all preserving the bit-for-bit
contract because tasks are pure -- re-executing one yields the identical
value):

* **per-task timeouts** -- the worker holding a task past
  ``task_timeout`` seconds is killed and replaced, and the task is
  resubmitted;
* **worker-crash detection** -- the loop waits on every busy worker's
  process sentinel, so a death (segfault, OOM kill) wakes it at once and
  is charged to the one lease that worker held;
* **bounded retry with backoff** -- each task is retried at most
  ``max_task_retries`` times with exponential backoff and deterministic
  jitter; failure charges are deduplicated by (task, lease generation)
  through :class:`~repro.verify.leases.TaskBoard`;
* **circuit breaking** -- a cell whose tasks keep failing is
  quarantined and its tasks run in the parent, with periodic probes of
  the fleet (:class:`~repro.verify.supervisor.CircuitBreaker`);
* **graceful serial degradation** -- a task that exhausts its retries is
  executed in the parent process, which always terminates the sweep with
  the correct output (just without parallelism for that task);
* **clean interrupt** -- workers ignore SIGINT (the parent owns the
  Ctrl-C); on any exception the call's fleet is killed and joined before
  the exception propagates, so no forked children are orphaned;
* **cache quarantine** -- verdict-cache entries that fail their integrity
  checksum are evicted and recomputed instead of aborting the sweep.

Persistence (``store`` / ``cache_dir``): with a
:class:`~repro.verify.store.VerdictStore` attached, the engine is warm
across processes and across runs, three ways:

* **warm start** -- the store's segments are loaded into the in-memory
  verdict caches at construction, *before* any fork, so every worker
  inherits the whole known verdict universe by address-space copy;
  sweep cells whose run summaries are stored are not re-run at all;
* **cross-worker sharing** -- workers return newly computed verdicts
  (with their cost metadata) alongside task results; the parent merges
  them into the shared caches as each task lands and flushes them to
  disk immediately, so a verdict computed once is on disk before the
  sweep ends (and available to every later engine in the same process
  or any concurrent process flushing into the same directory);
* **cost-aware scheduling** -- stored per-cell cost observations (wall
  time, run count, explored states) sort the next sweep's dispatch
  longest-expected-first with finer chunking for expensive cells,
  cutting tail latency on skewed grids.  Scheduling never changes any
  output -- the parent folds results in serial order regardless.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    TYPE_CHECKING,
    Set,
    Tuple,
    Union,
)

from repro.core.contract import is_sc_result
from repro.core.drf0 import check_program, check_program_sampled
from repro.core.engine_state import ExplorerStats
from repro.core.execution import Result
from repro.machine.program import Program
from repro.obs.tracer import now_us as _obs_now_us
from repro.sim.system import SystemConfig, run_on_hardware
from repro.verify.cache import (
    DRF0VerdictCache,
    SCVerdictCache,
    program_fingerprint,
)
from repro.verify.conditions import check_conditions
from repro.verify.store import (
    VerdictStore,
    cell_key,
    decode_result,
    encode_result,
    run_key,
)
from repro.verify.sweeps import (
    Definition2Evidence,
    SweepReport,
    evidence_row,
)

if TYPE_CHECKING:
    from repro.machine.generator import GeneratorConfig
    from repro.obs.progress import Heartbeat
    from repro.verify.diff import DiffReport, DiffSeedOutcome
    from repro.verify.fuzz import FuzzReport, SeedOutcome


@dataclass(frozen=True)
class Failpoint:
    """A test-only fault injected into task execution (chaos testing).

    ``task_kind`` selects which tasks may fire it (``"*"`` = any); ``mode``
    is ``"crash"`` (the worker dies with ``os._exit``), ``"hang"`` (the
    worker sleeps past any reasonable timeout), or ``"error"`` (the task
    raises).  The failpoint fires **once** across all processes -- the
    first task to claim ``token_path`` (atomic ``O_CREAT|O_EXCL``) fires,
    everyone else proceeds normally.  Crash/hang/error all fire only in
    forked workers: the parent process must survive to observe recovery.
    """

    task_kind: str
    mode: str
    token_path: str


class InjectedTaskError(RuntimeError):
    """Raised by an ``error``-mode failpoint (test plumbing)."""


def _maybe_fire_failpoint(failpoint: Failpoint) -> None:
    import multiprocessing

    if multiprocessing.parent_process() is None:
        return  # only forked workers fire; the parent must survive
    try:
        fd = os.open(
            failpoint.token_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
        )
    except FileExistsError:
        return  # already fired elsewhere
    os.close(fd)
    if failpoint.mode == "crash":
        os._exit(17)
    if failpoint.mode == "hang":
        time.sleep(3600)
        return
    raise InjectedTaskError(f"injected {failpoint.mode} failpoint")


@dataclass(frozen=True)
class RunSummary:
    """The picklable essentials of one hardware run.

    Workers return these instead of full :class:`~repro.sim.system.MachineRun`
    objects: the raw access trace is only needed for the Section-5.1
    monitor, which runs *inside* the worker and is reduced here to its
    violation strings.
    """

    seed: int
    policy_name: str
    result: Result
    cycles: int
    stall_cycles: int
    condition_violations: Tuple[str, ...] = ()


def _encode_summary(summary: RunSummary) -> dict:
    """JSON-safe form of a RunSummary for the verdict store."""
    return {
        "seed": summary.seed,
        "policy": summary.policy_name,
        "result": encode_result(summary.result),
        "cycles": summary.cycles,
        "stalls": summary.stall_cycles,
        "viol": list(summary.condition_violations),
    }


def _decode_summary(data: dict) -> RunSummary:
    return RunSummary(
        seed=data["seed"],
        policy_name=data["policy"],
        result=decode_result(data["result"]),
        cycles=data["cycles"],
        stall_cycles=data["stalls"],
        condition_violations=tuple(data["viol"]),
    )


@dataclass(frozen=True)
class _SweepCell:
    """One (program, policy, config) sweep cell.

    Lives only in the parent and in fork-inherited worker memory; the
    policy factory is never pickled.
    """

    program: Program
    policy_factory: Callable[[], object]
    config: SystemConfig
    check_51_conditions: bool = False


#: The campaign of the engine call now running: published by the parent
#: before its session forks a fleet (workers inherit it), and set in a
#: daemon fleet worker from the campaign spec the daemon ships.  The
#: parent restores the previous value when the session ends.
_CAMPAIGN: Optional[Campaign] = None

#: Where :func:`_execute_task` sends its beats and stall diagnoses while
#: a campaign monitor watches: a :class:`~repro.obs.progress.Heartbeat`
#: whose sink is the fleet worker's pipe (set per task by
#: ``repro.verify.fleet._worker_main``) or, for tasks the parent runs,
#: the monitor's fold (set by the engine's session).  None when no
#: monitor watches.
_HEARTBEAT: Optional[Heartbeat] = None


def _run_one(cell: _SweepCell, seed: int) -> RunSummary:
    policy = cell.policy_factory()
    run = run_on_hardware(cell.program, policy, cell.config.with_seed(seed))
    violations: Tuple[str, ...] = ()
    if cell.check_51_conditions:
        report = check_conditions(
            run, drf1_optimized=getattr(policy, "drf1_optimized", False)
        )
        if not report.ok:
            violations = tuple(
                f"seed {seed} {cond}: {m}"
                for cond, messages in report.violations.items()
                for m in messages
            )
    return RunSummary(
        seed=seed,
        policy_name=policy.name,
        result=run.result,
        cycles=run.cycles,
        stall_cycles=run.total_stall_cycles,
        condition_violations=violations,
    )


def _sc_verdict(
    program: Program, result: Result
) -> Tuple[bool, ExplorerStats]:
    """The guided SC-membership verdict on ``result`` and its search."""
    stats = ExplorerStats()
    return is_sc_result(program, result, stats=stats), stats


def _drf0_verdict(
    program: Program, _mode: object
) -> Tuple[bool, ExplorerStats]:
    """The exhaustive DRF0 verdict on ``program`` and its search."""
    report = check_program(program)
    return report.obeys, report.stats or ExplorerStats()


class SweepCampaign:
    """A Definition-2 sweep: every ``programs x policies`` cell run under
    every seed, each distinct result judged against SC, and -- the DRF0
    premise, which a contract sweep (``premise=False``) omits -- each
    program's DRF0 verdict.

    Tasks: ``("run", cell, seeds)`` and ``("judge", cell, results)``
    carry a cell index in ``programs x policies`` order, so it means the
    same cell in the engine and in every daemon worker that builds the
    campaign from the same spec; ``("drf0", program)`` indexes
    ``programs``.  Every policy factory is called once here, for its
    policy's name: the parent builds the campaign before its session
    forks, and a factory imports its policy module when called
    (:data:`repro.hw.POLICY_FACTORIES`), so workers inherit that module
    rather than import it.
    """

    def __init__(
        self,
        programs: Sequence[Program],
        policy_factories: Dict[str, Callable[[], object]],
        config: Optional[SystemConfig] = None,
        seeds: Sequence[int] = range(20),
        drf0_seeds: Sequence[int] = range(30),
        exhaustive_drf0: bool = False,
        check_51_conditions: bool = False,
        failpoints: Sequence[Failpoint] = (),
        premise: bool = True,
    ) -> None:
        config = config or SystemConfig()
        programs = tuple(programs)
        names: Dict[Callable, str] = {}
        for factory in policy_factories.values():
            if factory not in names:
                names[factory] = factory().name
        self.cells = tuple(
            _SweepCell(program, factory, config, check_51_conditions)
            for program in programs
            for factory in policy_factories.values()
        )
        #: Per cell: its policy's name, and its row in the monitor's plan.
        self.policy_names = [names[cell.policy_factory] for cell in self.cells]
        self.labels = [
            f"{program.name}/{name}" if premise else program.name
            for program in programs
            for name in policy_factories
        ]
        self.policies = tuple(policy_factories)
        self.programs = programs if premise else ()
        self.seeds = list(seeds)
        self.exhaustive_drf0 = exhaustive_drf0
        self.drf0_seeds = tuple(drf0_seeds)
        self.drf0_mode: object = (
            "exhaustive" if exhaustive_drf0 else ("sampled", self.drf0_seeds)
        )
        self.failpoints = tuple(failpoints)

    # -- the tasks (worker side and parent side) -----------------------

    def value(self, task: tuple, beat: Optional[Callable[[], None]]):
        """A task's value: a DRF0 task's ``(verdict, stats)``; a run
        task's :class:`RunSummary` per seed, a judge task's ``(verdict,
        stats)`` per result, in the task's order, ``beat`` called after
        each."""
        kind = task[0]
        if kind == "drf0":
            program = self.programs[task[1]]
            if self.exhaustive_drf0:
                report = check_program(program)
            else:
                report = check_program_sampled(program, seeds=self.drf0_seeds)
            return report.obeys, report.stats
        _, cell_index, items = task
        cell = self.cells[cell_index]
        value = []
        for item in items:
            if kind == "run":
                value.append(_run_one(cell, item))
            else:
                value.append(_sc_verdict(cell.program, item))
            if beat is not None:
                beat()
        return value

    def label(self, task: tuple) -> str:
        """Short human-readable task id for heartbeat records."""
        if task[0] == "drf0":
            return f"drf0:prog{task[1]}"
        return f"{task[0]}:cell{task[1]}x{len(task[2])}"

    def counts(self, task: tuple, value) -> Dict[str, int]:
        """The work one task did, as telemetry counters."""
        kind = task[0]
        if kind == "run":
            return {"runs": len(task[2])}
        if kind == "judge":
            return {
                "judges": len(task[2]),
                "states": sum(stats.states for _, stats in value),
            }
        stats = value[1]
        return {"drf0": 1, "states": stats.states if stats else 0}

    def breaker_key(self, task: tuple) -> str:
        """The circuit-breaker key a task's failures count against: its
        cell (``cell:<i>``) or its program (``drf0:<i>``)."""
        return f"{'drf0' if task[0] == 'drf0' else 'cell'}:{task[1]}"

    def tick(self, progress, task: tuple, seconds: float) -> None:
        """Progress for one landed task: its runs, DRF0 verdict or
        judgments."""
        kind = task[0]
        if kind == "run":
            progress.unit_done(task[1], len(task[2]))
            progress.observe_cell_us(task[1], seconds * 1e6)
        elif kind == "drf0":
            progress.extra_done("drf0")
        else:
            progress.extra_done("judge", len(task[2]))

    # -- the parent's side ---------------------------------------------

    def plan(
        self, engine: "VerificationEngine"
    ) -> List[Tuple[str, int, float]]:
        """One plan row per cell: its label, seeds and stored per-run
        cost in microseconds (0.0 when unknown or without a store).

        With a store, also resolves each cell's content identity in the
        store, ``(program fingerprint, policy name)``."""
        self.identities: Optional[List[Tuple[str, str]]] = None
        self.expected_us = [0.0] * len(self.cells)
        if engine.store is not None:
            self.identities = [
                (program_fingerprint(cell.program), name)
                for cell, name in zip(self.cells, self.policy_names)
            ]
            costs = engine.store.warm().costs
            for index, identity in enumerate(self.identities):
                cost = costs.get(cell_key(*identity))
                if cost:
                    self.expected_us[index] = cost.us_per_run
        return [
            (label, len(self.seeds), us)
            for label, us in zip(self.labels, self.expected_us)
        ]

    def _fill_from_store(self, store) -> Dict[Tuple[int, int], str]:
        """Start :attr:`summaries`, each cell's run summaries in seed
        order, from the stored ones (None where none is stored).

        Returns the run content key of *every* (cell, position) -- also
        the ones left unfilled, so newly computed summaries can be
        flushed under the same keys.
        """
        self.summaries: List[List[Optional[RunSummary]]] = [
            [None] * len(self.seeds) for _ in self.cells
        ]
        keys: Dict[Tuple[int, int], str] = {}
        if self.identities is None:
            return keys
        state = store.warm()
        # Cells of one sweep usually share a config: repr each seeded
        # config once, not once per cell.
        seeded_reprs: Dict[SystemConfig, List[str]] = {}
        for cell_index, cell in enumerate(self.cells):
            fingerprint, policy_name = self.identities[cell_index]
            config_reprs = seeded_reprs.get(cell.config)
            if config_reprs is None:
                config_reprs = seeded_reprs[cell.config] = [
                    repr(cell.config.with_seed(seed)) for seed in self.seeds
                ]
            for pos, config_repr in enumerate(config_reprs):
                key = run_key(
                    fingerprint,
                    policy_name,
                    config_repr,
                    cell.check_51_conditions,
                )
                keys[(cell_index, pos)] = key
                stored = state.runs.get(key)
                if stored is None:
                    continue
                try:
                    self.summaries[cell_index][pos] = _decode_summary(stored)
                except (KeyError, TypeError):
                    continue  # malformed payload: recompute this run
                store.stats.runs_reused += 1
        return keys

    def _run_tasks(
        self, engine: "VerificationEngine"
    ) -> Tuple[List[tuple], List[Tuple[int, Tuple[int, ...]]]]:
        """Chunked run tasks for every unfilled position, with each
        task's ``(cell, positions)``.

        Without a store this is the deterministic plan (cell order,
        balanced chunks, see :meth:`VerificationEngine._plan_chunks`).
        With one, cells are dispatched longest-expected-first using
        stored cost observations, and cells costing more than twice the
        median per seed get half-size chunks -- stragglers start early
        and load-balance finely, cutting tail latency on skewed grids.
        Only *issue order* changes; the fold order (and so every output)
        is identical either way.
        """
        missing = [
            [pos for pos, summary in enumerate(summaries) if summary is None]
            for summaries in self.summaries
        ]
        entries: List[Tuple[float, int, Tuple[int, ...]]] = [
            (self.expected_us[cell_index] * len(chunk), cell_index, chunk)
            for cell_index, chunks in enumerate(
                engine._plan_chunks(missing, self.expected_us)
            )
            for chunk in chunks
        ]
        if self.identities is not None:
            entries.sort(key=lambda e: (-e[0], e[1], e[2][0]))
        tasks = [
            ("run", cell_index, tuple(self.seeds[pos] for pos in chunk))
            for _, cell_index, chunk in entries
        ]
        return tasks, [(cell_index, chunk) for _, cell_index, chunk in entries]

    def _record_costs(
        self, store, observed: Iterable[Tuple[int, int, float, int]]
    ) -> None:
        """Record observed per-cell cost into the store.

        ``observed`` yields ``(cell_index, runs, seconds, states)`` per
        task; each cell's sums become one cost record, in cell order."""
        if self.identities is None:
            return
        acc: Dict[int, Tuple[int, int, int]] = {}
        for cell_index, runs, seconds, states in observed:
            total_runs, wall_us, total_states = acc.get(cell_index, (0, 0, 0))
            acc[cell_index] = (
                total_runs + runs,
                wall_us + int(seconds * 1_000_000),
                total_states + states,
            )
        for cell_index, (runs, wall_us, states) in sorted(acc.items()):
            store.record_cost(
                cell_key(*self.identities[cell_index]),
                runs=runs,
                wall_us=wall_us,
                states=states,
            )

    def run(self, engine: "VerificationEngine", session: "_Session") -> None:
        """The sweep's two rounds, filling :attr:`summaries`.

        Fills positions from the store, then runs every position still
        missing together with the DRF0 verdict of each program the cache
        lacks, then judges every distinct result the SC cache lacks,
        once.  Every unit -- run, DRF0 verdict, judgment -- is filed and
        flushed to the store in its map's ``on_result``, as it lands
        (crash tolerance: a unit computed is a unit persisted, so a
        re-run against the same store resumes); each map's observed cost
        is recorded against the cells once it ends.
        """
        store = engine.store
        drf0_pending = [
            index
            for index, program in enumerate(self.programs)
            if engine.drf0_cache.lookup_or_quarantine(
                program, self.exhaustive_drf0, self.drf0_seeds
            )
            is None
        ]
        run_keys = self._fill_from_store(store)
        if engine._owns_plan:
            progress = engine.monitor.progress
            for cell_index, summaries in enumerate(self.summaries):
                filled = sum(1 for summary in summaries if summary is not None)
                if filled:
                    progress.prefill(cell_index, filled)
            progress.add_extra("drf0", len(drf0_pending))
            engine.monitor.poll(force=True)
        drf0_tasks = [("drf0", index) for index in drf0_pending]
        run_tasks, positions = self._run_tasks(engine)

        def on_run(index: int, task: tuple, value) -> None:
            if index < len(drf0_tasks):
                program = self.programs[task[1]]
                verdict, stats = value
                if stats is not None:
                    engine.explorer_stats.merge(stats)
                engine._file_drf0(
                    program_fingerprint(program), self.drf0_mode, verdict,
                    program,
                )
                return
            cell_index, chunk = positions[index - len(drf0_tasks)]
            for pos, summary in zip(chunk, value):
                self.summaries[cell_index][pos] = summary
                if store is not None:
                    store.record_run(
                        run_keys[(cell_index, pos)], _encode_summary(summary)
                    )

        session.map(drf0_tasks + run_tasks, on_result=on_run)
        self._record_costs(
            store,
            (
                (cell_index, len(chunk), seconds, 0)
                for (cell_index, chunk), seconds in zip(
                    positions, session.task_seconds[len(drf0_tasks) :]
                )
            ),
        )

        sc_cache = engine.sc_cache
        pending: List[List[Result]] = [[] for _ in self.cells]
        claimed: Set[Tuple[str, Result]] = set()
        for cell_index, summaries in enumerate(self.summaries):
            program = self.cells[cell_index].program
            for result in [summary.result for summary in summaries]:
                key = sc_cache.key(program, result)
                if key in claimed:
                    continue
                claimed.add(key)
                if sc_cache.lookup_or_quarantine(program, result) is None:
                    pending[cell_index].append(result)
        judge_tasks = [
            ("judge", cell_index, chunk)
            for cell_index, chunks in enumerate(engine._plan_chunks(pending))
            for chunk in chunks
        ]
        if engine._owns_plan and judge_tasks:
            engine.monitor.progress.add_extra("judge", sum(map(len, pending)))

        def on_judged(index: int, task: tuple, value) -> None:
            _, cell_index, results = task
            program = self.cells[cell_index].program
            fingerprint = program_fingerprint(program)
            for result, (verdict, stats) in zip(results, value):
                engine.explorer_stats.merge(stats)
                engine._file_sc(fingerprint, result, verdict, program)

        judged = session.map(judge_tasks, on_result=on_judged)
        self._record_costs(
            store,
            (
                (task[1], 0, seconds, sum(s.states for _, s in verdicts))
                for task, verdicts, seconds in zip(
                    judge_tasks, judged, session.task_seconds
                )
            ),
        )

    def fold(self, engine: "VerificationEngine") -> List[SweepReport]:
        """Each cell's report, folded exactly as the serial sweep folds
        it, in cell order."""
        reports = []
        for cell, policy_name, summaries in zip(
            self.cells, self.policy_names, self.summaries
        ):
            seen: Set[Result] = set()
            non_sc: List[Result] = []
            condition_problems: List[str] = []
            cycles: List[int] = []
            for summary in summaries:
                cycles.append(summary.cycles)
                condition_problems.extend(summary.condition_violations)
                if summary.result in seen:
                    continue
                seen.add(summary.result)
                if not engine.sc_cache.judge(cell.program, summary.result):
                    non_sc.append(summary.result)
            reports.append(
                SweepReport(
                    program=cell.program,
                    policy_name=policy_name,
                    seeds_run=len(self.seeds),
                    distinct_results=len(seen),
                    non_sc_results=non_sc,
                    condition_violations=condition_problems,
                    mean_cycles=sum(cycles) / len(cycles) if cycles else 0.0,
                )
            )
        return reports

    def evidence(
        self, engine: "VerificationEngine", reports: Sequence[SweepReport]
    ) -> Definition2Evidence:
        """The Definition-2 evidence rows: each cell's report beside its
        program's DRF0 verdict, in the serial sweep's row order."""
        evidence = Definition2Evidence()
        cell_reports = iter(reports)
        for program in self.programs:
            drf0 = engine.drf0_cache.lookup(
                program, self.exhaustive_drf0, self.drf0_seeds
            )
            assert drf0 is not None
            for name in self.policies:
                evidence.rows.append(
                    evidence_row(program, drf0, name, next(cell_reports))
                )
        return evidence


class SeedCampaign:
    """A fuzz or diff campaign: one ``(kind, seed)`` task per seed.

    ``seed_body(seed, judge)`` runs one seed; its ``judge(program, arg)``
    memoizes ``oracle(program, arg) -> (verdict, stats)`` in :attr:`memo`
    under ``(fingerprint, arg)``, the key ``cache`` files the verdict by
    (``arg`` is a result for fuzz's SC judgments, a mode for diff's DRF0
    verdicts).  The memo is made from ``cache``'s entries here, in the
    parent before its session forks, so workers inherit it and
    leftovers of an earlier campaign cannot turn misses into hits.
    Each task's new verdicts are merged into the memo and handed to
    ``file(fingerprint, arg, verdict, program)`` -- the engine's cache
    and store -- as the task lands.
    """

    failpoints: Tuple[Failpoint, ...] = ()

    def __init__(
        self,
        kind: str,
        seeds: Sequence[int],
        seed_body: Callable[[int, Callable[..., bool]], object],
        oracle: Callable[[Program, object], Tuple[bool, ExplorerStats]],
        cache,
        file: Callable[[str, object, bool, Program], None],
    ) -> None:
        # Loaded before the session forks: run_on_hardware imports the
        # snoop substrate on first use, which would be once per worker.
        import repro.sim.snoop  # noqa: F401

        self.kind = kind
        self.seeds = list(seeds)
        self.seed_body = seed_body
        self.oracle = oracle
        self.cache = cache
        self.file = file
        #: The telemetry name of the memoized verdicts.
        self.verdicts = "sc" if kind == "fuzz" else "drf0"
        self.memo: Dict[Tuple[str, object], bool] = {
            (fingerprint, arg): verdict
            for fingerprint, arg, verdict in cache.entries()
        }

    # -- the tasks (worker side and parent side) -----------------------

    def value(self, task: tuple, beat: Optional[Callable[[], None]]):
        """One seed, returned as ``(outcome, new, judged)``: ``new``
        lists ``(key, verdict, program, stats)`` for every verdict this
        task computed (the program rides along so the stored entry is
        auditable; ``stats`` is the search's :class:`ExplorerStats`),
        ``judged`` every key the judge was asked, in order, so the parent
        counts memo hits in seed order."""
        new: List[Tuple[Tuple[str, object], bool, Program, ExplorerStats]] = []
        judged: List[Tuple[str, object]] = []

        def judge(program: Program, arg: object) -> bool:
            key = (program_fingerprint(program), arg)
            judged.append(key)
            verdict = self.memo.get(key)
            if verdict is None:
                verdict, stats = self.oracle(program, arg)
                self.memo[key] = verdict
                new.append((key, verdict, program, stats))
            return verdict

        return self.seed_body(task[1], judge), new, judged

    def label(self, task: tuple) -> str:
        return f"{self.kind}:seed{task[1]}"

    def counts(self, task: tuple, value) -> Dict[str, int]:
        """One seed, and a diff seed's hardware runs.  (A seed's memo
        hits, misses and states are counted where it lands.)"""
        if self.kind == "fuzz":
            return {"fuzz_seeds": 1}
        return {"diff_seeds": 1, "runs": value[0].hardware_runs}

    def breaker_key(self, task: tuple) -> str:
        return self.kind

    def tick(self, progress, task: tuple, seconds: float) -> None:
        progress.unit_done(0, 1)

    # -- the parent's side ---------------------------------------------

    def plan(
        self, engine: "VerificationEngine"
    ) -> List[Tuple[str, int, float]]:
        return [(self.kind, len(self.seeds), 0.0)]

    def run(self, engine: "VerificationEngine", session: "_Session") -> None:
        """The one round: every seed, its outcomes kept in seed order.

        Each verdict's search is merged into the engine's
        ``explorer_stats`` once per key (two workers may both compute a
        key the serial run computes once).  Memo hits and misses are
        counted as each task lands, into ``cache.stats`` and the
        monitor's totals alike (``sc_*`` for fuzz, ``drf0_*`` for diff,
        with the states of each key's first search): a miss is a judged
        key that was not in the memo at the start, counted once, and
        every other judgment is a hit, so the counts and the explorer
        counters are the serial run's at any ``jobs`` and in any landing
        order.
        """
        known = set(self.memo)
        explored = set()
        monitor = engine.monitor

        def on_result(index: int, task: tuple, value) -> None:
            _outcome, new, judged = value
            misses = states = 0
            for key in judged:
                if key not in known:
                    misses += 1
                    known.add(key)
            for key, verdict, program, stats in new:
                self.memo.setdefault(key, verdict)
                self.file(*key, verdict, program)
                if key not in explored:
                    explored.add(key)
                    engine.explorer_stats.merge(stats)
                    states += stats.states
            hits = len(judged) - misses
            self.cache.stats.add(hits=hits, misses=misses)
            if monitor is not None:
                monitor.fold.add(
                    {
                        f"{self.verdicts}_hits": hits,
                        f"{self.verdicts}_misses": misses,
                        "states": states,
                    }
                )

        values = session.map(
            [(self.kind, seed) for seed in self.seeds], on_result=on_result
        )
        self.outcomes = [outcome for outcome, _new, _judged in values]

    def fold(self, engine: "VerificationEngine") -> list:
        """The seeds' outcomes, in seed order."""
        return self.outcomes


#: What an engine call publishes to its workers.
Campaign = Union[SweepCampaign, SeedCampaign]


def _execute_task(task: tuple, gen: int = 0):
    """The one worker entry: map a task of the published campaign
    (:data:`_CAMPAIGN`) to its (picklable) value.

    Fires the campaign's failpoints for the task's kind, then asks the
    campaign for the value.  While a campaign monitor watches
    (:data:`_HEARTBEAT` is set), the task beats on entry and after each
    run or judgment of a chunk (rate-limited by
    :data:`~repro.obs.progress.HEARTBEAT_INTERVAL`), and always on
    completion, so the worker table ends on the task's counters; a
    failing task sends its stall diagnosis before it raises, so the
    diagnosis reaches the parent ahead of the failure.  ``gen`` is the
    resubmission attempt the beats carry.  With no monitor, ``heartbeat``
    is ``None`` and every hook below is a single comparison.
    """
    campaign = _CAMPAIGN
    assert campaign is not None, "task executed outside an engine session"
    heartbeat = _HEARTBEAT
    beat = None
    if heartbeat is not None:
        label = campaign.label(task)
        beat = partial(heartbeat.beat, label, gen)
        beat()
    try:
        for failpoint in campaign.failpoints:
            if failpoint.task_kind in ("*", task[0]):
                _maybe_fire_failpoint(failpoint)
        value = campaign.value(task, beat)
    except Exception as exc:
        if heartbeat is not None:
            from repro.obs.progress import failure_text

            heartbeat.stall(failure_text(exc), task=label)
            heartbeat.beat(label, gen, force=True)
        raise
    if heartbeat is not None:
        heartbeat.add(campaign.counts(task, value))
        heartbeat.beat(label, gen, force=True)
    return value


def _now_us() -> int:
    """Wall-clock microseconds -- the shared obs clock, so engine trace
    spans are directly comparable with heartbeat and snapshot stamps."""
    return _obs_now_us()


def _balanced_chunks(items: Sequence, size: int) -> List[tuple]:
    """Split ``items`` into chunks of at most ``size``, balanced.

    Naive fixed-stride slicing leaves a pathological straggler: 251 seeds
    at size 8 yields 31 full chunks and a 3-seed tail, so one worker idles
    while another finishes a near-empty task.  Instead the remainder is
    spread across the chunks -- sizes differ by at most one, with the
    larger chunks first -- and concatenating the chunks still reproduces
    ``items`` in order, so every fold downstream is unchanged.
    """
    n_chunks = max(1, -(-len(items) // size))
    base, rem = divmod(len(items), n_chunks)
    chunks: List[tuple] = []
    start = 0
    for index in range(n_chunks):
        width = base + (1 if index < rem else 0)
        chunks.append(tuple(items[start : start + width]))
        start += width
    return chunks


class _Session:
    """One engine call's dispatch surface: the calling process, or a
    supervised worker fleet.

    With ``workers > 1`` a :class:`~repro.verify.fleet.Fleet` of that
    size is forked by the first non-empty :meth:`map`, so a call that
    dispatches nothing (a warm sweep) never pays for the fork and the
    join, and :meth:`close` stops it.  An engine built with ``fleet=``
    (the daemon) runs its maps on that persistent fleet instead.
    Pooled maps go through the one lease loop,
    :meth:`repro.verify.supervisor.FleetSession.map`; the fleet modules
    are imported, and the platform checked for ``fork``, there, so
    in-process calls never load them or ``multiprocessing``.
    """

    def __init__(
        self, engine: "VerificationEngine", workers: int = 1
    ) -> None:
        self._engine = engine
        self._workers = workers
        #: The lease loop of this call's pooled maps (None until the
        #: first one, and for in-process calls).
        self._pooled = None
        #: The fleet this session forked, stopped by :meth:`close`.
        self._own_fleet = None
        #: Wall seconds per task of the last :meth:`map` call, task-order
        #: aligned (pooled tasks: dispatch to fold of the final attempt,
        #: the IPC round trip included).  Feeds the store's cost records.
        self.task_seconds: List[float] = []

    @property
    def fleet(self):
        """The fleet this call's pooled maps ran on, if any."""
        return self._pooled.fleet if self._pooled else None

    def _open_pooled(self):
        """The lease loop for this call, forking its fleet unless the
        engine borrowed one (None: run in-process).

        Lease events count in the engine's ``resilience`` dict on a fleet
        this call forked, and in the borrowed fleet's own ``counters``
        (the daemon's) otherwise."""
        engine = self._engine
        fleet = engine.fleet
        if fleet is None and self._workers <= 1:
            return None
        from repro.verify.fleet import Fleet, fork_available
        from repro.verify.supervisor import FleetSession

        counters = engine.resilience if fleet is None else fleet.counters
        if fleet is None:
            if not fork_available():
                self._workers = 1  # no fork here: every map runs in-process
                return None
            fleet = self._own_fleet = Fleet(self._workers)
            fleet.start()
        self._pooled = FleetSession(fleet, engine, counters)
        return self._pooled

    def close(self, failed: bool = False) -> bool:
        """End the call; returns whether any map ran on a fleet.

        A fleet this session forked is stopped; after a failure its
        workers are killed, not asked, since one may be mid-task.  A
        borrowed fleet is handed back with no stale assignment.
        """
        pooled, self._pooled = self._pooled, None
        fleet, self._own_fleet = self._own_fleet, None
        if fleet is not None:
            fleet.stop(kill=failed)
        elif pooled is not None:
            pooled.close()
        return pooled is not None

    def map(
        self,
        tasks: Sequence[tuple],
        on_result: Optional[Callable[[int, tuple, object], None]] = None,
    ) -> list:
        """Evaluate tasks, returning values in task order.

        ``on_result(index, task, value)`` fires once per task as its value
        lands (the store's flush hook); completion order is arbitrary
        on a fleet, but the returned list is always in task order.
        """
        if not tasks:
            return []
        pooled = self._pooled or self._open_pooled()
        engine = self._engine
        observed = engine.tracer.enabled or engine.metrics is not None
        start = _now_us() if observed else 0
        if pooled is not None:
            values = pooled.map(tasks, on_result)
            self.task_seconds = pooled.task_seconds
        else:
            self.task_seconds = [0.0] * len(tasks)
            values = []
            for index, task in enumerate(tasks):
                task_start = time.perf_counter()
                value = _execute_task(task)
                seconds = time.perf_counter() - task_start
                self.task_seconds[index] = seconds
                if on_result is not None:
                    on_result(index, task, value)
                engine._task_landed(task, value, seconds)
                values.append(value)
        if observed:
            counts: Dict[str, int] = {}
            for task in tasks:
                counts[task[0]] = counts.get(task[0], 0) + 1
            if engine.metrics is not None:
                for kind, n in counts.items():
                    engine.metrics.counter(f"engine.tasks.{kind}").inc(n)
            if engine.tracer.enabled:
                engine.tracer.span(
                    "engine", "map", "engine", start, _now_us(),
                    args={"tasks": len(tasks), **counts},
                )
        return values


class VerificationEngine:
    """Chunked, memoized, deterministic parallel sweep runner.

    Hardware runs and SC judgments are chunked against the whole plan:
    about four tasks per worker, so each cell with pending work is split
    into about ``ceil(jobs * 4 / cells with pending work)`` balanced
    chunks (amortizes task overhead; cells costing more than twice the
    median get up to twice as many, see :meth:`_plan_chunks`).  The
    worker fleet is forked by the first task dispatched, never for a
    call that dispatches nothing.

    Args:
        jobs: Worker processes.  ``1`` (the default) runs in-process;
            ``0`` or ``None`` means one per CPU.  Parallel dispatch needs
            the ``fork`` start method (POSIX); elsewhere the engine runs
            in-process regardless of ``jobs``.
        tracer: Optional :class:`~repro.obs.tracer.Tracer` receiving
            parent-side dispatch spans (timestamps are wall-clock
            microseconds -- workers are separate processes and are not
            traced).
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            accumulating task counts; :meth:`metrics_snapshot` adds cache
            and explorer counters on demand.
        task_timeout: Seconds before an in-flight pooled task's worker is
            killed and replaced and the task resubmitted (None = wait
            forever).
        max_task_retries: Resubmissions per task (timeout, crash, or
            error) before the task is executed in the parent process.
        retry_backoff: Base seconds of exponential backoff between
            resubmissions of the same task (jittered deterministically;
            see :class:`~repro.verify.leases.BackoffPolicy`).
        failpoints: Test-only :class:`Failpoint` injections, fired inside
            workers (chaos tests for the resilience machinery).
        store: Persistent :class:`~repro.verify.store.VerdictStore`; its
            segments are loaded into the verdict caches at construction
            (warm start, inherited by every forked worker) and every new
            verdict / run summary / cost observation is flushed back as
            it is computed.
        cache_dir: Convenience: build a :class:`VerdictStore` on this
            directory (ignored when ``store`` is given).
        monitor: Optional
            :class:`~repro.obs.progress.CampaignMonitor`.  The engine
            registers its plan (cells x seeds, store-costed) with the
            first monitor that grants :meth:`~repro.obs.progress.
            CampaignMonitor.claim_plan`, ticks completion as tasks land,
            exposes its live resilience counters, counts each task's work
            as it lands, and has its workers send heartbeats over their
            pipes.  Telemetry never touches results -- outputs stay
            bit-identical.
        fleet: The campaign daemon's persistent
            :class:`~repro.verify.fleet.Fleet`, which then runs every
            pooled map under this engine's timeout, retry budget and
            backoff; the lease loop counts its events in the fleet's
            ``counters`` and stops at its ``stop_event`` (the daemon's
            drain).  When set, ``jobs`` only sizes chunking -- no fleet is
            forked.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        tracer=None,
        metrics=None,
        task_timeout: Optional[float] = None,
        max_task_retries: int = 2,
        retry_backoff: float = 0.05,
        failpoints: Sequence[Failpoint] = (),
        store: Optional[VerdictStore] = None,
        cache_dir: Optional[str] = None,
        monitor=None,
        fleet=None,
    ) -> None:
        if not jobs:
            jobs = os.cpu_count() or 1
        self.jobs = max(1, int(jobs))
        self.task_timeout = task_timeout
        self.max_task_retries = max(0, int(max_task_retries))
        self.retry_backoff = retry_backoff
        self.failpoints = tuple(failpoints)
        #: Resilience counters of batch fleets: tasks_retried,
        #: task_timeouts, task_errors, worker_crashes, degraded_to_serial
        #: and the lease loop's other events (absent until first event).
        self.resilience: Dict[str, int] = {}
        #: Verdict caches shared by every call on this engine (the chaos
        #: harness runs its whole suite on one engine).
        self.sc_cache = SCVerdictCache()
        self.drf0_cache = DRF0VerdictCache()
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer
        self.metrics = metrics
        self.monitor = monitor
        #: The daemon's fleet, or None (a batch engine forks a fleet per
        #: call).  Either way the same fold/store path runs above
        #: the same lease loop.
        self.fleet = fleet
        #: Whether *this* engine owns the monitor's campaign plan (the
        #: first caller to claim it does; under the chaos harness, which
        #: claims it first, the engine only heartbeats).
        self._owns_plan = False
        if monitor is not None:
            monitor.attach_resilience(self.resilience)
        #: Aggregate exploration counters from every oracle task this
        #: engine dispatched (guided SC-membership searches and exhaustive
        #: DRF0 verdicts, fuzz's and diff's included).  Cache hits add
        #: nothing -- the counters measure work actually done, which is
        #: what the benchmarks report -- and a fuzz or diff verdict two
        #: workers both computed counts once, so the counters do not
        #: depend on ``jobs``.
        self.explorer_stats = ExplorerStats()
        if store is None and cache_dir is not None:
            store = VerdictStore(cache_dir)
        self.store = store
        if self.store is not None:
            self._warm_from_store()

    def _warm_from_store(self) -> None:
        """Load every stored verdict into the in-memory caches.

        Runs at construction, before any fork, so workers inherit the
        warm caches by address-space copy.  Stored run summaries stay in
        the store's state and are consumed per sweep cell.
        """
        state = self.store.warm()
        for (fingerprint, result), verdict in state.sc.items():
            self.sc_cache.store_by_fingerprint(
                fingerprint,
                result,
                verdict,
                program=state.programs.get(fingerprint),
            )
        for (fingerprint, mode), verdict in state.drf0.items():
            self.drf0_cache.store_by_key(fingerprint, mode, verdict)

    # ------------------------------------------------------------------
    # Dispatch plumbing
    # ------------------------------------------------------------------

    @property
    def can_fork(self) -> bool:
        """Whether a worker fleet is actually available on this platform
        (the check a session makes at its first pooled map)."""
        from repro.verify.fleet import fork_available

        return fork_available()

    def _task_landed(
        self, task: tuple, value: object, seconds: float = 0.0
    ) -> None:
        """Telemetry tick: one task's value just folded into the parent.

        Fires exactly once per task slot (the lease loop's board keeps
        only the first completion), so the task's counts (the published
        campaign's ``counts``) join the monitor's totals once and
        completion stays truthful under crash resubmission.  Every
        engine sharing the monitor counts; only the plan-owning engine
        ticks progress; every engine polls so the status file stays
        fresh.
        """
        monitor = self.monitor
        if monitor is None:
            return
        campaign = _CAMPAIGN
        monitor.fold.tasks += 1
        monitor.fold.add(campaign.counts(task, value))
        if self._owns_plan:
            campaign.tick(monitor.progress, task, seconds)
        monitor.poll()

    @contextmanager
    def _session(self, campaign: Campaign):
        """Publish ``campaign`` and open this call's dispatch session.

        The campaign gets the engine's failpoints unless it was built
        with its own."""
        global _CAMPAIGN, _HEARTBEAT
        previous = _CAMPAIGN, _HEARTBEAT
        if self.failpoints and not campaign.failpoints:
            campaign.failpoints = self.failpoints
        # Published before any fork, so a batch fleet inherits it, and
        # on the daemon's path too: serial degradation runs tasks in
        # *this* process through the same `_execute_task`.
        _CAMPAIGN = campaign
        _HEARTBEAT = (
            self.monitor.heartbeat if self.monitor is not None else None
        )
        session_start = _now_us() if self.tracer.enabled else 0
        session = _Session(self, self.jobs)
        failed = False
        try:
            yield session
        except BaseException:
            failed = True
            raise
        finally:
            pooled = session.close(failed)
            _CAMPAIGN, _HEARTBEAT = previous
            if self.tracer.enabled:
                self.tracer.span(
                    "engine", "session", "engine", session_start, _now_us(),
                    args={"jobs": self.jobs, "pool": pooled},
                )

    def _drive(self, campaign: Campaign):
        """The one campaign driver: claim the monitor's plan (the first
        engine to claim it owns it and ticks its progress), publish the
        campaign, run its rounds in one session, and return its fold."""
        rows = campaign.plan(self)
        if self.monitor is not None and self.monitor.claim_plan():
            self._owns_plan = True
            self.monitor.progress.plan(rows)
        with self._session(campaign) as session:
            campaign.run(self, session)
        return campaign.fold(self)

    def _file_sc(
        self, fingerprint: str, result: Result, verdict: bool, program: Program
    ) -> None:
        """File one SC verdict: into :attr:`sc_cache` and the store."""
        self.sc_cache.store_by_fingerprint(
            fingerprint, result, verdict, program=program
        )
        if self.store is not None:
            self.store.record_sc(fingerprint, result, verdict, program=program)

    def _file_drf0(
        self, fingerprint: str, mode: object, verdict: bool, program: Program
    ) -> None:
        """File one DRF0 verdict: into :attr:`drf0_cache` and the store."""
        self.drf0_cache.store_by_key(fingerprint, mode, verdict)
        if self.store is not None:
            self.store.record_drf0(fingerprint, mode, verdict, program=program)

    def _plan_chunks(
        self, pending: Sequence[Sequence], cost_us: Sequence[float] = ()
    ) -> List[List[tuple]]:
        """Each cell's pending work (runs or judgments) in balanced chunks
        sized against the whole plan: about four tasks per worker, so a
        cell gets about ``ceil(jobs * 4 / cells with pending work)``
        chunks.  Cells whose ``cost_us`` per unit is more than twice the
        median known cost get half-size chunks, so up to twice as many."""
        known = sorted(us for us in cost_us if us > 0)
        median_us = known[len(known) // 2] if known else 0.0
        busy = sum(1 for items in pending if items)
        per_cell = -(-self.jobs * 4 // max(1, busy))
        plan: List[List[tuple]] = []
        for cell_index, items in enumerate(pending):
            size = max(1, -(-len(items) // per_cell))
            if median_us and cost_us[cell_index] > 2 * median_us:
                size = max(1, size // 2)
            plan.append(_balanced_chunks(items, size) if items else [])
        return plan

    # ------------------------------------------------------------------
    # Entry points (mirror the serial API)
    # ------------------------------------------------------------------

    def contract_sweep(
        self,
        program: Program,
        policy_factory: Callable[[], object],
        config: Optional[SystemConfig] = None,
        seeds: Sequence[int] = range(20),
        check_51_conditions: bool = False,
    ) -> SweepReport:
        """Parallel :func:`repro.verify.sweeps.contract_sweep`: a sweep
        campaign of one cell, with no DRF0 premise."""
        (report,) = self._drive(
            SweepCampaign(
                [program],
                {program.name: policy_factory},
                config,
                seeds,
                check_51_conditions=check_51_conditions,
                premise=False,
            )
        )
        return report

    def definition2_sweep(
        self,
        programs: Iterable[Program],
        policy_factories: Dict[str, Callable[[], object]],
        config: Optional[SystemConfig] = None,
        seeds: Sequence[int] = range(20),
        drf0_seeds: Sequence[int] = range(30),
        exhaustive_drf0: bool = False,
        check_51_conditions: bool = False,
    ) -> Definition2Evidence:
        """Parallel :func:`repro.verify.sweeps.definition2_sweep`.

        With a store attached, a sweep killed part way resumes when it
        is run again against the same store: every unit that landed
        before the kill is filed there and is not recomputed, and the
        output is bit-identical either way.
        """
        campaign = SweepCampaign(
            programs,
            policy_factories,
            config,
            seeds,
            drf0_seeds,
            exhaustive_drf0,
            check_51_conditions,
        )
        return campaign.evidence(self, self._drive(campaign))

    def fuzz(
        self,
        seeds: Sequence[int],
        generator: Optional[GeneratorConfig] = None,
        hardware_seeds: Sequence[int] = range(3),
    ) -> FuzzReport:
        """Parallel :func:`repro.verify.fuzz.fuzz` (one task per seed).

        Each seed's SC judgments are memoized (see
        :class:`SeedCampaign`), warm from the engine's cache and
        therefore from the persistent store; new judgments are filed in
        the cache and flushed to the store as they land.
        """
        # Imported before the session forks its fleet, so workers inherit
        # the fuzz module instead of importing it per process.
        from repro.verify.fuzz import fuzz_one_seed, merge_outcomes

        hardware_seeds = tuple(hardware_seeds)

        def seed_body(seed: int, judge: Callable[..., bool]) -> SeedOutcome:
            return fuzz_one_seed(seed, generator, hardware_seeds, judge=judge)

        return merge_outcomes(
            self._drive(
                SeedCampaign(
                    "fuzz", seeds, seed_body, _sc_verdict, self.sc_cache,
                    self._file_sc,
                )
            )
        )

    def diff_campaign(
        self,
        seeds: Sequence[int],
        generator: Optional[GeneratorConfig] = None,
        hardware_seeds: Sequence[int] = range(2),
        minimize: bool = True,
    ) -> DiffReport:
        """Parallel :func:`repro.verify.diff.diff_campaign` (one task per
        seed): the axiomatic solver differentially checked against the
        legacy enumerator, the operational explorers, and the hardware
        simulator over the generated-program corpus.

        The expensive shared sub-question -- each program's exhaustive
        DRF0 verdict -- is memoized like fuzz's SC judgments (see
        :class:`SeedCampaign`).  Disagreements are auto-minimized in the
        parent (serial, deterministic) after the fold.
        """
        # Imported before the session forks (see fuzz()).
        from repro.verify.diff import (
            diff_one_seed,
            merge_diff_outcomes,
            minimize_disagreement,
        )

        hardware_seeds = tuple(hardware_seeds)

        def seed_body(seed: int, judge: Callable[..., bool]) -> DiffSeedOutcome:
            return diff_one_seed(
                seed,
                generator,
                hardware_seeds,
                drf0_judge=lambda program: judge(program, "exhaustive"),
            )

        report = merge_diff_outcomes(
            self._drive(
                SeedCampaign(
                    "diff", seeds, seed_body, _drf0_verdict,
                    self.drf0_cache, self._file_drf0,
                )
            )
        )
        if minimize:
            for disagreement in report.disagreements:
                minimize_disagreement(
                    disagreement, generator, hardware_seeds
                )
        return report

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def metrics_snapshot(self, registry=None):
        """Fold the engine's counters into a metrics registry.

        Includes everything the engine tracks: dispatched task counts (if
        a registry was attached at construction they are already there),
        verdict-cache hit/miss counters, the persistent store's
        load/flush/reuse counters (when a store is attached), the
        resilience counters, the aggregate explorer counters from oracle
        tasks, the monitor's task totals (when one watches) and the
        daemon fleet's supervision counters (when one is lent).
        """
        from repro.obs.metrics import (
            MetricsRegistry,
            explorer_metrics,
            store_metrics,
            stream_metrics,
        )

        registry = registry if registry is not None else (
            self.metrics if self.metrics is not None else MetricsRegistry()
        )
        registry.counter("engine.jobs").value = self.jobs
        for name, cache in (
            ("sc_cache", self.sc_cache),
            ("drf0_cache", self.drf0_cache),
        ):
            registry.counter(f"engine.{name}.hits").value = cache.stats.hits
            registry.counter(f"engine.{name}.misses").value = cache.stats.misses
            registry.counter(f"engine.{name}.quarantined").value = (
                cache.stats.quarantined
            )
        for name, count in sorted(self.resilience.items()):
            registry.counter(f"engine.resilience.{name}").value = count
        if self.store is not None:
            store_metrics(self.store.stats, registry, prefix="engine.store")
        explorer_metrics(
            self.explorer_stats, registry, prefix="engine.explorer"
        )
        if self.monitor is not None:
            stream_metrics(
                self.monitor.fold, registry=registry, prefix="engine.stream"
            )
        # The daemon's fleet keeps a flat counters dict: lease
        # reclamations, retry/backoff charges, breaker transitions,
        # worker crash/replace events.
        counters = self.fleet.counters if self.fleet is not None else None
        if counters:
            for name, count in sorted(counters.items()):
                registry.counter(f"engine.service.{name}").value = count
        return registry
