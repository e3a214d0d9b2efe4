"""Campaign progress: live telemetry, completion %, ETA, stragglers, and
the status file.

Worker telemetry travels on channels the engine already has.  A
process that runs engine tasks while a campaign monitor watches owns
one :class:`Heartbeat`: rate-limited ``beat`` records (current task,
cumulative per-worker counters, RSS) and ``stall`` records (a failed
task's stall-cause diagnosis), handed to a sink.  A fleet worker's sink
is its pipe to the parent, and the lease loop folds each ``("beat",
record)`` message as it drains replies; the parent's own sink, for the
tasks it runs itself, is the monitor's :class:`StreamFold`.  Each
task's counter deltas are not sent at all: the engine adds them to the
fold where the task lands, exactly once per task.

:class:`ProgressEngine` is the arithmetic half: it takes the campaign
plan (one entry per sweep cell, with the verdict store's per-cell cost
estimate when one is known) plus live completion ticks, and produces
completion %, a total ETA, throughput, and straggler detection.  Cost
weighting reuses the verification engine's judge-routing statistic: a
cell with no recorded cost is priced at the **median** of the known
costs, and a cell is a *straggler* once its observed time exceeds 2x its
predicted cost -- the same threshold the engine uses to route expensive
judges.

:class:`CampaignMonitor` is the plumbing half: it owns the fold and the
parent's heartbeat, and periodically writes a **schema-versioned status
snapshot** -- a single JSON object replaced
atomically (write-temp + ``os.replace``), so any process can poll the
path and never observe a torn file.  The snapshot's timestamps are all
on :data:`~repro.obs.tracer.OBS_CLOCK`; the schema embeds the epoch
contract so readers don't mistake them for wall-clock time.

Snapshot schema (``repro-status/1``)::

    schema      "repro-status/1"
    clock       {id, epoch}          # the OBS_CLOCK contract
    seq         int                  # monotone per-campaign write counter
    ts_us       int                  # snapshot time (obs clock)
    started_us  int                  # campaign start (obs clock)
    command     str                  # CLI command line being watched
    state       "running"|"done"|"failed"
    progress    {completion, units{done,total}, eta_s, elapsed_s,
                 states_per_s, cells[], stragglers[]}
    workers     [{id, pid, role, state, silent_s, task, gen, rss_kb,
                  counters, last_ts_us}]
    health      {silent_workers, stalls[], resilience{}}
    stream      {spools, records, dropped_lines, beats,
                 duplicate_tasks_skipped}
    totals      {<counter>: int}     # exactly-once task totals
    verdicts    [...]                # final only: evidence rows verbatim
    result      {...}                # final only: command outcome
    error       str                  # failed only

``stream`` describes the telemetry channel: ``spools`` counts the
worker processes heard from, ``records`` the beat and stall records
folded, ``dropped_lines`` the records the fold rejected, ``beats`` the
beats among them, and ``duplicate_tasks_skipped`` the task replies the
lease loop turned down because the task had already completed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import OBS_CLOCK, OBS_CLOCK_EPOCH, now_us

#: Seconds between one process's heartbeats.
HEARTBEAT_INTERVAL = 0.25


def rss_kb() -> int:
    """Resident set size of this process in KiB (stdlib-only).

    Reads ``/proc/self/status`` where available, falls back to
    ``resource.getrusage`` peak RSS (already KiB on Linux), and returns
    0 where neither exists -- a heartbeat must never fail over a metric.
    """
    try:
        with open("/proc/self/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return 0


def failure_text(exc: BaseException) -> str:
    """How a status snapshot reports a failure: the exception's
    per-processor ``diagnosis()`` where it has one (a
    :class:`~repro.sim.system.LivenessError`), else ``Type: message``."""
    diagnose = getattr(exc, "diagnosis", None)
    if callable(diagnose):
        return diagnose()
    return f"{type(exc).__name__}: {exc}"


class Heartbeat:
    """One process's live telemetry, handed to ``sink`` record by record.

    ``beat`` sends at most one record per :data:`HEARTBEAT_INTERVAL`
    (unless forced); ``stall`` always sends.  ``role`` names the process
    in the worker table: ``worker-<pid>`` for a batch fleet worker and
    the parent, ``fleet-<pid>`` for a daemon fleet worker.
    """

    def __init__(
        self, sink: Callable[[dict], None], role: str = "worker"
    ) -> None:
        self.sink = sink
        self.role = role
        self.pid = os.getpid()
        self.worker_id = f"{role}-{self.pid}"
        #: Cumulative work counters carried by every beat.
        self.counters: Dict[str, int] = {}
        self._last_beat_us = 0

    def add(self, deltas: Dict[str, int]) -> None:
        """Accumulate one task's counters into this process's totals."""
        counters = self.counters
        for key, value in deltas.items():
            counters[key] = counters.get(key, 0) + value

    def beat(
        self, task: Optional[str] = None, gen: int = 0, force: bool = False
    ) -> None:
        """Send the current task and attempt, counters and RSS, unless
        the last beat is under :data:`HEARTBEAT_INTERVAL` old."""
        now = now_us()
        if not force and now - self._last_beat_us < HEARTBEAT_INTERVAL * 1e6:
            return
        self._last_beat_us = now
        self.sink(
            {
                "kind": "beat",
                "ts": now,
                "worker": self.worker_id,
                "pid": self.pid,
                "role": self.role,
                "task": task,
                "gen": gen,
                "counters": dict(self.counters),
                "rss_kb": rss_kb(),
            }
        )

    def stall(self, diagnosis: str, task: Optional[str] = None) -> None:
        """Send a failed task's stall-cause diagnosis."""
        self.sink(
            {
                "kind": "stall",
                "ts": now_us(),
                "worker": self.worker_id,
                "task": task,
                "diagnosis": str(diagnosis)[:4000],
            }
        )


class WorkerView:
    """The fold's latest knowledge of one worker process."""

    __slots__ = (
        "worker", "pid", "role", "last_ts", "task", "gen", "counters",
        "rss_kb", "beats",
    )

    def __init__(self, worker: str, pid: int, role: str) -> None:
        self.worker = worker
        self.pid = pid
        self.role = role
        self.last_ts = 0
        self.task: Optional[str] = None
        self.gen = 0
        self.counters: Dict[str, int] = {}
        self.rss_kb = 0
        self.beats = 0


#: How many recent stall diagnoses the fold retains for the snapshot.
_MAX_STALLS = 20


class StreamFold:
    """Folds a campaign's telemetry into live aggregates.

    Two aggregation disciplines coexist:

    * **beats** carry cumulative per-worker counters; the fold keeps the
      latest per worker (:attr:`workers`) -- a liveness/throughput view
      where a resubmitted task's work legitimately shows up twice
      (both workers really did burn the cycles);
    * **task counts** are added by the engine (:meth:`add`) where each
      task lands, once per task however often it ran, into
      :attr:`totals` -- the exactly-once aggregate ``metrics_snapshot``
      hit rates are built on.  :attr:`duplicates_skipped` counts the
      task replies the lease loop turned down.
    """

    def __init__(self) -> None:
        self.workers: Dict[str, WorkerView] = {}
        self.totals: Dict[str, int] = {}
        self.stalls: List[dict] = []
        self.duplicates_skipped = 0
        self.beats = 0
        self.tasks = 0
        #: Beat and stall records folded, and records rejected.
        self.records = 0
        self.dropped = 0

    def add(self, counts: Dict[str, int]) -> None:
        """Add counts of landed work into :attr:`totals`."""
        totals = self.totals
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value

    def absorb(self, record: dict) -> None:
        """Fold one ``beat`` or ``stall`` record (others are dropped)."""
        kind = record.get("kind") if isinstance(record, dict) else None
        if kind == "beat":
            worker = str(record.get("worker", "?"))
            view = self.workers.get(worker)
            if view is None:
                view = self.workers[worker] = WorkerView(
                    worker,
                    int(record.get("pid", 0) or 0),
                    str(record.get("role", "worker")),
                )
            view.last_ts = max(view.last_ts, int(record.get("ts", 0)))
            view.task = record.get("task")
            view.gen = int(record.get("gen", 0) or 0)
            counters = record.get("counters")
            if isinstance(counters, dict):
                view.counters = counters
            view.rss_kb = int(record.get("rss_kb", 0) or 0)
            view.beats += 1
            self.beats += 1
        elif kind == "stall":
            self.stalls.append(
                {
                    "ts": int(record.get("ts", 0)),
                    "worker": record.get("worker"),
                    "task": record.get("task"),
                    "diagnosis": record.get("diagnosis", ""),
                }
            )
            del self.stalls[:-_MAX_STALLS]
        else:
            self.dropped += 1
            return
        self.records += 1

    def worker_rows(self, now: int, silent_after_us: int) -> List[dict]:
        """Per-worker health rows, silent-first then by id.

        A worker whose last heartbeat is older than ``silent_after_us``
        is marked ``silent`` -- the early-warning health signal that
        fires *before* any task timeout does.
        """
        rows = []
        for view in self.workers.values():
            silent_us = max(0, now - view.last_ts) if view.last_ts else 0
            rows.append(
                {
                    "id": view.worker,
                    "pid": view.pid,
                    "role": view.role,
                    "last_ts_us": view.last_ts,
                    "silent_s": round(silent_us / 1e6, 3),
                    "state": (
                        "silent" if silent_us > silent_after_us else "ok"
                    ),
                    "task": view.task,
                    "gen": view.gen,
                    "rss_kb": view.rss_kb,
                    "counters": dict(sorted(view.counters.items())),
                }
            )
        rows.sort(key=lambda r: (r["state"] != "silent", r["id"]))
        return rows

    def states_total(self) -> int:
        """Exactly-once explored-state total across all landed tasks."""
        return int(self.totals.get("states", 0))

#: Status snapshot schema identifier (bump on incompatible change).
STATUS_SCHEMA = "repro-status/1"

#: Observed/predicted ratio past which a cell is flagged a straggler
#: (the verification engine's judge-routing threshold).
STRAGGLER_FACTOR = 2.0


class _Cell:
    """One planned unit pool (a sweep cell, or an extra-work pool)."""

    __slots__ = ("key", "units", "done", "expected_us", "observed_us")

    def __init__(self, key: str, units: int, expected_us: float) -> None:
        self.key = key
        self.units = max(0, int(units))
        self.done = 0
        #: Store-predicted cost per unit in microseconds (0 = unknown).
        self.expected_us = max(0.0, float(expected_us))
        #: Wall time actually burned on this cell so far.
        self.observed_us = 0.0


class ProgressEngine:
    """Completion/ETA/straggler arithmetic over a planned campaign.

    The plan is a list of ``(key, units, expected_us)`` cells; extra
    work pools discovered later (DRF0 checks, judge passes) are added
    with :meth:`add_extra` and priced at the median known cell cost.
    Completion is unit-weighted and clamped monotone non-decreasing
    (a growing plan may never make the bar move backwards); the ETA is
    cost-weighted: remaining estimated microseconds divided by the
    observed rate of estimated-microseconds completed per wall second.
    """

    def __init__(self) -> None:
        self.cells: List[_Cell] = []
        self.extras: Dict[str, _Cell] = {}
        self.started_us = now_us()
        self._prefilled_est_us = 0.0
        self._completion_floor = 0.0

    # -- planning ------------------------------------------------------

    def plan(self, cells: Sequence[Tuple[str, int, float]]) -> None:
        self.cells = [_Cell(key, units, exp) for key, units, exp in cells]
        self.started_us = now_us()

    def prefill(self, index: int, units: int) -> None:
        """Mark ``units`` of a cell complete *before* the run starts
        (units found in the verdict store).  Prefilled work counts toward
        completion but not toward the throughput the ETA divides by."""
        cell = self.cells[index]
        grant = min(units, cell.units - cell.done)
        if grant > 0:
            cell.done += grant
            self._prefilled_est_us += grant * self._unit_cost(cell)

    def add_extra(self, kind: str, units: int) -> None:
        """Add (or grow) a non-cell work pool, e.g. ``judge`` passes."""
        pool = self.extras.get(kind)
        if pool is None:
            pool = self.extras[kind] = _Cell(kind, 0, 0.0)
        pool.units += max(0, int(units))

    # -- live ticks ----------------------------------------------------

    def unit_done(self, index: int, units: int = 1) -> None:
        cell = self.cells[index]
        cell.done = min(cell.units, cell.done + max(0, int(units)))

    def extra_done(self, kind: str, units: int = 1) -> None:
        pool = self.extras.get(kind)
        if pool is not None:
            pool.done = min(pool.units, pool.done + max(0, int(units)))

    def observe_cell_us(self, index: int, us: float) -> None:
        """Accumulate wall time burned on a cell (straggler input)."""
        self.cells[index].observed_us += max(0.0, us)

    # -- statistics ----------------------------------------------------

    def median_unit_cost(self) -> float:
        """Median known per-unit cost -- the judge-routing statistic,
        reused as the price of cost-unknown cells and extra pools."""
        known = sorted(c.expected_us for c in self.cells if c.expected_us > 0)
        return known[len(known) // 2] if known else 1.0

    def _unit_cost(self, cell: _Cell) -> float:
        return cell.expected_us if cell.expected_us > 0 else (
            self.median_unit_cost()
        )

    def _pools(self) -> List[_Cell]:
        return self.cells + list(self.extras.values())

    def stragglers(self) -> List[Dict[str, Any]]:
        """Cells running past ``STRAGGLER_FACTOR`` x their prediction."""
        out = []
        median = self.median_unit_cost()
        for cell in self.cells:
            if cell.done >= cell.units or cell.observed_us <= 0:
                continue
            per_unit = cell.expected_us if cell.expected_us > 0 else median
            predicted = per_unit * cell.units
            if predicted > 0 and cell.observed_us > STRAGGLER_FACTOR * predicted:
                out.append(
                    {
                        "cell": cell.key,
                        "predicted_us": round(predicted, 1),
                        "observed_us": round(cell.observed_us, 1),
                        "ratio": round(cell.observed_us / predicted, 2),
                    }
                )
        out.sort(key=lambda r: -r["ratio"])
        return out

    def view(self, now: Optional[int] = None) -> Dict[str, Any]:
        """The snapshot's ``progress`` object."""
        now = now_us() if now is None else now
        pools = self._pools()
        total_units = sum(c.units for c in pools)
        done_units = sum(c.done for c in pools)
        completion = done_units / total_units if total_units else 0.0
        completion = max(completion, self._completion_floor)
        self._completion_floor = completion

        done_est = sum(c.done * self._unit_cost(c) for c in pools)
        remaining_est = sum(
            (c.units - c.done) * self._unit_cost(c) for c in pools
        )
        elapsed_us = max(1, now - self.started_us)
        # Prefilled work landed at t=0 and would inflate the live rate.
        live_est = max(0.0, done_est - self._prefilled_est_us)
        eta_s: Optional[float]
        if remaining_est <= 0 or done_units >= total_units:
            eta_s = 0.0
        elif live_est <= 0:
            eta_s = None  # no live throughput observed yet
        else:
            rate = live_est / elapsed_us  # est-us completed per wall-us
            eta_s = round(remaining_est / rate / 1e6, 3)
        return {
            "completion": round(completion, 6),
            "units": {"done": done_units, "total": total_units},
            "eta_s": eta_s,
            "elapsed_s": round(elapsed_us / 1e6, 3),
            "cells": [
                {
                    "cell": c.key,
                    "done": c.done,
                    "units": c.units,
                    "expected_us": round(c.expected_us, 1),
                }
                for c in self.cells
            ],
            "extras": {
                k: {"done": p.done, "units": p.units}
                for k, p in sorted(self.extras.items())
            },
            "stragglers": self.stragglers(),
        }


class CampaignMonitor:
    """Owns one campaign's telemetry: fold, progress, status file.

    The engine/CLI feed it plan and completion ticks, the engine adds
    each landed task's counts to :attr:`fold`, and the lease loop folds
    its workers' beat and stall records there; every :meth:`poll`
    (rate-limited to ``interval`` seconds, called freely from dispatch
    loops) atomically replaces the snapshot at ``status_path``.
    :meth:`finish` / :meth:`fail` write the terminal snapshot -- with
    the verdict evidence rows embedded verbatim, so the final
    snapshot's ``verdicts`` equal the printed table byte-for-byte.
    """

    def __init__(
        self,
        status_path: str,
        command: str = "",
        interval: float = 0.5,
        silent_after: float = 5.0,
        on_snapshot=None,
    ) -> None:
        self.status_path = status_path
        self.command = command
        self.interval_us = max(0, int(interval * 1e6))
        self.silent_after_us = max(0, int(silent_after * 1e6))
        self.on_snapshot = on_snapshot
        self.fold = StreamFold()
        #: The telemetry of tasks this process runs itself: it folds
        #: straight into :attr:`fold`.
        self.heartbeat = Heartbeat(self.fold.absorb)
        self.progress = ProgressEngine()
        self.started_us = now_us()
        self.seq = 0
        self.state = "running"
        self.error: Optional[str] = None
        self.verdicts: Optional[List[dict]] = None
        self.result: Optional[dict] = None
        self._resilience: Optional[dict] = None
        self._service: Optional[dict] = None
        self._plan_claimed = False
        self._last_write_us = 0
        self._closed = False
        #: Snapshot write-latency stats (the E16 bounded-latency gate).
        self.writes = 0
        self.write_us_total = 0
        self.write_us_max = 0
        parent = os.path.dirname(os.path.abspath(status_path))
        os.makedirs(parent, exist_ok=True)

    # -- plan ownership ------------------------------------------------

    def claim_plan(self) -> bool:
        """First caller owns the campaign plan; a later claimant (the
        engine under the chaos harness, which plans the suite itself)
        heartbeats and polls but must not tick units.  Returns ``True``
        exactly once."""
        if self._plan_claimed:
            return False
        self._plan_claimed = True
        return True

    def attach_resilience(self, counters: dict) -> None:
        """Expose the engine's live resilience counter dict (crashes,
        timeouts, resubmits) in the snapshot's health section."""
        self._resilience = counters

    def attach_service(self, counters: dict) -> None:
        """Expose the campaign daemon's live supervision counters (lease
        reclaims, breaker transitions, fleet replacements) in the
        snapshot's health section as ``health.service``."""
        self._service = counters

    # -- snapshot ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        now = now_us()
        workers = self.fold.worker_rows(now, self.silent_after_us)
        silent = [w["id"] for w in workers if w["state"] == "silent"]
        elapsed_s = max(1e-6, (now - self.started_us) / 1e6)
        snap: Dict[str, Any] = {
            "schema": STATUS_SCHEMA,
            "clock": {"id": OBS_CLOCK, "epoch": OBS_CLOCK_EPOCH},
            "seq": self.seq,
            "ts_us": now,
            "started_us": self.started_us,
            "command": self.command,
            "state": self.state,
            "progress": self.progress.view(now),
            "workers": workers,
            "health": {
                "silent_workers": silent,
                "stalls": list(self.fold.stalls),
                "resilience": dict(self._resilience or {}),
                **(
                    {"service": dict(self._service)}
                    if self._service is not None
                    else {}
                ),
            },
            "stream": {
                "spools": len(self.fold.workers),
                "records": self.fold.records,
                "dropped_lines": self.fold.dropped,
                "beats": self.fold.beats,
                "duplicate_tasks_skipped": self.fold.duplicates_skipped,
            },
            "totals": dict(sorted(self.fold.totals.items())),
        }
        snap["progress"]["states_per_s"] = round(
            self.fold.states_total() / elapsed_s, 1
        )
        if self.state == "done":
            snap["progress"]["completion"] = 1.0
            snap["progress"]["eta_s"] = 0.0
        if self.verdicts is not None:
            snap["verdicts"] = self.verdicts
        if self.result is not None:
            snap["result"] = self.result
        if self.error is not None:
            snap["error"] = self.error
        return snap

    def poll(self, force: bool = False) -> Optional[Dict[str, Any]]:
        """Refresh the status file (rate-limited)."""
        if self._closed:
            return None
        now = now_us()
        if not force and now - self._last_write_us < self.interval_us:
            return None
        self._last_write_us = now
        snap = self.snapshot()
        self.seq += 1
        snap["seq"] = self.seq
        self._write(snap)
        if self.on_snapshot is not None:
            self.on_snapshot(snap)
        return snap

    def _write(self, snap: Dict[str, Any]) -> None:
        start = now_us()
        tmp = f"{self.status_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(snap, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.status_path)
        took = now_us() - start
        self.writes += 1
        self.write_us_total += took
        self.write_us_max = max(self.write_us_max, took)

    # -- terminal states -----------------------------------------------

    def finish(
        self,
        ok: bool = True,
        verdicts: Optional[List[dict]] = None,
        result: Optional[dict] = None,
    ) -> None:
        """Write the terminal snapshot and close the monitor.

        ``verdicts`` (the evidence table rows) are embedded verbatim so
        the final snapshot's totals match the printed table exactly.
        """
        if self._closed:
            return
        self.state = "done" if ok else "failed"
        self.verdicts = verdicts
        self.result = result
        self.poll(force=True)
        self.close()

    def fail(self, error: str) -> None:
        """Write a terminal ``failed`` snapshot carrying the error."""
        if self._closed:
            return
        self.state = "failed"
        self.error = str(error)
        self.poll(force=True)
        self.close()

    def close(self) -> None:
        """Stop writing snapshots (:meth:`poll` becomes a no-op)."""
        self._closed = True


# ----------------------------------------------------------------------
# Rendering (shared by `repro status` and `repro top`)
# ----------------------------------------------------------------------


def _bar(fraction: float, width: int = 30) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def render_status(snap: Dict[str, Any]) -> str:
    """Human-readable multi-line rendering of a status snapshot."""
    progress = snap.get("progress", {})
    completion = float(progress.get("completion", 0.0))
    units = progress.get("units", {})
    eta = progress.get("eta_s")
    if eta is None:
        eta_text = "--"
    elif eta == 0.0 and snap.get("state") != "running":
        eta_text = "done"
    else:
        eta_text = f"{eta:.1f}s"
    lines = [
        f"repro campaign: {snap.get('command') or '?'}",
        f"state: {snap.get('state')}   snapshot #{snap.get('seq')}"
        f"   elapsed {progress.get('elapsed_s', 0.0):.1f}s",
        f"{_bar(completion)} {completion * 100:6.2f}%"
        f"  ({units.get('done', 0)}/{units.get('total', 0)} units)"
        f"  eta {eta_text}"
        f"  {progress.get('states_per_s', 0.0):,.0f} states/s",
    ]
    workers = snap.get("workers", [])
    if workers:
        lines.append("")
        lines.append(
            f"{'worker':<18} {'state':<7} {'silent':>7} "
            f"{'rss':>9} task"
        )
        for row in workers:
            rss = row.get("rss_kb", 0)
            lines.append(
                f"{row.get('id', '?'):<18} {row.get('state', '?'):<7} "
                f"{row.get('silent_s', 0.0):>6.1f}s "
                f"{rss:>7}kB {row.get('task') or '-'}"
            )
    stragglers = progress.get("stragglers", [])
    if stragglers:
        lines.append("")
        lines.append("stragglers (observed > 2x predicted):")
        for s in stragglers[:5]:
            lines.append(
                f"  {s['cell']}: {s['ratio']}x"
                f" ({s['observed_us'] / 1e6:.1f}s vs"
                f" {s['predicted_us'] / 1e6:.1f}s predicted)"
            )
    health = snap.get("health", {})
    if health.get("silent_workers"):
        lines.append("")
        lines.append(
            "silent workers: " + ", ".join(health["silent_workers"])
        )
    for stall in health.get("stalls", [])[-3:]:
        lines.append("")
        lines.append(f"stall ({stall.get('worker')}):")
        for diag_line in str(stall.get("diagnosis", "")).splitlines()[:6]:
            lines.append(f"  {diag_line}")
    if snap.get("state") == "failed" and snap.get("error"):
        lines.append("")
        lines.append(f"error: {snap['error']}")
    verdicts = snap.get("verdicts")
    if verdicts is not None:
        lines.append("")
        lines.append(f"final verdict rows: {len(verdicts)}")
    return "\n".join(lines)
