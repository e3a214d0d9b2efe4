"""The campaign daemon: queueing, execution, drain, resume.

One asyncio loop serves the HTTP protocol; campaigns execute
sequentially in a worker thread, each as the full
``VerificationEngine.definition2_sweep`` its spec names
(:meth:`~repro.service.campaigns.CampaignSpec.sweep_arguments`) on the
daemon's supervised fleet (``VerificationEngine(fleet=)``).  The daemon
adds the service semantics around that engine call:

* **queueing + backpressure** -- submissions past ``queue_limit``
  pending campaigns are rejected with 429 and a ``Retry-After`` hint
  (the daemon never buffers unboundedly);
* **graceful drain** -- SIGTERM/SIGINT (or ``POST /shutdown``) stops
  intake, interrupts the running campaign between leases
  (:class:`~repro.verify.supervisor.DrainRequested`), and exits; every
  completed unit is already in the shared verdict store;
* **restart resume** -- on startup, campaign specs without a terminal
  result are re-enqueued, so a SIGKILLed daemon restarted on the same
  state directory finishes mid-flight campaigns with bit-identical
  evidence, recomputing only the units the store lacks (the store keys
  every unit by its content, so no other spec's record can splice in);
  a requeued campaign whose status snapshot exists had started, and
  its result says ``resumed``;
* **repeat queries** -- all campaigns share one content-addressed
  :class:`~repro.verify.store.VerdictStore`, so resubmitting a spec
  answers almost entirely from disk.

Each campaign's :class:`~repro.obs.progress.CampaignMonitor` hears the
fleet workers through the lease loop: their beats ride the fleet's
pipes, so the daemon keeps no telemetry files beyond each campaign's
status snapshot and its events feed.

State directory layout::

    endpoint.json              host/port/pid (written after bind; the
                               ``--port 0`` handshake)
    store/                     shared verdict store segments
    campaigns/<id>.json        submitted spec (the resume source)
    campaigns/<id>.status.json live repro-status/1 snapshot
    campaigns/<id>.events.jsonl  snapshot history (the events feed)
    campaigns/<id>.result.json terminal result (evidence + metrics)
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from typing import Dict, List, Optional

from repro.obs.progress import CampaignMonitor
from repro.obs.tracer import now_us
from repro.service import protocol
from repro.service.campaigns import (
    CampaignError,
    CampaignSpec,
    build_task_context,
    load_program_registries,
)
from repro.service.client import MAX_WAIT_S
from repro.service.protocol import Request, Response, json_response
from repro.verify.engine import VerificationEngine
from repro.verify.fleet import Fleet
from repro.verify.store import VerdictStore
from repro.verify.supervisor import DrainRequested

#: Campaign record states (a superset of the snapshot's enum: ``queued``
#: exists only daemon-side, before a monitor is born).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class _CampaignRecord:
    __slots__ = ("id", "spec", "state", "error", "submitted_us", "resumed")

    def __init__(self, cid: str, spec: CampaignSpec, submitted_us: int) -> None:
        self.id = cid
        self.spec = spec
        self.state = QUEUED
        self.error: Optional[str] = None
        self.submitted_us = submitted_us
        #: Requeued at startup after it had started (its status snapshot
        #: exists): its units so far are in the store.
        self.resumed = False


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


class CampaignDaemon:
    """``repro serve``: the fault-tolerant verification service."""

    def __init__(
        self,
        state_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_limit: int = 8,
        task_timeout: Optional[float] = 60.0,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        self.state_dir = os.path.abspath(state_dir)
        self.campaigns_dir = os.path.join(self.state_dir, "campaigns")
        self.host = host
        self.port = int(port)
        self.workers = max(1, int(workers))
        self.queue_limit = max(1, int(queue_limit))
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        #: One flat dict every supervision layer bumps into -- surfaced
        #: as ``engine.service.*`` metrics and ``health.service``.
        self.counters: Dict[str, int] = {}
        self.stop_event = threading.Event()
        self.fleet = Fleet(
            self.workers,
            counters=self.counters,
            resolve_context=build_task_context,
            stop_event=self.stop_event,
        )
        self.store = VerdictStore(os.path.join(self.state_dir, "store"))
        self.records: Dict[str, _CampaignRecord] = {}
        self.order: List[str] = []
        self._counter = 1
        self._draining = False
        self._wake: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None
        #: campaign id -> event that answers its held status requests.
        self._settled: Dict[str, asyncio.Event] = {}
        self.bound_port: Optional[int] = None

    def _bump(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- paths ---------------------------------------------------------

    def _spec_path(self, cid: str) -> str:
        return os.path.join(self.campaigns_dir, f"{cid}.json")

    def _status_path(self, cid: str) -> str:
        return os.path.join(self.campaigns_dir, f"{cid}.status.json")

    def _events_path(self, cid: str) -> str:
        return os.path.join(self.campaigns_dir, f"{cid}.events.jsonl")

    def _result_path(self, cid: str) -> str:
        return os.path.join(self.campaigns_dir, f"{cid}.result.json")

    # -- startup / resume ----------------------------------------------

    def _scan_state_dir(self) -> None:
        """Rebuild the campaign table from disk (the restart path).

        A spec with a terminal result is recorded as finished; a spec
        without one -- the daemon died or drained mid-flight -- is
        re-enqueued, and the re-run resumes from the shared store.  One
        whose status snapshot exists had reached its plan (the monitor
        writes the first snapshot there), so it is marked resumed.
        """
        os.makedirs(self.campaigns_dir, exist_ok=True)
        entries = []
        for name in os.listdir(self.campaigns_dir):
            if not name.endswith(".json") or "." in name[:-5]:
                continue
            path = os.path.join(self.campaigns_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                spec = CampaignSpec.from_dict(payload["spec"])
                cid = str(payload.get("id", name[:-5]))
                submitted_us = int(payload.get("submitted_us", 0))
            except (OSError, ValueError, KeyError, TypeError, CampaignError):
                continue  # unreadable spec: skip, never crash startup
            entries.append((submitted_us, cid, spec))
        entries.sort()
        for submitted_us, cid, spec in entries:
            record = _CampaignRecord(cid, spec, submitted_us)
            if os.path.exists(self._result_path(cid)):
                try:
                    with open(
                        self._result_path(cid), "r", encoding="utf-8"
                    ) as handle:
                        result = json.load(handle)
                    record.error = result.get("error")
                    record.state = FAILED if "error" in result else DONE
                except (OSError, ValueError, AttributeError):
                    record.state = QUEUED  # torn result: re-run
            if record.state == QUEUED:
                self._bump("campaigns_requeued_on_start")
                record.resumed = os.path.exists(self._status_path(cid))
            self.records[cid] = record
            self.order.append(cid)
            # ids are "c<counter>-<sig>"; keep the counter monotone.
            head = cid.split("-", 1)[0]
            if head.startswith("c") and head[1:].isdigit():
                self._counter = max(self._counter, int(head[1:]) + 1)

    # -- campaign execution (worker thread) ------------------------------

    def _pending(self) -> List[str]:
        return [
            cid
            for cid in self.order
            if self.records[cid].state in (QUEUED, RUNNING)
        ]

    def _run_campaign(self, cid: str) -> None:
        record = self.records[cid]
        spec = record.spec
        events_path = self._events_path(cid)

        def on_snapshot(snap: dict) -> None:
            try:
                with open(events_path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(snap, sort_keys=True) + "\n")
            except OSError:
                pass

        monitor = CampaignMonitor(
            self._status_path(cid),
            command=f"serve {cid}",
            on_snapshot=on_snapshot,
        )
        monitor.attach_service(self.counters)
        try:
            sweep = spec.sweep_arguments()
            self.fleet.ensure()
            self.fleet.set_context(spec.to_dict())
            if record.resumed:
                self._bump("campaigns_resumed")
            engine = VerificationEngine(
                jobs=self.workers,
                store=self.store,
                monitor=monitor,
                fleet=self.fleet,
                task_timeout=self.task_timeout,
                max_task_retries=self.max_retries,
                retry_backoff=self.retry_backoff,
            )
            evidence = engine.definition2_sweep(**sweep)
            holds = evidence.contract_holds
            metrics = engine.metrics_snapshot().as_dict()
            result = {
                "id": cid,
                "signature": spec.signature(),
                "contract_holds": holds,
                "rows": evidence.rows,
                "resumed": record.resumed,
                "metrics": metrics,
                "service": dict(self.counters),
                "finished_us": now_us(),
            }
            _atomic_write_json(self._result_path(cid), result)
            monitor.finish(
                ok=holds,
                verdicts=evidence.rows,
                result={"contract_holds": holds, "id": cid},
            )
            record.state = DONE
            self._bump("campaigns_completed")
        except DrainRequested:
            # Stopped mid-flight: everything completed is in the store;
            # the restart scan re-enqueues and the re-run resumes.
            record.state = QUEUED
            monitor.fail(
                "drain: campaign stopped, resumes on daemon restart"
            )
            self._bump("campaigns_drained")
        except Exception as exc:  # a campaign must never kill the daemon
            record.state = FAILED
            record.error = f"{type(exc).__name__}: {exc}"
            _atomic_write_json(
                self._result_path(cid),
                {
                    "id": cid,
                    "signature": spec.signature(),
                    "error": record.error,
                    "finished_us": now_us(),
                },
            )
            monitor.fail(record.error)
            self._bump("campaigns_failed")
        finally:
            monitor.close()

    # -- HTTP surface ----------------------------------------------------

    async def _handle(self, request: Request) -> Response:
        path = request.path.rstrip("/") or "/"
        if path == "/healthz" and request.method == "GET":
            return self._get_health()
        if path == "/campaigns":
            if request.method == "POST":
                return self._post_campaign(request)
            if request.method == "GET":
                return self._get_campaigns()
            return json_response(405, {"error": "GET or POST"})
        if path == "/shutdown" and request.method == "POST":
            self._begin_drain()
            return json_response(202, {"draining": True})
        if path.startswith("/campaigns/"):
            rest = path[len("/campaigns/"):]
            cid, _, leaf = rest.partition("/")
            if cid not in self.records:
                return json_response(
                    404, {"error": f"unknown campaign {cid!r}"}
                )
            if request.method != "GET":
                return json_response(405, {"error": "GET only"})
            if not leaf:
                return await self._get_campaign(cid, request.query.get("wait"))
            if leaf == "result":
                return self._get_result(cid)
            if leaf == "events":
                return self._get_events(cid)
        return json_response(404, {"error": f"no route {request.path!r}"})

    def _get_health(self) -> Response:
        states: Dict[str, int] = {}
        for record in self.records.values():
            states[record.state] = states.get(record.state, 0) + 1
        return json_response(
            200,
            {
                "ok": True,
                "pid": os.getpid(),
                "draining": self._draining,
                "workers": len(self.fleet.handles),
                "worker_pids": sorted(self.fleet.live_pids()),
                "campaigns": states,
                "service": dict(self.counters),
            },
        )

    def _post_campaign(self, request: Request) -> Response:
        if self._draining:
            return json_response(503, {"error": "daemon draining"})
        pending = len(self._pending())
        if pending >= self.queue_limit:
            self._bump("rejected_backpressure")
            # Honest hint: campaigns run sequentially, so the wait
            # scales with the queue depth ahead of this client.
            return json_response(
                429,
                {"error": f"queue full ({pending} pending)"},
                headers={"Retry-After": str(max(1, pending))},
            )
        try:
            payload = request.json()
            spec = CampaignSpec.from_dict(payload)
            spec.sweep_arguments()  # unknown names are client errors
        except (ValueError, CampaignError) as exc:
            return json_response(400, {"error": str(exc)})
        signature = spec.signature()
        cid = f"c{self._counter}-{signature[:12]}"
        self._counter += 1
        record = _CampaignRecord(cid, spec, now_us())
        self.records[cid] = record
        self.order.append(cid)
        _atomic_write_json(
            self._spec_path(cid),
            {
                "id": cid,
                "spec": spec.to_dict(),
                "signature": signature,
                "submitted_us": record.submitted_us,
            },
        )
        self._bump("campaigns_accepted")
        if self._wake is not None:
            self._wake.set()
        return json_response(
            202,
            {
                "id": cid,
                "signature": signature,
                "state": record.state,
                "position": pending,
            },
        )

    def _campaign_info(self, cid: str) -> dict:
        record = self.records[cid]
        info = {
            "id": cid,
            "state": record.state,
            "signature": record.spec.signature(),
            "submitted_us": record.submitted_us,
        }
        if record.error:
            info["error"] = record.error
        try:
            with open(
                self._status_path(cid), "r", encoding="utf-8"
            ) as handle:
                snap = json.load(handle)
            info["progress"] = snap.get("progress", {}).get("completion")
            info["snapshot_seq"] = snap.get("seq")
        except (OSError, ValueError):
            pass
        return info

    def _get_campaigns(self) -> Response:
        return json_response(
            200,
            {"campaigns": [self._campaign_info(cid) for cid in self.order]},
        )

    async def _get_campaign(self, cid: str, wait: Optional[str]) -> Response:
        """One campaign's info; with ``wait=S``, answered once the campaign
        is terminal, after ``min(S, MAX_WAIT_S)`` seconds, or at a drain,
        whichever comes first."""
        if wait is not None:
            try:
                seconds = float(wait)
            except ValueError:
                seconds = -1.0
            if not seconds >= 0:  # NaN fails this too
                return json_response(
                    400, {"error": f"wait must be seconds >= 0, not {wait!r}"}
                )
            if (
                seconds
                and not self._draining
                and self.records[cid].state not in (DONE, FAILED)
            ):
                settled = self._settled.setdefault(cid, asyncio.Event())
                try:
                    await asyncio.wait_for(
                        settled.wait(), min(seconds, MAX_WAIT_S)
                    )
                except asyncio.TimeoutError:
                    pass
        return json_response(200, self._campaign_info(cid))

    def _get_result(self, cid: str) -> Response:
        try:
            with open(
                self._result_path(cid), "r", encoding="utf-8"
            ) as handle:
                return Response(status=200, body=handle.read().encode())
        except OSError:
            return json_response(
                404,
                {
                    "error": f"campaign {cid} has no result yet",
                    "state": self.records[cid].state,
                },
            )

    def _get_events(self, cid: str) -> Response:
        try:
            with open(self._events_path(cid), "rb") as handle:
                return Response(
                    status=200,
                    body=handle.read(),
                    content_type="application/jsonl",
                )
        except OSError:
            return Response(status=200, body=b"", content_type="application/jsonl")

    # -- lifecycle -------------------------------------------------------

    def _settle(self, cids: List[str]) -> None:
        """Answer the status requests held on ``cids`` (loop thread)."""
        for cid in cids:
            event = self._settled.pop(cid, None)
            if event is not None:
                event.set()

    def _begin_drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        self.stop_event.set()
        if self._wake is not None:
            self._wake.set()
        # The server's close waits for open connections on Python 3.12.
        self._settle(list(self._settled))

    async def _runner(self) -> None:
        """Sequential campaign consumer (runs campaigns off-loop)."""
        loop = asyncio.get_running_loop()
        while not self._draining:
            next_id = None
            for cid in self.order:
                if self.records[cid].state == QUEUED:
                    next_id = cid
                    break
            if next_id is None:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.5)
                except asyncio.TimeoutError:
                    pass
                continue
            self.records[next_id].state = RUNNING
            await loop.run_in_executor(None, self._run_campaign, next_id)
            self._settle([next_id])
        self._drained.set()

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._drained = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._begin_drain)
            except (NotImplementedError, RuntimeError):
                pass
        server = await protocol.serve(self.host, self.port, self._handle)
        self.bound_port = server.sockets[0].getsockname()[1]
        _atomic_write_json(
            os.path.join(self.state_dir, "endpoint.json"),
            {
                "host": self.host,
                "port": self.bound_port,
                "pid": os.getpid(),
                "started_us": now_us(),
            },
        )
        runner = asyncio.ensure_future(self._runner())
        try:
            await self._drained.wait()
        finally:
            runner.cancel()
            server.close()
            await server.wait_closed()

    def serve_forever(self) -> int:
        """Blocking entry point (the ``repro serve`` command body)."""
        os.makedirs(self.state_dir, exist_ok=True)
        os.makedirs(self.campaigns_dir, exist_ok=True)
        self._scan_state_dir()
        # Fork the fleet before the event loop spins up any threads, and
        # after loading the modules its workers resolve campaigns with.
        load_program_registries()
        self.fleet.start()
        try:
            asyncio.run(self._main())
        finally:
            self.fleet.stop()
            self.store.close()
            try:
                os.unlink(os.path.join(self.state_dir, "endpoint.json"))
            except OSError:
                pass
        return 0
