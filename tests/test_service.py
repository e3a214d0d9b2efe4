"""The campaign daemon: leases, breaker, protocol, chaos invariance.

Unit layers (TaskBoard, CircuitBreaker, CampaignSpec) run in-process;
the integration tests fork a real daemon per test on an ephemeral port
and drive it through :class:`repro.service.client.ServiceClient` --
including the headline robustness obligations: injected worker kills
plus a daemon SIGKILL/restart must leave the evidence table
byte-identical to a serial in-process sweep, and a wedged worker's
lease must be reclaimed (visible in ``engine.service.*``).
"""

import contextlib
import json
import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.service.campaigns import CampaignError, CampaignSpec
from repro.service.client import ServiceClient, ServiceError
from repro.verify.supervisor import (
    HEALTHY,
    QUARANTINED,
    SUSPECT,
    CircuitBreaker,
)
from repro.verify.leases import (
    DEGRADE,
    RETRY,
    STALE,
    BackoffPolicy,
    TaskBoard,
)

# ---------------------------------------------------------------------------
# TaskBoard: lease generations, dedupe, backoff, degradation
# ---------------------------------------------------------------------------


def test_taskboard_first_completion_wins():
    board = TaskBoard(2)
    a = board.grant(0.0)
    b = board.grant(0.0)
    assert {a.task, b.task} == {0, 1}
    assert board.complete(a.task, a.gen)
    # A duplicate completion (resubmitted task finishing twice) is
    # ignored and counted, never double-folded.
    assert not board.complete(a.task, a.gen)
    assert board.counters["duplicate_completions"] == 1
    assert board.complete(b.task, b.gen)
    assert board.finished


def test_taskboard_charges_one_failure_per_lease():
    """The timeout-then-crash double report: one lease, one charge."""
    board = TaskBoard(1, max_retries=3)
    lease = board.grant(0.0)
    assert board.fail(lease.task, lease.gen, "task_timeouts", 0.0) == RETRY
    # The wedged worker dies *after* its timeout was already charged:
    # same (task, gen), so the death must not burn a second retry.
    assert board.fail(lease.task, lease.gen, "task_timeouts", 0.1) == STALE
    assert board.counters["task_timeouts"] == 1
    assert board.counters["stale_failures"] == 1
    assert board.attempts[lease.task] == 1


def test_taskboard_stale_generation_failures_ignored():
    board = TaskBoard(1, max_retries=3)
    first = board.grant(0.0)
    board.fail(first.task, first.gen, "task_errors", 0.0)
    second = board.grant(10.0)  # the retry lease: a newer generation
    assert second.gen == first.gen + 1
    # A late failure report quoting the *old* generation is stale.
    assert board.fail(first.task, first.gen, "task_errors", 10.0) == STALE
    assert board.counters["task_errors"] == 1
    # And completion through the current lease still lands.
    assert board.complete(second.task, second.gen)


def test_taskboard_backoff_then_degrade():
    board = TaskBoard(
        1, max_retries=2, backoff=BackoffPolicy(base=10.0, jitter=0.0)
    )
    lease = board.grant(0.0)
    assert board.fail(lease.task, lease.gen, "task_errors", 0.0) == RETRY
    # Backoff: the retry is scheduled in the future, not granted now.
    assert board.grant(0.0) is None
    assert board.next_not_before() is not None
    retry = board.grant(1e9)
    assert retry is not None
    assert board.fail(retry.task, retry.gen, "task_errors", 1e9) == RETRY
    third = board.grant(2e9)
    assert board.fail(third.task, third.gen, "task_errors", 2e9) == DEGRADE
    assert board.counters["degraded_to_serial"] == 1
    assert board.counters["tasks_retried"] == 2
    assert board.counters["backoff_scheduled"] >= 1


def test_backoff_policy_is_bounded_and_jittered():
    policy = BackoffPolicy(base=0.1, ceiling=1.0, jitter=0.5)
    delays = [policy.delay(task=7, attempt=a) for a in range(1, 12)]
    assert all(0.0 < d <= 1.5 for d in delays)
    # Deterministic: same (task, attempt) -> same jitter.
    assert policy.delay(7, 3) == policy.delay(7, 3)
    assert policy.delay(7, 3) != policy.delay(8, 3)


# ---------------------------------------------------------------------------
# CircuitBreaker: healthy -> suspect -> quarantined -> recovered
# ---------------------------------------------------------------------------


def test_circuit_breaker_lifecycle():
    counters = {}
    breaker = CircuitBreaker(threshold=2, probe_interval=3, counters=counters)
    key = "cell:0"
    assert breaker.state(key) == HEALTHY
    assert breaker.route(key) == "fleet"

    breaker.record_failure(key)
    assert breaker.state(key) == SUSPECT
    breaker.record_success(key)
    assert breaker.state(key) == HEALTHY  # suspect heals on success

    breaker.record_failure(key)
    breaker.record_failure(key)
    assert breaker.state(key) == QUARANTINED
    assert counters["breaker_opened"] == 1

    routes = [breaker.route(key) for _ in range(6)]
    assert routes.count("serial") == 4  # every 3rd call probes the fleet
    assert routes.count("fleet") == 2
    assert counters["breaker_probes"] == 2

    breaker.record_success(key)  # a probe came back: circuit closes
    assert breaker.state(key) == HEALTHY
    assert counters["breaker_recovered"] == 1
    assert breaker.route(key) == "fleet"


# ---------------------------------------------------------------------------
# CampaignSpec: wire format, signatures, validation
# ---------------------------------------------------------------------------


def test_campaign_spec_roundtrip_and_signature():
    spec = CampaignSpec.from_dict(
        {
            "programs": ["SB", "MP+sync"],
            "policies": ["sc", "adve-hill"],
            "seeds": 3,
            "drf0_seeds": 2,
        }
    )
    again = CampaignSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.signature() == spec.signature()
    # Signatures are content hashes: any axis change moves them.
    other = CampaignSpec.from_dict(
        {"programs": ["SB"], "policies": ["sc"], "seeds": 3}
    )
    assert other.signature() != spec.signature()


def test_campaign_spec_resolves_workloads_and_config():
    spec = CampaignSpec.from_dict(
        {
            "programs": ["lock"],
            "policies": ["sc"],
            "config": {"topology": "bus", "seed": 5},
        }
    )
    sweep = spec.sweep_arguments()
    assert sweep["programs"][0].name
    assert list(sweep["policy_factories"]) == ["sc"]
    config = sweep["config"]
    assert config.topology == "bus" and config.seed == 5
    assert list(sweep["seeds"]) == list(range(20))


@pytest.mark.parametrize(
    "payload",
    [
        {"policies": ["sc"]},  # no programs
        {"programs": ["SB"]},  # no policies
        {"programs": ["no-such"], "policies": ["sc"]},
        {"programs": ["SB"], "policies": ["no-such"]},
        {"programs": ["SB"], "policies": ["sc"], "seeds": 0},
        {"programs": ["SB"], "policies": ["sc"], "config": {"bogus": 1}},
        {"programs": ["SB"], "policies": ["sc"],
         "config": {"faults": "no-such-plan"}},
        {"programs": ["SB"], "policies": ["sc"], "failpoints": [{}]},
    ],
)
def test_campaign_spec_rejects_bad_payloads(payload):
    with pytest.raises(CampaignError):
        spec = CampaignSpec.from_dict(payload)
        spec.sweep_arguments()


# ---------------------------------------------------------------------------
# Client transport: every failure is a ServiceError
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _one_shot_server(reply):
    """A client of a local server that accepts one connection, reads its
    request head and answers with the raw bytes ``reply`` (None: close
    without answering)."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)

    def answer():
        conn, _ = server.accept()
        with conn:
            request = b""
            while b"\r\n\r\n" not in request:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                request += chunk
            if reply is not None:
                conn.sendall(reply)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    try:
        yield ServiceClient("127.0.0.1", server.getsockname()[1], timeout=10)
    finally:
        thread.join(timeout=10)
        server.close()


def test_client_refused_connection_is_a_service_error():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens on the port now
    with pytest.raises(ServiceError) as excinfo:
        ServiceClient("127.0.0.1", port, timeout=5).health()
    assert str(excinfo.value).startswith(
        f"cannot reach daemon at 127.0.0.1:{port}: "
    )
    assert excinfo.value.status == 0
    assert excinfo.value.retry_after is None


@pytest.mark.parametrize(
    "reply",
    [
        None,
        b"garbage\n",
        b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\n{\"ok\": ",
        b"HTTP/1.1 200 OK\r\ncontent-len",
    ],
    ids=["closed-without-reply", "not-http", "body-cut-short",
         "head-cut-short"],
)
def test_client_transport_failures_are_service_errors(reply):
    with _one_shot_server(reply) as client:
        with pytest.raises(ServiceError) as excinfo:
            client.health()
    assert str(excinfo.value).startswith(
        f"cannot reach daemon at 127.0.0.1:{client.port}: "
    )
    assert excinfo.value.status == 0
    assert excinfo.value.retry_after is None


@pytest.mark.parametrize("status, headers, retry_after", [
    (404, {}, None), (429, {"Retry-After": "3"}, 3.0),
])
def test_client_http_errors_keep_status_and_message(
    status, headers, retry_after
):
    from repro.service.protocol import _render, json_response

    reply = _render(json_response(status, {"error": "no"}, headers))
    with _one_shot_server(reply) as client:
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
    assert str(excinfo.value) == f"GET /nope -> {status}: no"
    assert excinfo.value.status == status
    assert excinfo.value.retry_after == retry_after


# ---------------------------------------------------------------------------
# Daemon integration (one forked daemon per test, port 0 handshake)
# ---------------------------------------------------------------------------

SMALL_SPEC = {
    "programs": ["SB"],
    "policies": ["sc", "adve-hill"],
    "seeds": 3,
    "drf0_seeds": 2,
}


def _daemon_proc(state_dir, **kwargs):
    from repro.service.daemon import CampaignDaemon

    def entry():
        CampaignDaemon(str(state_dir), port=0, **kwargs).serve_forever()

    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=entry)
    proc.start()
    return proc


def _wait_endpoint(state_dir, proc, timeout=30.0):
    path = os.path.join(str(state_dir), "endpoint.json")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                endpoint = json.load(handle)
            if endpoint.get("pid") == proc.pid:
                return ServiceClient(endpoint["host"], endpoint["port"])
        except (OSError, ValueError, KeyError):
            pass
        assert proc.is_alive(), "daemon died during startup"
        time.sleep(0.05)
    raise AssertionError("daemon did not write endpoint.json in time")


def _stop_daemon(proc, state_dir):
    if proc.is_alive():
        try:
            ServiceClient.from_state_dir(str(state_dir)).shutdown()
        except ServiceError:
            pass
    proc.join(timeout=30.0)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=10.0)


def _serial_rows(spec_dict):
    from repro.verify.engine import VerificationEngine

    spec = CampaignSpec.from_dict(spec_dict)
    evidence = VerificationEngine(jobs=1).definition2_sweep(
        **spec.sweep_arguments()
    )
    return evidence.rows


def test_daemon_campaign_matches_serial_and_warm_resubmit(tmp_path):
    state = tmp_path / "svc"
    proc = _daemon_proc(state, workers=2, task_timeout=60.0)
    try:
        client = _wait_endpoint(state, proc)
        health = client.health()
        assert health["ok"] and health["workers"] == 2

        first = client.submit(SMALL_SPEC)
        info = client.wait(first["id"], timeout=180.0)
        assert info["state"] == "done"
        result = client.result(first["id"])
        assert result["contract_holds"] is True
        baseline = json.dumps(_serial_rows(SMALL_SPEC), sort_keys=True)
        assert json.dumps(result["rows"], sort_keys=True) == baseline

        # Same spec again: answered from the shared verdict store --
        # the warm run re-proves nothing it already judged.
        second = client.submit(SMALL_SPEC)
        assert second["id"] != first["id"]
        assert second["signature"] == first["signature"]
        client.wait(second["id"], timeout=180.0)
        warm = client.result(second["id"])
        assert json.dumps(warm["rows"], sort_keys=True) == baseline
        cold_counters = result["metrics"]["counters"]
        warm_counters = warm["metrics"]["counters"]
        # The store counters are cumulative per daemon: the cold run
        # flushed verdicts, the warm run reused them and added nothing.
        assert cold_counters["engine.store.flushed_runs"] > 0
        assert (
            warm_counters["engine.store.flushed_runs"]
            == cold_counters["engine.store.flushed_runs"]
        )
        assert warm_counters["engine.store.runs_reused"] > cold_counters.get(
            "engine.store.runs_reused", 0
        )

        listed = client.campaigns()
        assert [row["state"] for row in listed] == ["done", "done"]
        # A finished campaign leaves its record and nothing else: every
        # unit went to the shared store.
        suffixes = {".json", ".status.json", ".events.jsonl", ".result.json"}
        for cid in (first["id"], second["id"]):
            left = {
                path.name[len(cid):]
                for path in (state / "campaigns").glob(f"{cid}.*")
            }
            assert left == suffixes, left
    finally:
        _stop_daemon(proc, state)


def test_daemon_reclaims_wedged_worker_lease(tmp_path):
    """A hang-mode failpoint wedges one fleet worker mid-task: the lease
    must time out, the worker be killed and replaced, and the retry land
    -- all visible in ``engine.service.*`` -- with evidence unchanged."""
    state = tmp_path / "svc"
    spec = dict(SMALL_SPEC)
    spec["failpoints"] = [
        {
            "task_kind": "run",
            "mode": "hang",
            "token": str(tmp_path / "wedge-token"),
        }
    ]
    proc = _daemon_proc(state, workers=2, task_timeout=2.0)
    try:
        client = _wait_endpoint(state, proc)
        accepted = client.submit(spec)
        info = client.wait(accepted["id"], timeout=180.0)
        assert info["state"] == "done"
        result = client.result(accepted["id"])
        baseline = json.dumps(_serial_rows(SMALL_SPEC), sort_keys=True)
        assert json.dumps(result["rows"], sort_keys=True) == baseline

        counters = result["metrics"]["counters"]
        assert counters["engine.service.leases_reclaimed"] >= 1
        assert counters["engine.service.task_timeouts"] >= 1
        assert counters["engine.service.tasks_retried"] >= 1
        assert counters["engine.service.workers_killed"] >= 1
        assert counters["engine.service.workers_replaced"] >= 1
    finally:
        _stop_daemon(proc, state)


class _CountingClient(ServiceClient):
    """A client that records the path of every request it sends."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.paths = []

    def _request(self, method, path, payload=None):
        self.paths.append(path)
        return super()._request(method, path, payload)


def _wedged_spec(token):
    return dict(
        SMALL_SPEC,
        failpoints=[{"task_kind": "run", "mode": "hang", "token": str(token)}],
    )


def test_wait_is_answered_when_the_campaign_ends(tmp_path):
    """``wait`` holds its status request on the daemon until the campaign
    is terminal.  A wedged run task keeps this campaign going until its
    1 s lease timeout; polling every 200 ms would take one request per
    200 ms, a held request sees it done in at most two."""
    state = tmp_path / "svc"
    proc = _daemon_proc(state, workers=2, task_timeout=1.0)
    try:
        bound = _wait_endpoint(state, proc)
        client = _CountingClient(bound.host, bound.port)
        cid = client.submit(_wedged_spec(tmp_path / "wedge-token"))["id"]
        start = time.monotonic()
        info = client.wait(cid, timeout=180.0)
        elapsed = time.monotonic() - start
        assert info["state"] == "done"
        assert elapsed > 0.5
        polls = [
            path for path in client.paths
            if path.partition("?")[0] == f"/campaigns/{cid}"
        ]
        assert 1 <= len(polls) <= 2, polls
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/campaigns/{cid}?wait=soon")
        assert excinfo.value.status == 400
    finally:
        _stop_daemon(proc, state)


def test_wait_paces_early_non_terminal_answers():
    """A daemon that answers at once (a draining one) gets at most one
    status request per ``poll`` from ``wait``, not a busy loop."""

    class _AnswersAtOnce(ServiceClient):
        def __init__(self):
            super().__init__()
            self.paths = []

        def _request(self, method, path, payload=None):
            self.paths.append(path)
            return {"state": "running"}

    client = _AnswersAtOnce()
    with pytest.raises(ServiceError, match="still 'running'"):
        client.wait("c1", timeout=0.5, poll=0.1)
    assert 2 <= len(client.paths) <= 7, client.paths


def test_drain_answers_held_status_requests(tmp_path):
    """A drain answers every held ``?wait=`` request at once, so the
    server can close.  The request here is held on a campaign queued
    behind a wedged one; nothing but the drain would answer it before
    its 3 s hold runs out."""
    state = tmp_path / "svc"
    token = tmp_path / "wedge-token"
    proc = _daemon_proc(state, workers=2, task_timeout=60.0)
    try:
        client = _wait_endpoint(state, proc)
        client.submit(_wedged_spec(token))
        queued = client.submit(SMALL_SPEC)["id"]
        deadline = time.monotonic() + 60.0
        while not token.exists():
            assert time.monotonic() < deadline, "campaign never started"
            time.sleep(0.02)
        answers = []
        holder = threading.Thread(
            target=lambda: answers.append(
                client._request("GET", f"/campaigns/{queued}?wait=3")
            )
        )
        holder.start()
        time.sleep(0.3)  # the request reaches the daemon and is held
        start = time.monotonic()
        client.shutdown()
        holder.join(timeout=10.0)
        assert not holder.is_alive()
        assert [answer["state"] for answer in answers] == ["queued"]
        assert time.monotonic() - start < 2.0
        proc.join(timeout=30.0)
        assert proc.exitcode == 0
    finally:
        _stop_daemon(proc, state)


def test_chaos_worker_kills_and_daemon_sigkill_bit_identical(tmp_path):
    """The headline acceptance: two injected worker kills plus a daemon
    SIGKILL/restart leave the verdict table byte-identical to serial."""
    from repro.service.chaos import service_kill_chaos

    report = service_kill_chaos(
        str(tmp_path / "svc"),
        program_names=("SB",),
        policy_names=("sc", "adve-hill"),
        seeds=3,
        drf0_seeds=2,
        worker_kills=2,
        daemon_restart=True,
        workers=2,
        timeout=240.0,
    )
    assert report["worker_kills_fired"] >= 2
    assert report["daemon_restarts"] == 1
    assert report["resumed_after_restart"] is True
    assert report["rows_identical_to_serial"] is True
    assert report["ok"] is True


def test_daemon_sigkill_mid_campaign_resumes_byte_identical(tmp_path):
    """Kill-and-resume without worker chaos: SIGKILL the daemon while a
    campaign is mid-flight, restart on the same directories, and the
    finished evidence (and its JSON bytes) must match a serial sweep.

    A one-shot hang failpoint wedges the first run task, so the campaign
    cannot finish before the kill: once its token exists the daemon is
    mid-flight for the whole 60 s task timeout.  The token survives the
    restart, so the resumed campaign runs clean."""
    state = tmp_path / "svc"
    token = tmp_path / "wedge-token"
    spec = {
        "programs": ["SB", "MP+sync"],
        "policies": ["sc", "adve-hill"],
        "seeds": 3,
        "drf0_seeds": 2,
        "failpoints": [
            {"task_kind": "run", "mode": "hang", "token": str(token)}
        ],
    }
    proc = _daemon_proc(state, workers=2, task_timeout=60.0)
    client = _wait_endpoint(state, proc)
    worker_pids = set(client.health()["worker_pids"])
    cid = client.submit(spec)["id"]
    deadline = time.monotonic() + 60.0
    while not token.exists():
        assert time.monotonic() < deadline, "campaign never started"
        assert proc.is_alive()
        time.sleep(0.02)
    worker_pids.update(client.health()["worker_pids"])
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10.0)
    # The idle workers exit on EOF from the dead daemon; the wedged one
    # sleeps in its task and never reads it.
    for pid in worker_pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    proc = _daemon_proc(state, workers=2, task_timeout=60.0)
    try:
        client = _wait_endpoint(state, proc)
        info = client.wait(cid, timeout=180.0)
        assert info["state"] == "done"
        result = client.result(cid)
        raw = json.dumps(result["rows"], sort_keys=True)
        assert raw == json.dumps(_serial_rows(spec), sort_keys=True)
        assert result["service"].get("campaigns_requeued_on_start", 0) >= 1
        assert result["resumed"] is True
        assert result["service"].get("campaigns_resumed", 0) >= 1
    finally:
        _stop_daemon(proc, state)


def test_daemon_restart_scan_skips_malformed_specs(tmp_path):
    """The restart scan skips a spec file it cannot read, whatever is
    wrong with it, and requeues the good ones beside it; a result that
    is not an object counts as torn, so its campaign runs again.  This
    starts no fleet or other process."""
    from repro.service.daemon import QUEUED, CampaignDaemon

    campaigns = tmp_path / "svc" / "campaigns"
    campaigns.mkdir(parents=True)
    good = {"id": "c3-good", "spec": SMALL_SPEC, "submitted_us": 5}
    files = {
        "c1-x.json": [],
        "c2-x.json": dict(good, id="c2-x", submitted_us="soon"),
        "c3-good.json": good,
        "c4-torn.json": dict(good, id="c4-torn", submitted_us=6),
        "c4-torn.result.json": [],
    }
    for name, payload in files.items():
        (campaigns / name).write_text(json.dumps(payload))
    (campaigns / "c3-good.status.json").write_text("{}")
    daemon = CampaignDaemon(str(tmp_path / "svc"), workers=1)
    daemon._scan_state_dir()
    assert daemon.order == ["c3-good", "c4-torn"]
    assert [daemon.records[cid].state for cid in daemon.order] == [
        QUEUED, QUEUED,
    ]
    # c3 had started (its status snapshot exists), so it resumes.
    assert [daemon.records[cid].resumed for cid in daemon.order] == [
        True, False,
    ]
    assert daemon.counters["campaigns_requeued_on_start"] == 2
    assert daemon._counter == 5


def test_daemon_rejects_a_pairing_its_substrate_cannot_run(tmp_path):
    """A policy the spec's config cannot run (a cache-coherent policy
    without caches, a fault plan on the atomic snooping bus, a snooping
    bus without caches) is a client error at submit, not a campaign that
    fails when it runs."""
    state = tmp_path / "svc"
    proc = _daemon_proc(state, workers=1)
    try:
        client = _wait_endpoint(state, proc)
        for policy, config in (
            ("adve-hill", {"caches": False}),
            ("sc", {"coherence": "snoop", "faults": "kitchen-sink"}),
            ("sc", {"coherence": "snoop", "caches": False}),
        ):
            spec = {"programs": ["SB"], "policies": [policy], "config": config}
            with pytest.raises(ServiceError) as excinfo:
                client.submit(spec)
            assert excinfo.value.status == 400
        assert client.campaigns() == []
    finally:
        _stop_daemon(proc, state)


def test_daemon_backpressure_and_bad_specs(tmp_path):
    state = tmp_path / "svc"
    proc = _daemon_proc(state, workers=1, queue_limit=1, task_timeout=60.0)
    try:
        client = _wait_endpoint(state, proc)
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"programs": ["no-such"], "policies": ["sc"]})
        assert excinfo.value.status == 400

        first = client.submit(SMALL_SPEC)
        # Queue full (1 pending/running): the next submission is told to
        # back off, with an honest Retry-After.
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(SMALL_SPEC, seeds=4))
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None
        # Bounded client-side backoff eventually lands the campaign.
        second = client.submit_with_backoff(
            dict(SMALL_SPEC, seeds=4), attempts=100, max_wait=180.0
        )
        client.wait(first["id"], timeout=180.0)
        client.wait(second["id"], timeout=180.0)
        health = client.health()
        assert health["service"]["rejected_backpressure"] >= 1
        assert health["campaigns"] == {"done": 2}
    finally:
        _stop_daemon(proc, state)
