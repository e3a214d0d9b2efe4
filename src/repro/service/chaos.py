"""Service kill-chaos: the daemon's evidence must survive murder.

The fault-plan chaos of :mod:`repro.verify.chaos` perturbs the
*simulated* memory system; this half perturbs the *service* itself
(``repro chaos --service DIR``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Optional, Sequence

from repro.service.campaigns import CampaignSpec


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
    """Process-level chaos: submit one campaign to a real daemon and kill
    what serves it.

    The campaign has ``worker_kills`` crash failpoints armed
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

    from repro.service.client import ServiceClient, ServiceError
    from repro.verify.engine import VerificationEngine

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
    baseline = VerificationEngine(jobs=1).definition2_sweep(
        **CampaignSpec.from_dict(spec).sweep_arguments()
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
