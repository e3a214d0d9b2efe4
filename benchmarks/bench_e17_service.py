"""E17 -- the campaign daemon: service overhead, warm repeats, chaos cost.

PR 10 added ``repro serve``: a fault-tolerant daemon that runs
verification campaigns over a supervised worker fleet with leases,
retry/backoff, and circuit breaking.  Its promise is that the service
semantics are (nearly) free and *never* change the answers.  This
benchmark prices the three claims:

* **cold overhead** -- submit one campaign to a fresh daemon and compare
  submit-to-result wall clock against the same sweep as an in-process
  batch call with the same parallelism.  Gated at <= 10% (with an
  absolute noise floor: the daemon adds HTTP hops, a fleet context
  broadcast, and the store persistence the batch run skips);
* **warm repeat latency** -- resubmit the identical spec: the daemon
  answers from the shared content-addressed verdict store.  Gated to be
  no slower than the cold run; the warm/cold ratio is the service's
  repeat-query win and is recorded in the JSON report;
* **chaos-kill inflation** -- the same campaign with one injected
  worker crash (an engine failpoint inside a fleet worker): the
  completion-time inflation over cold is the price of one supervised
  death (lease reclamation + respawn + retry).  Not time-gated -- the
  gate is that the evidence stays **bit-identical** to the batch run,
  kill or no kill.

Run modes::

    python benchmarks/bench_e17_service.py            # full suite
    python benchmarks/bench_e17_service.py --quick    # CI-sized suite
    REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e17_service.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import shutil
import sys
import tempfile
import time
from typing import Dict, Optional

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from conftest import RESULTS_DIR, emit_table

from repro.service.campaigns import CampaignSpec
from repro.service.client import ServiceClient
from repro.verify.engine import VerificationEngine

JSON_PATH = RESULTS_DIR / "BENCH_e17_service.json"

#: Budget for daemon-vs-batch cold campaign overhead.
COLD_BUDGET = 0.10
#: Absolute floor under which overhead gates never trip (HTTP hops,
#: fleet context broadcast, result poll granularity).
NOISE_FLOOR_S = 0.75
WORKERS = 2


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _spec(quick: bool) -> Dict[str, object]:
    names = ["MP+sync", "SB"] if quick else ["MP+sync", "SB+sync", "SB"]
    return {
        "programs": names,
        "policies": ["sc", "adve-hill"],
        "seeds": 8 if quick else 40,
        "drf0_seeds": 4 if quick else 20,
    }


def _batch_rows_and_time(spec: Dict[str, object]):
    """The same sweep as an in-process batch call (the daemon's rival)."""
    sweep = CampaignSpec.from_dict(spec).sweep_arguments()
    start = time.perf_counter()
    evidence = VerificationEngine(jobs=WORKERS).definition2_sweep(**sweep)
    return time.perf_counter() - start, json.dumps(
        evidence.rows, sort_keys=True
    )


def _start_daemon(state_dir: str):
    from repro.service.daemon import CampaignDaemon

    def entry():
        CampaignDaemon(
            state_dir, port=0, workers=WORKERS, task_timeout=60.0
        ).serve_forever()

    proc = multiprocessing.get_context("fork").Process(target=entry)
    proc.start()
    endpoint = os.path.join(state_dir, "endpoint.json")
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            with open(endpoint, "r", encoding="utf-8") as handle:
                if json.load(handle).get("pid") == proc.pid:
                    return proc, ServiceClient.from_state_dir(state_dir)
        except (OSError, ValueError):
            pass
        if not proc.is_alive():
            raise RuntimeError("daemon died during startup")
        time.sleep(0.05)
    raise RuntimeError("daemon did not publish its endpoint")


def _stop_daemon(proc, client) -> None:
    try:
        client.shutdown()
    except Exception:
        pass
    proc.join(timeout=30.0)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=10.0)


def _submit_and_time(client: ServiceClient, spec: Dict[str, object]):
    start = time.perf_counter()
    cid = client.submit_with_backoff(spec)["id"]
    info = client.wait(cid, timeout=600.0, poll=0.02)
    elapsed = time.perf_counter() - start
    assert info["state"] == "done", info
    result = client.result(cid)
    return elapsed, json.dumps(result["rows"], sort_keys=True), result


def run_benchmark(quick: Optional[bool] = None) -> Dict[str, object]:
    if quick is None:
        quick = _quick()
    spec = _spec(quick)
    scratch = tempfile.mkdtemp(prefix="bench-e17-")
    try:
        batch_s, batch_rows = _batch_rows_and_time(spec)

        # Cold + warm share one daemon: the shared verdict store *is*
        # the warm-repeat mechanism under test.
        proc, client = _start_daemon(os.path.join(scratch, "svc"))
        try:
            cold_s, cold_rows, cold_result = _submit_and_time(client, spec)
            warm_s, warm_rows, _warm_result = _submit_and_time(client, spec)
        finally:
            _stop_daemon(proc, client)

        # Chaos runs on a fresh state dir (cold store) so its time is
        # comparable to the cold run, not the warm one.
        chaos_spec = dict(spec)
        chaos_spec["failpoints"] = [
            {
                "task_kind": "run",
                "mode": "crash",
                "token": os.path.join(scratch, "kill-token"),
            }
        ]
        proc, client = _start_daemon(os.path.join(scratch, "svc-chaos"))
        try:
            chaos_s, chaos_rows, chaos_result = _submit_and_time(
                client, chaos_spec
            )
        finally:
            _stop_daemon(proc, client)

        assert os.path.exists(os.path.join(scratch, "kill-token")), (
            "the injected worker kill never fired"
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Gate: the daemon never changes the answers -- not cold, not warm,
    # not with a worker murdered mid-campaign.
    assert cold_rows == batch_rows, "daemon (cold) changed the evidence"
    assert warm_rows == batch_rows, "daemon (warm) changed the evidence"
    assert chaos_rows == batch_rows, "daemon (chaos) changed the evidence"
    assert chaos_result["service"].get("worker_crashes", 0) >= 1, (
        chaos_result["service"]
    )

    aggregate = {
        "batch_s": batch_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "chaos_s": chaos_s,
        "cold_overhead": cold_s / batch_s - 1.0 if batch_s else 0.0,
        "warm_ratio": warm_s / cold_s if cold_s else 0.0,
        "chaos_inflation": chaos_s / cold_s if cold_s else 0.0,
        "chaos_worker_crashes": chaos_result["service"].get(
            "worker_crashes", 0
        ),
    }

    emit_table(
        "E17",
        "campaign daemon overhead" + (" (quick)" if quick else ""),
        ["mode", "wall (s)", "vs batch", "vs cold"],
        [
            ["batch", f"{batch_s:.3f}", "1.00x", "-"],
            ["daemon cold", f"{cold_s:.3f}",
             f"{cold_s / batch_s:.2f}x", "1.00x"],
            ["daemon warm", f"{warm_s:.3f}",
             f"{warm_s / batch_s:.2f}x", f"{aggregate['warm_ratio']:.2f}x"],
            ["daemon chaos", f"{chaos_s:.3f}",
             f"{chaos_s / batch_s:.2f}x",
             f"{aggregate['chaos_inflation']:.2f}x"],
        ],
        notes=(
            f"Gates: cold <= {COLD_BUDGET:.0%} over batch (noise floor "
            f"{NOISE_FLOOR_S}s), warm no slower than cold, and all three "
            "daemon runs byte-identical to the batch evidence.  The chaos "
            "row includes one injected worker crash "
            f"({aggregate['chaos_worker_crashes']} observed), reclaimed "
            "and retried by the supervisor."
        ),
    )

    overhead_s = cold_s - batch_s
    assert overhead_s <= max(batch_s * COLD_BUDGET, NOISE_FLOOR_S), (
        f"cold daemon campaign costs {aggregate['cold_overhead']:.1%} "
        f"({overhead_s:.3f}s) over the batch sweep "
        f"(budget {COLD_BUDGET:.0%})"
    )
    assert warm_s <= cold_s + NOISE_FLOOR_S, (
        f"warm resubmit ({warm_s:.3f}s) slower than cold ({cold_s:.3f}s): "
        "the verdict store answered nothing"
    )

    report = {"quick": quick, "aggregate": aggregate}
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")
    return report


def test_service_benchmark():
    """Pytest entry point (quick when REPRO_BENCH_QUICK is set)."""
    run_benchmark()


if __name__ == "__main__":
    run_benchmark(quick="--quick" in sys.argv[1:])
