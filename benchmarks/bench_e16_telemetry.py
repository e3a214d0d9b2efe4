"""E16 -- live campaign telemetry overhead and snapshot latency.

The telemetry plane is worker heartbeats, the campaign progress/ETA
engine, and the atomically-replaced ``--status-json`` snapshot.  Its
promise is that watching a campaign is (nearly) free and
*never* changes the answers.  This benchmark prices both halves on
small verification workloads:

* **disabled** -- no monitor anywhere: every instrumented hot path pays
  exactly one ``is None`` check.  Gated against the recorded baseline
  (``BENCH_telemetry_baseline.json``, written on first run): <= 1%
  drift, with an absolute noise floor;
* **enabled**  -- a :class:`~repro.obs.CampaignMonitor` with production
  settings (0.5 s snapshot interval, 0.25 s heartbeats).  Gated at
  <= 3% over the disabled run, same noise floor;
* **snapshot latency** -- the worst single atomic status-file write
  observed while enabled must stay under 100 ms (a stalled write would
  back-pressure the dispatch loop that polls it).

Every row also asserts the enabled run's evidence is **bit-identical**
to the disabled run's -- telemetry must never touch results.

Run modes::

    python benchmarks/bench_e16_telemetry.py            # full suite
    python benchmarks/bench_e16_telemetry.py --quick    # CI-sized suite
    pytest benchmarks/bench_e16_telemetry.py
    REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e16_telemetry.py
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import shutil
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from conftest import RESULTS_DIR, emit_table

from repro.hw import POLICY_FACTORIES
from repro.litmus.catalog import by_name
from repro.obs import CampaignMonitor
from repro.sim.system import SystemConfig
from repro.verify.engine import VerificationEngine

JSON_PATH = RESULTS_DIR / "BENCH_telemetry.json"
BASELINE_PATH = RESULTS_DIR / "BENCH_telemetry_baseline.json"

#: Budget for telemetry-off drift vs the recorded baseline.
DISABLED_BUDGET = 0.01
#: Budget for the enabled monitor over the disabled run.
ENABLED_BUDGET = 0.03
#: Timer/scheduler noise floor: a row aggregate must exceed both the
#: relative budget and this many seconds before a gate trips.
NOISE_FLOOR_S = 0.08
#: Worst tolerated single snapshot write (atomic tmp + replace).
WRITE_LATENCY_BUDGET_US = 100_000


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _time_best(fn: Callable[[], object], repeats: int = 3):
    """Best-of wall-clock over ``repeats`` runs (multi-second rows run
    once: a best-of would double a double-digit-seconds suite)."""
    gc.collect()
    start = time.perf_counter()
    value = fn()
    best = time.perf_counter() - start
    if best > 2.0:
        return best, value
    for _ in range(repeats - 1):
        gc.collect()
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _rows_key(evidence) -> str:
    return json.dumps(evidence.rows, sort_keys=True)


def _workloads(quick: bool) -> List[Tuple[str, Callable]]:
    """(name, run(monitor)) rows: small enough for CI, large enough
    that a 1% gate clears the timer noise floor."""
    seeds = range(8 if quick else 60)
    drf0_seeds = range(4 if quick else 30)
    names = ("MP+sync", "SB") if quick else ("MP+sync", "SB+sync", "SB")
    sweep_programs = [by_name(n).program for n in names]
    factories = {n: POLICY_FACTORIES[n] for n in ("sc", "adve-hill")}

    def sweep(monitor=None):
        engine = VerificationEngine(jobs=1, monitor=monitor)
        return engine.definition2_sweep(
            sweep_programs,
            factories,
            config=SystemConfig(),
            seeds=seeds,
            drf0_seeds=drf0_seeds,
        )

    fuzz_seeds = range(4 if quick else 25)

    def fuzz(monitor=None):
        engine = VerificationEngine(jobs=1, monitor=monitor)
        return engine.fuzz(fuzz_seeds)

    return [("sweep", sweep), ("fuzz", fuzz)]


def run_benchmark(quick: Optional[bool] = None) -> Dict[str, object]:
    if quick is None:
        quick = _quick()
    scratch = tempfile.mkdtemp(prefix="bench-e16-")
    rows: List[Dict[str, object]] = []
    write_us_max = 0
    write_us_total = 0
    writes = 0
    try:
        for name, run in _workloads(quick):
            disabled_s, disabled_out = _time_best(lambda: run())

            monitors: List[CampaignMonitor] = []

            def run_enabled():
                # Production monitor settings; a fresh status path per
                # repeat, so each repeat writes its own snapshot series.
                monitor = CampaignMonitor(
                    os.path.join(
                        scratch, f"{name}-{len(monitors)}.json"
                    ),
                    command=f"bench {name}",
                )
                monitors.append(monitor)
                try:
                    out = run(monitor=monitor)
                finally:
                    monitor.finish(ok=True)
                return out

            enabled_s, enabled_out = _time_best(run_enabled)
            for monitor in monitors:
                write_us_max = max(write_us_max, monitor.write_us_max)
                write_us_total += monitor.write_us_total
                writes += monitor.writes

            # Gate: telemetry never touches results.
            if hasattr(disabled_out, "rows"):
                assert _rows_key(disabled_out) == _rows_key(enabled_out), (
                    f"{name}: enabled telemetry changed the evidence"
                )
            rows.append(
                {
                    "workload": name,
                    "disabled_s": disabled_s,
                    "enabled_s": enabled_s,
                    "enabled_overhead": (
                        enabled_s / disabled_s - 1.0 if disabled_s else 0.0
                    ),
                }
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    total_disabled = sum(r["disabled_s"] for r in rows)
    total_enabled = sum(r["enabled_s"] for r in rows)

    baseline_s = None
    baseline_fresh = False
    if BASELINE_PATH.exists():
        recorded = json.loads(BASELINE_PATH.read_text())
        # A baseline from the other suite size gates nothing useful.
        if recorded.get("quick") == quick:
            baseline_s = recorded.get("total_disabled_s")
    if baseline_s is None:
        # First run on this machine: record the telemetry-off time as
        # the baseline future runs gate their drift against.
        BASELINE_PATH.write_text(
            json.dumps(
                {"total_disabled_s": total_disabled, "quick": quick},
                indent=2,
            )
            + "\n"
        )
        baseline_s = total_disabled
        baseline_fresh = True

    aggregate = {
        "disabled_s": total_disabled,
        "enabled_s": total_enabled,
        "baseline_s": baseline_s,
        "baseline_fresh": baseline_fresh,
        "disabled_drift": (
            total_disabled / baseline_s - 1.0 if baseline_s else 0.0
        ),
        "enabled_overhead": (
            total_enabled / total_disabled - 1.0 if total_disabled else 0.0
        ),
        "snapshot_writes": writes,
        "write_us_mean": write_us_total / writes if writes else 0.0,
        "write_us_max": write_us_max,
    }

    emit_table(
        "E16",
        "telemetry overhead" + (" (quick)" if quick else ""),
        ["workload", "disabled (s)", "enabled (s)", "overhead"],
        [
            [
                r["workload"],
                f"{r['disabled_s']:.4f}",
                f"{r['enabled_s']:.4f}",
                f"{r['enabled_overhead']:+.2%}",
            ]
            for r in rows
        ]
        + [
            [
                "TOTAL",
                f"{total_disabled:.4f}",
                f"{total_enabled:.4f}",
                f"{aggregate['enabled_overhead']:+.2%}",
            ],
            [
                "baseline",
                f"{baseline_s:.4f}" + ("*" if baseline_fresh else ""),
                "-",
                f"{aggregate['disabled_drift']:+.2%} drift",
            ],
        ],
        notes=(
            f"Gates: disabled <= {DISABLED_BUDGET:.0%} over the recorded "
            f"baseline, enabled <= {ENABLED_BUDGET:.0%} over disabled "
            f"(noise floor {NOISE_FLOOR_S}s), worst snapshot write <= "
            f"{WRITE_LATENCY_BUDGET_US / 1000:.0f}ms.  Every row asserts "
            "bit-identical evidence with telemetry on.  "
            f"Snapshot writes: {writes}, mean "
            f"{aggregate['write_us_mean'] / 1000:.2f}ms, max "
            f"{write_us_max / 1000:.2f}ms."
            + ("  (* baseline recorded this run)" if baseline_fresh else "")
        ),
    )

    # Gate: the disabled hot paths stay at one `is None` check.
    drift_s = total_disabled - baseline_s
    assert (
        drift_s <= max(baseline_s * DISABLED_BUDGET, NOISE_FLOOR_S)
    ), (
        f"telemetry-off run drifted {aggregate['disabled_drift']:.1%} "
        f"({drift_s:.3f}s) over the recorded baseline "
        f"(budget {DISABLED_BUDGET:.0%})"
    )

    # Gate: the live monitor is cheap.
    overhead_s = total_enabled - total_disabled
    assert (
        overhead_s <= max(total_disabled * ENABLED_BUDGET, NOISE_FLOOR_S)
    ), (
        f"enabled telemetry costs {aggregate['enabled_overhead']:.1%} "
        f"({overhead_s:.3f}s) over disabled (budget {ENABLED_BUDGET:.0%})"
    )

    # Gate: snapshot writes are bounded.
    assert writes > 0, "enabled runs never wrote a snapshot"
    assert write_us_max <= WRITE_LATENCY_BUDGET_US, (
        f"worst snapshot write took {write_us_max / 1000:.1f}ms "
        f"(budget {WRITE_LATENCY_BUDGET_US / 1000:.0f}ms)"
    )

    report = {"quick": quick, "rows": rows, "aggregate": aggregate}
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")
    return report


def test_telemetry_benchmark():
    """Pytest entry point (quick when REPRO_BENCH_QUICK is set)."""
    run_benchmark()


if __name__ == "__main__":
    run_benchmark(quick="--quick" in sys.argv[1:])
