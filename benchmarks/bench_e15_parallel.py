"""E15 -- intra-cell parallel exploration vs the serial compiled engine.

E14 made the serial engine fast; E15 makes one *exploration* scale.
:mod:`repro.core.parallel` shards a single query (result-set
enumeration, DPOR) across a fork pool of compiled engines: phase 1
enumerates a deterministic prefix frontier, phase 2 dispatches
subtrees, phase 3 merges -- and source-DPOR workers
feed newly discovered backtrack points back to the coordinator as steal
reports, with sleep-set seeds keeping stolen subtrees disjoint.

Every row runs three ways:

* **serial**  -- the plain compiled engine (``explore_jobs`` unset);
* **jobs=1**  -- ``explore_jobs=1``, which must take the serial path;
* **jobs=N**  -- ``explore_jobs=max(2, cpu_count)``, the sharded path
  (forced >= 2 so sharding engages even on one core).

Hard gates:

* **Bit-identical answers** on every row, always: sharded result sets /
  verdicts must equal serial exactly (merges are order-independent).
* **``jobs=1`` within 5%** of serial on the row aggregate, always: the
  knob must be free when it is off.
* **Deep rows >= 1.8x** (serial >= 1 s), *only on 2+-core runners*: on a
  single core the sharded run cannot beat serial, so the speedup is
  reported but not gated.

Run modes::

    python benchmarks/bench_e15_parallel.py            # full suite
    python benchmarks/bench_e15_parallel.py --quick    # CI-sized suite
    pytest benchmarks/bench_e15_parallel.py
    REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e15_parallel.py
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from conftest import RESULTS_DIR, emit_table

from repro.core import parallel
from repro.core.dpor import sc_results_dpor
from repro.core.sc import ExplorationConfig, sc_results
from repro.litmus.catalog import by_name
from repro.machine.generator import GeneratorConfig, random_program

JSON_PATH = RESULTS_DIR / "BENCH_e15_parallel.json"

#: Rows at least this much serial time are "deep" and carry the speedup gate.
DEEP_ROW_S = 1.0
DEEP_ROW_SPEEDUP = 1.8
JOBS1_TOLERANCE = 0.05


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _jobs() -> int:
    return max(2, os.cpu_count() or 1)


def _time(fn: Callable[[], object]) -> Tuple[float, object]:
    """Best-of wall-clock time, adapted to the row's size.

    Multi-second rows are measured once (a best-of would double a
    double-digit-seconds suite) and are excluded from the 5% jobs=1
    gate -- a single measurement of a 10 s row routinely wobbles more
    than 5% from allocator and scheduler noise alone.  Fast rows get
    the E14-style adaptive best-of, which is stable enough to gate.
    """
    gc.collect()
    start = time.perf_counter()
    value = fn()
    best = time.perf_counter() - start
    if best > 2.0:
        return best, value
    if best < 0.05:
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    if best < 0.001:
        repeats = min(700, int(0.1 / max(best, 1e-6)) + 1)
    else:
        repeats = 4 if best < 0.05 else 2
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _workloads(quick: bool) -> List[Tuple[str, str, Callable]]:
    """(name, mode, factory) rows.  The factory takes an optional
    ``explore_jobs`` and returns the row's observable answer."""
    rows: List[Tuple[str, str, Callable]] = []

    def results_row(name):
        program = by_name(name).program

        def run(jobs=None):
            cfg = ExplorationConfig() if jobs is None else ExplorationConfig(
                explore_jobs=jobs
            )
            return sc_results(program, cfg)

        return (name, "results", run)

    rows.append(results_row("SB"))
    rows.append(results_row("MP+sync"))

    gen33 = random_program(
        33, GeneratorConfig(max_threads=3, max_ops_per_thread=7)
    )
    rows.append(
        (
            "gen33",
            "dpor",
            lambda jobs=None: sc_results_dpor(
                gen33,
                config=(
                    ExplorationConfig()
                    if jobs is None
                    else ExplorationConfig(explore_jobs=jobs)
                ),
            ),
        )
    )

    if not quick:
        # Deep rows: serial >= 1 s, where the speedup gate has teeth.
        gen37 = random_program(
            37, GeneratorConfig(max_threads=3, max_ops_per_thread=12)
        )
        deep_caps = dict(max_ops=800, max_states=20_000_000)
        rows.append(
            (
                "gen37",
                "dpor-deep",
                lambda jobs=None: sc_results_dpor(
                    gen37,
                    config=(
                        ExplorationConfig(**deep_caps)
                        if jobs is None
                        else ExplorationConfig(explore_jobs=jobs, **deep_caps)
                    ),
                ),
            )
        )
    return rows


def run_benchmark(quick: Optional[bool] = None) -> Dict[str, object]:
    if quick is None:
        quick = _quick()
    jobs = _jobs()
    multicore = (os.cpu_count() or 1) >= 2
    rows: List[Dict[str, object]] = []

    for name, mode, factory in _workloads(quick):
        serial_s, serial_out = _time(lambda: factory())
        jobs1_s, jobs1_out = _time(lambda: factory(jobs=1))
        jobsn_s, jobsn_out = _time(lambda: factory(jobs=jobs))
        sstats = parallel.LAST_SHARD_STATS
        # Gate: merged sharded output bit-identical to serial, per row.
        assert serial_out == jobs1_out, f"{name}/{mode}: jobs=1 diverged"
        assert serial_out == jobsn_out, (
            f"{name}/{mode}: sharded answer differs from serial"
        )
        rows.append(
            {
                "workload": name,
                "mode": mode,
                "serial_s": serial_s,
                "jobs1_s": jobs1_s,
                "jobsn_s": jobsn_s,
                "speedup": serial_s / jobsn_s if jobsn_s else float("inf"),
                "deep": serial_s >= DEEP_ROW_S,
                "shards": sstats.shards if sstats else 0,
                "steals": sstats.steals if sstats else 0,
                "shard_states": sstats.total_shard_states if sstats else 0,
            }
        )

    total_serial = sum(r["serial_s"] for r in rows)
    total_jobs1 = sum(r["jobs1_s"] for r in rows)
    total_jobsn = sum(r["jobsn_s"] for r in rows)
    # The jobs=1 gate aggregates only best-of-measured rows; see _time.
    gated = [r for r in rows if r["serial_s"] <= 2.0]
    gated_serial = sum(r["serial_s"] for r in gated)
    gated_jobs1 = sum(r["jobs1_s"] for r in gated)
    aggregate = {
        "serial_s": total_serial,
        "jobs1_s": total_jobs1,
        "jobsn_s": total_jobsn,
        "jobs1_overhead": (
            gated_jobs1 / gated_serial - 1.0 if gated_serial else 0.0
        ),
        "speedup": total_serial / total_jobsn if total_jobsn else float("inf"),
        "jobs": jobs,
        "cpus": os.cpu_count() or 1,
    }

    emit_table(
        "E15",
        f"intra-cell parallel exploration, jobs={jobs} on "
        f"{aggregate['cpus']} cpu(s)" + (" (quick)" if quick else ""),
        [
            "workload", "mode", "serial (s)", "jobs=1 (s)",
            f"jobs={jobs} (s)", "speedup", "shards", "steals", "shard st",
        ],
        [
            [
                r["workload"],
                r["mode"] + ("*" if r["deep"] else ""),
                f"{r['serial_s']:.4f}",
                f"{r['jobs1_s']:.4f}",
                f"{r['jobsn_s']:.4f}",
                f"{r['speedup']:.2f}x",
                str(r["shards"]),
                str(r["steals"]),
                str(r["shard_states"]),
            ]
            for r in rows
        ]
        + [
            [
                "TOTAL",
                "overall",
                f"{total_serial:.4f}",
                f"{total_jobs1:.4f}",
                f"{total_jobsn:.4f}",
                f"{aggregate['speedup']:.2f}x",
                "-",
                "-",
                "-",
            ]
        ],
        notes=(
            "Every row asserts bit-identical answers across serial / "
            "jobs=1 / sharded.  jobs=1 must stay within 5% of serial.  "
            "Deep rows (*) carry a >= 1.8x gate on 2+-core runners; on "
            "one core the speedup is report-only."
        ),
    )

    # Gate: explore_jobs=1 is the serial path; the knob must be free.
    assert aggregate["jobs1_overhead"] <= JOBS1_TOLERANCE, (
        f"explore_jobs=1 costs {aggregate['jobs1_overhead']:.1%} over "
        f"serial (budget {JOBS1_TOLERANCE:.0%})"
    )

    # Gate: deep rows must scale -- but only where there are cores.
    deep_rows = [r for r in rows if r["deep"]]
    if multicore:
        slow = [r for r in deep_rows if r["speedup"] < DEEP_ROW_SPEEDUP]
        assert not slow, (
            f"deep rows under {DEEP_ROW_SPEEDUP}x on a "
            f"{aggregate['cpus']}-core runner: " + ", ".join(
                f"{r['workload']}/{r['mode']} ({r['speedup']:.2f}x)"
                for r in slow
            )
        )
    elif deep_rows:
        print(
            "single-core runner: deep-row speedup gate skipped "
            "(report-only): " + ", ".join(
                f"{r['workload']} {r['speedup']:.2f}x" for r in deep_rows
            )
        )

    report = {"quick": quick, "rows": rows, "aggregate": aggregate}
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")
    return report


def test_parallel_benchmark():
    """Pytest entry point (quick when REPRO_BENCH_QUICK is set)."""
    run_benchmark()


if __name__ == "__main__":
    run_benchmark(quick="--quick" in sys.argv[1:])
