"""E10 -- the in-place do/undo exploration core, before vs after.

The shared transition engine (:mod:`repro.core.engine_state`) replaced the
copy-everything snapshot loops inside the naive enumerator, the DRF0
checker, and the guided SC-membership search.  This benchmark times the
frozen pre-change enumerators (:mod:`repro.core._legacy`) against the
engine-based ones on the same exhaustive-exploration workloads and checks,
on every row, that the two sides produce **bit-identical observable
answers**: equal SC result sets, equal ``complete`` flags, and equal DRF0
verdicts.

Output:

* a human-readable speedup table (``benchmarks/results/E10.txt``);
* a machine-readable ``benchmarks/results/BENCH_explorer.json`` with
  per-row timings and the new engine's exploration counters;
* a regression gate: the aggregate speedup is compared against the
  checked-in ``BENCH_explorer_baseline.json`` and the run **fails** when it
  regresses by more than 25%.  Comparing speedup *ratios* (not absolute
  times) makes the gate self-normalizing across machines: both sides of
  every ratio run in the same process on the same host.

Run modes::

    python benchmarks/bench_e10_explorer.py            # full suite
    python benchmarks/bench_e10_explorer.py --quick    # CI-sized suite
    pytest benchmarks/bench_e10_explorer.py            # full suite
    REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e10_explorer.py
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from conftest import RESULTS_DIR, emit_table

from repro.core._legacy import (
    legacy_check_program,
    legacy_explore,
    legacy_is_sc_result,
)
from repro.core.contract import is_sc_result
from repro.core.drf0 import check_program
from repro.core.engine_state import ExplorerStats
from repro.core.sc import ExplorationConfig, explore, sc_results
from repro.litmus.catalog import by_name
from repro.machine.generator import GeneratorConfig, random_program
from repro.machine.program import Program

JSON_PATH = RESULTS_DIR / "BENCH_explorer.json"
BASELINE_PATH = RESULTS_DIR / "BENCH_explorer_baseline.json"

#: Fail the gate when the aggregate speedup drops below this fraction of
#: the checked-in baseline's.
REGRESSION_TOLERANCE = 0.25


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _workloads(quick: bool) -> List[Tuple[str, Program]]:
    """Exhaustive-exploration workloads: E6-class litmus + generated."""
    names = ["SB", "MP", "LB", "2+2W", "WRC", "IRIW"]
    programs = [(name, by_name(name).program) for name in names]
    gen_cfg = GeneratorConfig(max_threads=3 if quick else 4,
                              max_ops_per_thread=4 if quick else 5)
    for seed in (24,) if quick else (5, 7):
        program = random_program(seed, gen_cfg)
        if program.num_procs >= 3:
            programs.append((f"gen{seed}", program))
    return programs


def _time(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall-clock time and the (last) return value.

    Sub-millisecond rows get a ~100 ms best-of budget instead: at that
    scale a handful of repeats still sits well above the true floor, and
    litmus-sized rows are exactly where the small-program regression
    lived, so their numbers must not be timer noise.
    """
    start = time.perf_counter()
    value: object = fn()
    best = time.perf_counter() - start
    if best < 0.05:
        # Re-measure before choosing the repeat depth: the first call may
        # have paid one-time per-program costs (closure compilation, meta
        # caches) that would make a micro-row look big enough to skip the
        # deep best-of it needs.
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    if best < 0.001:
        repeats = min(700, int(0.1 / max(best, 1e-6)) + 1)
    for _ in range(repeats - 1):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _bench_modes(
    name: str, program: Program, repeats: int
) -> List[Dict[str, object]]:
    """Time every (legacy, new) explorer pair on one program.

    Each row asserts the observable answers are bit-identical before it is
    reported -- a speedup over a wrong answer is worthless.
    """
    rows: List[Dict[str, object]] = []
    cfg_naive = ExplorationConfig(dedup=False)
    cfg_dedup = ExplorationConfig(dedup=True)

    def row(mode, legacy_s, new_s, stats: Optional[ExplorerStats]):
        rows.append(
            {
                "workload": name,
                "mode": mode,
                "legacy_s": legacy_s,
                "new_s": new_s,
                "speedup": legacy_s / new_s if new_s else float("inf"),
                "stats": stats.as_dict() if stats is not None else None,
            }
        )

    # Naive enumeration of every interleaving (sc_executions-style).
    legacy_s, legacy_out = _time(lambda: legacy_explore(program, cfg_naive), repeats)
    new_s, new_out = _time(lambda: explore(program, cfg_naive), repeats)
    assert legacy_out.results == new_out.results, f"{name}: naive result sets differ"
    assert legacy_out.complete == new_out.complete
    assert len(legacy_out.executions) == len(new_out.executions)
    row("naive", legacy_s, new_s, new_out.stats)

    # Deduplicated result-set exploration (sc_results-style).
    legacy_s, legacy_out = _time(lambda: legacy_explore(program, cfg_dedup), repeats)
    new_s, new_out = _time(lambda: explore(program, cfg_dedup), repeats)
    assert legacy_out.results == new_out.results, f"{name}: dedup result sets differ"
    assert legacy_out.complete == new_out.complete
    row("dedup", legacy_s, new_s, new_out.stats)

    # DRF0 verdict over all interleavings, race-checked as produced.
    legacy_s, legacy_report = _time(lambda: legacy_check_program(program), repeats)
    new_s, new_report = _time(lambda: check_program(program), repeats)
    assert legacy_report.obeys == new_report.obeys, f"{name}: DRF0 verdicts differ"
    row("drf0", legacy_s, new_s, new_report.stats)

    # Guided SC-membership search, judged over the program's own SC set.
    results = sorted(sc_results(program), key=repr)[:4]

    def judge_new():
        st = ExplorerStats()
        return [is_sc_result(program, r, stats=st) for r in results], st

    def judge_legacy():
        return [legacy_is_sc_result(program, r) for r in results]

    legacy_s, legacy_verdicts = _time(judge_legacy, repeats)
    new_s, (new_verdicts, stats) = _time(judge_new, repeats)
    assert legacy_verdicts == new_verdicts == [True] * len(results)
    row("contract", legacy_s, new_s, stats)
    return rows


def _aggregate(rows: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Per-mode and overall totals (total legacy time / total new time)."""
    out: Dict[str, Dict[str, float]] = {}
    for scope in ["naive", "dedup", "drf0", "contract", "overall"]:
        scoped = [
            r for r in rows if scope == "overall" or r["mode"] == scope
        ]
        legacy_s = sum(r["legacy_s"] for r in scoped)
        new_s = sum(r["new_s"] for r in scoped)
        out[scope] = {
            "legacy_s": legacy_s,
            "new_s": new_s,
            "speedup": legacy_s / new_s if new_s else float("inf"),
        }
    return out


def run_benchmark(quick: Optional[bool] = None) -> Dict[str, object]:
    """Run the suite, emit the table + JSON, and apply the regression gate."""
    if quick is None:
        quick = _quick()
    # Best-of-2 even in quick mode: the first engine call on a program
    # pays its one-time closure compilation, which would otherwise be
    # charged entirely to the first row (naive) of each workload.
    repeats = 2 if quick else 3
    rows: List[Dict[str, object]] = []
    for name, program in _workloads(quick):
        rows.extend(_bench_modes(name, program, repeats))
    aggregate = _aggregate(rows)

    def fmt_stats(r):
        stats = r["stats"]
        if not stats:
            return "-"
        per_sec = stats["states"] / r["new_s"] if r["new_s"] else 0.0
        return f"{stats['states']}st {per_sec:,.0f}st/s"

    emit_table(
        "E10",
        "in-place do/undo engine vs legacy snapshot explorers"
        + (" (quick)" if quick else ""),
        ["workload", "mode", "legacy (s)", "engine (s)", "speedup", "engine stats"],
        [
            [
                r["workload"],
                r["mode"],
                f"{r['legacy_s']:.4f}",
                f"{r['new_s']:.4f}",
                f"{r['speedup']:.2f}x",
                fmt_stats(r),
            ]
            for r in rows
        ]
        + [
            [
                "TOTAL",
                scope,
                f"{agg['legacy_s']:.4f}",
                f"{agg['new_s']:.4f}",
                f"{agg['speedup']:.2f}x",
                "",
            ]
            for scope, agg in aggregate.items()
        ],
        notes=(
            "Every row asserts bit-identical result sets / complete flags / "
            "DRF0 verdicts between the legacy and engine explorers."
        ),
    )

    report = {"quick": quick, "rows": rows, "aggregate": aggregate}
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")

    # Acceptance: the exhaustive-exploration mode must show the >=2x
    # speedup the refactor was for (checked on the full suite; the quick
    # suite is dominated by fixed per-call overhead on tiny programs).
    if not quick:
        speedup = aggregate["naive"]["speedup"]
        assert speedup >= 2.0, f"naive aggregate speedup {speedup:.2f}x < 2x"

    # Regression gate vs the checked-in baseline.  The baseline keeps one
    # aggregate per suite variant (the quick and full suites time different
    # workloads, so their ratios are not comparable to each other).
    variant = "quick" if quick else "full"
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        base_agg = baseline.get(variant)
        if not isinstance(base_agg, dict):
            print(f"baseline has no '{variant}' aggregate; gate skipped")
        else:
            base = base_agg["overall"]["speedup"]
            now = aggregate["overall"]["speedup"]
            floor = base * (1.0 - REGRESSION_TOLERANCE)
            print(
                f"regression gate ({variant}): overall speedup {now:.2f}x "
                f"vs baseline {base:.2f}x (floor {floor:.2f}x)"
            )
            assert now >= floor, (
                f"explorer speedup regressed: {now:.2f}x is more than "
                f"{REGRESSION_TOLERANCE:.0%} below the baseline {base:.2f}x"
            )
    else:
        print(f"no baseline at {BASELINE_PATH}; gate skipped")
    return report


def test_explorer_benchmark():
    """Pytest entry point (quick when REPRO_BENCH_QUICK is set)."""
    run_benchmark()


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    run_benchmark(quick=quick)
