"""E14 -- the compiled execution engine, three ways against its ancestors.

E10 ended with a regression: the in-place do/undo engine *lost to the
frozen legacy snapshot explorers* on small litmus-sized rows --
exactly the litmus-sized runs every Definition-2 verdict bottoms out in.
:mod:`repro.core.compile` fixes that by compiling each program once into
specialized step closures over packed int state.

This benchmark times all three generations on the E10 grid plus larger
generated rows:

* **legacy** -- the pre-E10 snapshot explorers (:mod:`repro.core._legacy`);
* **interp** -- the interpreted :class:`~repro.core.engine_state.EngineState`
  (forced via :func:`~repro.core.compile.interpreted_engine`);
* **compiled** -- the default :class:`~repro.core.compile.CompiledEngine`.

Every row asserts **bit-identical observable answers** across all three
(result sets, ``complete`` flags, DRF0 verdicts) and, between the two
engine generations, identical exploration counters -- the packed keys
must merge/cut exactly the same nodes the nested keys do.

Hard gates (the point of the E14 change):

* **No row slower than legacy.**  The compiled engine must win or tie on
  *every* (workload, mode) row -- small litmus rows included; that was
  the E10 regression.
* **Large rows >= 2.5x.**  Rows where legacy takes >= 50 ms must show the
  compiled engine at >= 2.5x.
* **Baseline regression.**  The aggregate compiled speedup is compared
  against the checked-in ``BENCH_e14_baseline.json`` and the run fails
  when it regresses by more than 25% (speedup ratios are
  self-normalizing across machines: both sides run in-process).

Run modes::

    python benchmarks/bench_e14_compiled.py            # full suite
    python benchmarks/bench_e14_compiled.py --quick    # CI-sized suite
    pytest benchmarks/bench_e14_compiled.py
    REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e14_compiled.py
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
from repro.core.compile import interpreted_engine
from repro.core.contract import is_sc_result
from repro.core.drf0 import check_program
from repro.core.engine_state import ExplorerStats
from repro.core.sc import ExplorationConfig, explore, sc_results
from repro.litmus.catalog import by_name
from repro.machine.generator import GeneratorConfig, random_program
from repro.machine.program import Program

JSON_PATH = RESULTS_DIR / "BENCH_e14_compiled.json"
BASELINE_PATH = RESULTS_DIR / "BENCH_e14_baseline.json"

REGRESSION_TOLERANCE = 0.25
#: Rows at least this much legacy time are "large" and must show >= 2.5x.
LARGE_ROW_S = 0.05
LARGE_ROW_SPEEDUP = 2.5


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _workloads(quick: bool) -> List[Tuple[str, Program]]:
    """The E10 grid plus deeper generated rows where depth costs bite."""
    names = ["SB", "MP", "LB", "2+2W", "WRC", "IRIW"]
    programs = [(name, by_name(name).program) for name in names]
    if quick:
        gen_cfg = GeneratorConfig(max_threads=3, max_ops_per_thread=4)
        seeds = [(24, gen_cfg)]
    else:
        gen_cfg = GeneratorConfig(max_threads=4, max_ops_per_thread=5)
        deep_cfg = GeneratorConfig(max_threads=3, max_ops_per_thread=7)
        seeds = [(5, gen_cfg), (7, gen_cfg), (33, deep_cfg)]
    for seed, cfg in seeds:
        program = random_program(seed, cfg)
        if program.num_procs >= 3:
            programs.append((f"gen{seed}", program))
    return programs


def _time(fn: Callable[[], object]) -> Tuple[float, object]:
    """Best-of-N wall-clock time with N adapted to the row's size.

    Sub-millisecond rows get enough repeats that the best-of is a stable
    floor (the no-row-slower gate must not trip on timer noise); big rows
    get few (their relative noise is already small).  The first call
    additionally warms per-program caches (closure compilation, program
    metadata) out of the reported time.
    """
    start = time.perf_counter()
    value = fn()
    best = time.perf_counter() - start
    if best < 0.05:
        # Re-measure before choosing the repeat count: the first call may
        # have paid one-time per-program costs (closure compilation, meta
        # caches) that would otherwise make a micro-row look like a big one
        # and leave it with a uselessly shallow best-of.
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    if best < 0.001:
        # ~100 ms budget: micro-rows need a deep best-of to hit their floor.
        repeats = min(700, int(0.1 / max(best, 1e-6)) + 1)
    else:
        repeats = 4 if best < 0.05 else 2
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _bench_modes(name: str, program: Program) -> List[Dict[str, object]]:
    """Time every explorer generation on one program, asserting identity."""
    rows: List[Dict[str, object]] = []

    def row(mode, legacy_s, interp_s, compiled_s, stats: Optional[ExplorerStats]):
        rows.append(
            {
                "workload": name,
                "mode": mode,
                "legacy_s": legacy_s,
                "interp_s": interp_s,
                "compiled_s": compiled_s,
                "speedup_vs_legacy": (
                    legacy_s / compiled_s if compiled_s else float("inf")
                ),
                "speedup_vs_interp": (
                    interp_s / compiled_s if compiled_s else float("inf")
                ),
                "stats": stats.as_dict() if stats is not None else None,
            }
        )

    # Exploration modes: full enumeration, results-only streaming, dedup.
    for mode, cfg in (
        ("naive", ExplorationConfig(dedup=False)),
        ("results", ExplorationConfig(dedup=False, collect_executions=False)),
        ("dedup", ExplorationConfig(dedup=True)),
    ):
        legacy_s, legacy_out = _time(lambda: legacy_explore(program, cfg))
        compiled_s, compiled_out = _time(lambda: explore(program, cfg))
        with interpreted_engine():
            interp_s, interp_out = _time(lambda: explore(program, cfg))
        assert compiled_out.results == interp_out.results == legacy_out.results, (
            f"{name}/{mode}: result sets differ"
        )
        assert (
            compiled_out.complete == interp_out.complete == legacy_out.complete
        )
        assert compiled_out.executions == interp_out.executions, (
            f"{name}/{mode}: executions not bit-identical across engines"
        )
        assert compiled_out.stats.states == interp_out.stats.states, (
            f"{name}/{mode}: packed keys changed the node count"
        )
        row(mode, legacy_s, interp_s, compiled_s, compiled_out.stats)

    # DRF0 verdict over all interleavings.
    legacy_s, legacy_report = _time(lambda: legacy_check_program(program))
    compiled_s, compiled_report = _time(lambda: check_program(program))
    with interpreted_engine():
        interp_s, interp_report = _time(lambda: check_program(program))
    assert (
        compiled_report.obeys == interp_report.obeys == legacy_report.obeys
    ), f"{name}: DRF0 verdicts differ"
    assert compiled_report.race == interp_report.race
    assert compiled_report.witness == interp_report.witness
    row("drf0", legacy_s, interp_s, compiled_s, compiled_report.stats)

    # Guided SC-membership search over the program's own SC set.
    results = sorted(sc_results(program), key=repr)[:4]

    def judge(fn):
        return [fn(program, r) for r in results]

    def contract_with_stats():
        st = ExplorerStats()
        return [is_sc_result(program, r, stats=st) for r in results], st

    legacy_s, legacy_verdicts = _time(lambda: judge(legacy_is_sc_result))
    compiled_s, (compiled_verdicts, stats) = _time(contract_with_stats)
    with interpreted_engine():
        interp_s, interp_verdicts = _time(lambda: judge(is_sc_result))
    assert (
        compiled_verdicts == interp_verdicts == legacy_verdicts
        == [True] * len(results)
    )
    row("contract", legacy_s, interp_s, compiled_s, stats)
    return rows


def _aggregate(rows: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    modes = ["naive", "results", "dedup", "drf0", "contract", "overall"]
    for scope in modes:
        scoped = [r for r in rows if scope == "overall" or r["mode"] == scope]
        legacy_s = sum(r["legacy_s"] for r in scoped)
        interp_s = sum(r["interp_s"] for r in scoped)
        compiled_s = sum(r["compiled_s"] for r in scoped)
        states = sum(r["stats"]["states"] for r in scoped if r["stats"])
        out[scope] = {
            "legacy_s": legacy_s,
            "interp_s": interp_s,
            "compiled_s": compiled_s,
            "speedup_vs_legacy": (
                legacy_s / compiled_s if compiled_s else float("inf")
            ),
            "speedup_vs_interp": (
                interp_s / compiled_s if compiled_s else float("inf")
            ),
            "compiled_states_per_s": (
                states / compiled_s if compiled_s else 0.0
            ),
        }
    return out


def run_benchmark(quick: Optional[bool] = None) -> Dict[str, object]:
    if quick is None:
        quick = _quick()
    rows: List[Dict[str, object]] = []
    for name, program in _workloads(quick):
        rows.extend(_bench_modes(name, program))
    aggregate = _aggregate(rows)

    def fmt_stats(r):
        stats = r["stats"]
        if not stats:
            return "-"
        per_sec = stats["states"] / r["compiled_s"] if r["compiled_s"] else 0.0
        return f"{stats['states']}st {per_sec:,.0f}st/s"

    emit_table(
        "E14",
        "compiled engine vs interpreted engine vs legacy snapshot explorers"
        + (" (quick)" if quick else ""),
        [
            "workload", "mode", "legacy (s)", "interp (s)", "compiled (s)",
            "vs legacy", "vs interp", "compiled stats",
        ],
        [
            [
                r["workload"],
                r["mode"],
                f"{r['legacy_s']:.4f}",
                f"{r['interp_s']:.4f}",
                f"{r['compiled_s']:.4f}",
                f"{r['speedup_vs_legacy']:.2f}x",
                f"{r['speedup_vs_interp']:.2f}x",
                fmt_stats(r),
            ]
            for r in rows
        ]
        + [
            [
                "TOTAL",
                scope,
                f"{agg['legacy_s']:.4f}",
                f"{agg['interp_s']:.4f}",
                f"{agg['compiled_s']:.4f}",
                f"{agg['speedup_vs_legacy']:.2f}x",
                f"{agg['speedup_vs_interp']:.2f}x",
                f"{agg['compiled_states_per_s']:,.0f}st/s",
            ]
            for scope, agg in aggregate.items()
        ],
        notes=(
            "Every row asserts bit-identical result sets / executions / "
            "complete flags / DRF0 verdicts across all three generations, "
            "and identical node counts between the two engines.  Gates: no "
            "row slower than legacy; large rows (legacy >= 50 ms) >= 2.5x."
        ),
    )

    # Gate 1: the E10 regression must stay fixed -- no row loses to legacy.
    losers = [
        r for r in rows if r["speedup_vs_legacy"] < 1.0
    ]
    assert not losers, "compiled engine slower than legacy on: " + ", ".join(
        f"{r['workload']}/{r['mode']} ({r['speedup_vs_legacy']:.2f}x)"
        for r in losers
    )

    # Gate 2: large rows must show the compiled engine's real headroom.
    small_large = [
        r
        for r in rows
        if r["legacy_s"] >= LARGE_ROW_S
        and r["speedup_vs_legacy"] < LARGE_ROW_SPEEDUP
    ]
    assert not small_large, (
        f"large rows under {LARGE_ROW_SPEEDUP}x: " + ", ".join(
            f"{r['workload']}/{r['mode']} ({r['speedup_vs_legacy']:.2f}x)"
            for r in small_large
        )
    )

    report = {"quick": quick, "rows": rows, "aggregate": aggregate}
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")

    # Gate 3: regression vs the checked-in baseline (per suite variant).
    variant = "quick" if quick else "full"
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        base_agg = baseline.get(variant)
        if not isinstance(base_agg, dict):
            print(f"baseline has no '{variant}' aggregate; gate skipped")
        else:
            base = base_agg["overall"]["speedup_vs_legacy"]
            now = aggregate["overall"]["speedup_vs_legacy"]
            floor = base * (1.0 - REGRESSION_TOLERANCE)
            print(
                f"regression gate ({variant}): compiled speedup {now:.2f}x "
                f"vs baseline {base:.2f}x (floor {floor:.2f}x)"
            )
            assert now >= floor, (
                f"compiled-engine speedup regressed: {now:.2f}x is more "
                f"than {REGRESSION_TOLERANCE:.0%} below the baseline "
                f"{base:.2f}x"
            )
    else:
        print(f"no baseline at {BASELINE_PATH}; gate skipped")
    return report


def test_compiled_benchmark():
    """Pytest entry point (quick when REPRO_BENCH_QUICK is set)."""
    run_benchmark()


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    run_benchmark(quick=quick)
