"""E18 -- the incremental axiomatic solver vs the legacy enumerator.

The legacy backend (:mod:`repro.axiomatic.candidates`) walks every
RMW-atomic (rf, co) combination -- factorial in the writes per location
-- and only then filters by value resolution and the model axioms.  The
solver (:mod:`repro.axiomatic.solver`) extends partial assignments one
decision at a time under incremental cycle detection and propagation, so
inconsistent subtrees die at their first bad edge.

Each row times one workload through **all four models** (SC, COHERENCE,
TSO, WO-DRF0) on both backends and asserts the result sets are
**bit-identical per model** -- the same equivalence the test suite and
the ``repro diff`` campaign check, measured here at benchmark scale.
WO-DRF0's operational DRF0 verdict is primed outside the timed region so
both backends are charged only for the axiomatic work.

Timing: each row runs the two backends in interleaved pairs (the order
alternating from pair to pair), so host drift lands on both sides alike.
A first pair, not recorded, sizes the row: in every later pair the
faster backend runs as a batch of calls about as long as one call of the
slower one, so both samples of a pair span the same stretch of host
speed (a deep row's solver call is ~1/50 of its enumerator call), and a
sample is seconds per call.  A row gets as many pairs as fit in about
:data:`ROW_BUDGET_S`, at least :data:`MIN_PAIRS` and at most
:data:`MAX_PAIRS`.  Each side's time is the median of its samples, and
the row's speedup is the ratio of the two medians; the quartiles are
recorded next to them.

Hard gates (the point of the E18 change), all on those medians:

* **No row slower.**  The solver's median must not exceed the
  enumerator's on *any* workload -- litmus-sized rows included, where
  the enumerator's cross product is tiny and the solver's machinery
  could plausibly lose.  No tolerance margin.
* **Deep rows >= 10x.**  Rows marked deep (>= 6 writes to one location,
  where the co permutation count explodes) must show >= 10x.
* **Baseline regression.**  The aggregate speedup (sum of the rows'
  enumerator medians over the sum of their solver medians) is compared
  against the checked-in ``BENCH_e18_baseline.json`` and the run fails
  when it regresses by more than 25% (speedup ratios are
  self-normalizing across machines: both sides run in-process).

The full suite then runs a differential campaign
(:func:`repro.verify.diff.diff_campaign`) over 200 generated programs --
solver vs enumerator vs operational explorer vs hardware simulator --
and asserts zero disagreements; quick mode runs a 25-program smoke
campaign of the same shape.

Run modes::

    python benchmarks/bench_e18_axiomatic.py            # full suite
    python benchmarks/bench_e18_axiomatic.py --quick    # CI-sized suite
    pytest benchmarks/bench_e18_axiomatic.py
    REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e18_axiomatic.py
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from conftest import RESULTS_DIR, emit_table

from repro.axiomatic import (
    CoherenceModel,
    SCModel,
    TSOModel,
    WeakOrderingDRF,
    allowed_results,
)
from repro.litmus.catalog import by_name
from repro.machine.dsl import ThreadBuilder, build_program
from repro.machine.program import Program
from repro.verify.diff import diff_campaign

JSON_PATH = RESULTS_DIR / "BENCH_e18_axiomatic.json"
BASELINE_PATH = RESULTS_DIR / "BENCH_e18_baseline.json"

REGRESSION_TOLERANCE = 0.25
#: Rows flagged deep (co-permutation blowup) must show at least this.
DEEP_ROW_SPEEDUP = 10.0
#: Interleaved (solver, enumerator) pairs per row: as many as fit in
#: about ``ROW_BUDGET_S`` seconds, clamped to [MIN_PAIRS, MAX_PAIRS].
ROW_BUDGET_S = 0.4
MIN_PAIRS = 3
MAX_PAIRS = 400


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _deep_program(writes: int) -> Program:
    """``writes`` stores to one location across 3 threads, plus 2 loads.

    One hot location is the enumerator's worst case: its candidate count
    carries a ``writes!`` coherence-permutation factor, while the solver
    prunes each coherence prefix the moment it contradicts an axiom.
    """
    threads = [ThreadBuilder() for _ in range(3)]
    for i in range(writes):
        threads[i % 3].store("x", i + 1)
    threads[0].load("r0", "x")
    threads[2].load("r1", "x")
    return build_program(threads, name=f"deep{writes}")


def _workloads(quick: bool) -> List[Tuple[str, Program, bool]]:
    """(name, program, deep) rows: the litmus grid plus deep-co rows."""
    names = ["SB", "SB+fence", "MP", "LB", "2+2W", "CoRR", "TAS"]
    rows: List[Tuple[str, Program, bool]] = [
        (name, by_name(name).program, False) for name in names
    ]
    rows.append(("deep6", _deep_program(6), True))
    if not quick:
        rows.append(("deep7", _deep_program(7), True))
    return rows


def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _per_call(fn: Callable[[], object], calls: int) -> float:
    """Seconds per call over ``calls`` back-to-back calls of ``fn``."""
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def _spread(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of one side's samples."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _interleaved(
    solver: Callable[[], object], enum: Callable[[], object]
) -> Tuple[List[float], List[float], object, object]:
    """Time both backends in alternating pairs.

    Returns each side's samples (seconds per call) and the values of its
    first call.  The first pair only sizes the row: each side's batch
    (the faster side's calls add up to about one call of the slower
    side) and the number of pairs.
    """
    solver_s, solver_value = _timed(solver)
    enum_s, enum_value = _timed(enum)
    solver_calls = max(1, round(enum_s / solver_s))
    enum_calls = max(1, round(solver_s / enum_s))
    pair_s = solver_calls * solver_s + enum_calls * enum_s
    pairs = max(MIN_PAIRS, min(MAX_PAIRS, int(ROW_BUDGET_S / pair_s)))
    solver_samples: List[float] = []
    enum_samples: List[float] = []
    for pair in range(pairs):
        if pair % 2:
            enum_samples.append(_per_call(enum, enum_calls))
            solver_samples.append(_per_call(solver, solver_calls))
        else:
            solver_samples.append(_per_call(solver, solver_calls))
            enum_samples.append(_per_call(enum, enum_calls))
    return solver_samples, enum_samples, solver_value, enum_value


def _bench_row(name: str, program: Program, deep: bool) -> Dict[str, object]:
    """Time all four models through both backends on one program."""
    wo = WeakOrderingDRF()
    drf0 = wo.program_is_drf0(program)  # primed outside the timed region
    models = [SCModel(), CoherenceModel(), TSOModel(), wo]

    def run(backend: str) -> Dict[str, frozenset]:
        return {
            model.name: allowed_results(program, model, backend=backend)
            for model in models
        }

    solver_samples, enum_samples, solver_sets, enum_sets = _interleaved(
        lambda: run("solver"), lambda: run("enumerator")
    )
    for model in models:
        assert solver_sets[model.name] == enum_sets[model.name], (
            f"{name} under {model.name}: backends disagree "
            f"({len(solver_sets[model.name])} vs "
            f"{len(enum_sets[model.name])} results)"
        )
    enum, solver = _spread(enum_samples), _spread(solver_samples)
    return {
        "workload": name,
        "deep": deep,
        "drf0": drf0,
        "pairs": len(solver_samples),
        "enum_s": enum["median"],
        "solver_s": solver["median"],
        "enum_q": [enum["q1"], enum["q3"]],
        "solver_q": [solver["q1"], solver["q3"]],
        "speedup": (
            enum["median"] / solver["median"]
            if solver["median"]
            else float("inf")
        ),
        "results": {m.name: len(solver_sets[m.name]) for m in models},
    }


def run_benchmark(quick: Optional[bool] = None) -> Dict[str, object]:
    if quick is None:
        quick = _quick()
    rows = [
        _bench_row(name, program, deep)
        for name, program, deep in _workloads(quick)
    ]

    enum_total = sum(r["enum_s"] for r in rows)
    solver_total = sum(r["solver_s"] for r in rows)
    aggregate = {
        "enum_s": enum_total,
        "solver_s": solver_total,
        "speedup": enum_total / solver_total if solver_total else float("inf"),
    }

    def fmt_iqr(q):
        return f"[{q[0]:.4f}, {q[1]:.4f}]"

    def fmt_results(r):
        return "/".join(
            str(r["results"][m])
            for m in ("SC", "COHERENCE", "TSO", "WO-DRF0")
        )

    emit_table(
        "E18",
        "incremental axiomatic solver vs legacy enumerator"
        + (" (quick)" if quick else ""),
        [
            "workload", "deep", "drf0", "pairs", "enum (s)", "enum IQR",
            "solver (s)", "solver IQR", "speedup", "results SC/COH/TSO/WO",
        ],
        [
            [
                r["workload"],
                "yes" if r["deep"] else "-",
                "yes" if r["drf0"] else "racy",
                r["pairs"],
                f"{r['enum_s']:.4f}",
                fmt_iqr(r["enum_q"]),
                f"{r['solver_s']:.4f}",
                fmt_iqr(r["solver_q"]),
                f"{r['speedup']:.2f}x",
                fmt_results(r),
            ]
            for r in rows
        ]
        + [
            [
                "TOTAL", "-", "-", "-",
                f"{aggregate['enum_s']:.4f}", "-",
                f"{aggregate['solver_s']:.4f}", "-",
                f"{aggregate['speedup']:.2f}x",
                "-",
            ]
        ],
        notes=(
            "Each row times all four models through both backends in "
            "interleaved pairs and asserts bit-identical result sets per "
            "model; times are medians over the pairs, IQR the quartiles, "
            "speedup the ratio of the medians.  Gates: the solver's "
            f"median loses on no row; deep rows >= {DEEP_ROW_SPEEDUP:.0f}x."
        ),
    )

    # Gate 1: the solver's median must win or tie everywhere, micro rows
    # included.
    losers = [r for r in rows if r["speedup"] < 1.0]
    assert not losers, "solver slower than enumerator on: " + ", ".join(
        f"{r['workload']} ({r['speedup']:.2f}x)" for r in losers
    )

    # Gate 2: deep rows are where the pruning must actually pay.
    shallow = [
        r for r in rows if r["deep"] and r["speedup"] < DEEP_ROW_SPEEDUP
    ]
    assert not shallow, (
        f"deep rows under {DEEP_ROW_SPEEDUP:.0f}x: " + ", ".join(
            f"{r['workload']} ({r['speedup']:.2f}x)" for r in shallow
        )
    )

    # Differential campaign: the solver's correctness contract at scale.
    programs = 25 if quick else 200
    start = time.perf_counter()
    report = diff_campaign(range(programs))
    diff_s = time.perf_counter() - start
    print(
        f"diff campaign: {report.programs_run} programs, "
        f"{report.comparisons} comparisons, {report.hardware_runs} "
        f"hardware runs in {diff_s:.1f}s"
    )
    assert report.ok, (
        f"differential campaign found {len(report.disagreements)} "
        "disagreements: " + "; ".join(
            f"seed {d.seed} [{d.kind}] {d.detail}"
            for d in report.disagreements
        )
    )

    out = {
        "quick": quick,
        "rows": rows,
        "aggregate": aggregate,
        "diff_campaign": {
            "programs_run": report.programs_run,
            "comparisons": report.comparisons,
            "hardware_runs": report.hardware_runs,
            "seconds": diff_s,
            "ok": report.ok,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")

    # Gate 3: regression vs the checked-in baseline (per suite variant).
    variant = "quick" if quick else "full"
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        base_agg = baseline.get(variant)
        if not isinstance(base_agg, dict):
            print(f"baseline has no '{variant}' aggregate; gate skipped")
        else:
            base = base_agg["speedup"]
            now = aggregate["speedup"]
            floor = base * (1.0 - REGRESSION_TOLERANCE)
            print(
                f"regression gate ({variant}): solver speedup {now:.2f}x "
                f"vs baseline {base:.2f}x (floor {floor:.2f}x)"
            )
            assert now >= floor, (
                f"solver speedup regressed: {now:.2f}x is more than "
                f"{REGRESSION_TOLERANCE:.0%} below the baseline "
                f"{base:.2f}x"
            )
    else:
        print(f"no baseline at {BASELINE_PATH}; gate skipped")
    return out


def test_axiomatic_benchmark():
    """Pytest entry point (quick when REPRO_BENCH_QUICK is set)."""
    run_benchmark()


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    run_benchmark(quick=quick)
