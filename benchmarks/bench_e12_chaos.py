"""E12 -- chaos: Definition-2 verdicts under a hostile memory system.

Runs the full chaos suite (:func:`repro.verify.chaos.chaos_sweep`): a
fault-free baseline Definition-2 sweep, one full sweep per named
delivery-preserving fault plan (the verdict map must match the baseline
bit-for-bit), and per-run probes of both delivery-violating plans (every
non-completing probe must end in a diagnosed ``LivenessError``, never a
hang).  The run **fails** if any verdict moves or any probe escapes
undiagnosed -- this is the paper's "results, not timings" claim under
adversarial hardware.

Output: ``benchmarks/results/E12.txt`` (plan table) and
``benchmarks/results/E12_chaos.json`` (the full JSON report).

Run modes::

    python benchmarks/bench_e12_chaos.py            # full suite
    python benchmarks/bench_e12_chaos.py --quick    # CI-sized suite
    pytest benchmarks/bench_e12_chaos.py
    REPRO_BENCH_QUICK=1 pytest benchmarks/bench_e12_chaos.py
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from conftest import RESULTS_DIR, emit_table

from repro.verify.chaos import chaos_sweep
from repro.verify.engine import VerificationEngine


def run(quick: bool = False) -> None:
    start = time.perf_counter()
    report = chaos_sweep(VerificationEngine(jobs=0), quick=quick)
    elapsed = time.perf_counter() - start

    rows = []
    for outcome in report.outcomes:
        if outcome.delivery_preserving:
            verdict = "MATCH" if outcome.verdicts_match else "MISMATCH"
            detail = f"{sum(outcome.fault_events.values())} fault events"
        else:
            verdict = f"{outcome.flagged}/{outcome.runs} flagged"
            detail = f"{outcome.completed} completed, " + (
                "clean" if not outcome.unexpected_errors else "ESCAPED"
            )
        rows.append(
            (
                outcome.plan,
                "preserving" if outcome.delivery_preserving else "VIOLATING",
                verdict,
                detail,
            )
        )

    emit_table(
        "E12",
        "verdict invariance under fault injection "
        f"({len(report.programs)} programs x {len(report.policies)} "
        f"policies x {report.seeds} seeds per plan)",
        ["fault plan", "delivery", "verdicts", "detail"],
        rows,
        notes=(
            f"invariance {'HOLDS' if report.invariance_holds else 'BROKEN'}; "
            f"liveness detection "
            f"{'SOUND' if report.watchdog_sound else 'BROKEN'}; "
            f"{elapsed:.1f}s"
        ),
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "E12_chaos.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    assert report.invariance_holds, "a delivery-preserving plan moved a verdict"
    assert report.watchdog_sound, "a delivery-violating probe escaped"


def test_e12_chaos() -> None:
    run(quick=bool(os.environ.get("REPRO_BENCH_QUICK")))


if __name__ == "__main__":
    run(quick="--quick" in sys.argv[1:])
