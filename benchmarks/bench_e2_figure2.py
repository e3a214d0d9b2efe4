"""E2 -- Figure 2: the DRF0 example and counter-example.

Checks the reconstructed Figure-2 executions with both race detectors and
the litmus catalog's programs with the exhaustive Definition-3 checker,
timing the checkers themselves (race detection is the practical cost of
the software side of the contract).
"""

from conftest import emit_table

from repro.core.drf0 import (
    check_program,
    races_in_execution,
    races_in_execution_vc,
)
from repro.litmus import all_tests, figure2a_execution, figure2b_execution


def figure2_rows():
    rows = []
    for name, execution in (
        ("Figure 2(a)", figure2a_execution()),
        ("Figure 2(b)", figure2b_execution()),
    ):
        races = races_in_execution(execution)
        rows.append(
            (
                name,
                len(execution.ops),
                len(races),
                "obeys DRF0" if not races else "violates DRF0",
            )
        )
    return rows


def catalog_rows():
    rows = []
    for test in all_tests():
        report = check_program(test.program)
        rows.append(
            (
                test.name,
                "yes" if report.obeys else "no",
                report.executions_checked,
                str(report.race) if report.race else "-",
            )
        )
    return rows


def test_e2_figure2_executions(benchmark):
    rows = benchmark.pedantic(figure2_rows, rounds=3, iterations=1)
    emit_table(
        "E2",
        "Figure 2 -- example (a) and counter-example (b) of DRF0",
        ["execution", "ops", "races", "verdict"],
        rows,
        notes=(
            "Paper caption: (a) all conflicting accesses ordered by\n"
            "happens-before; (b) P0's x accesses race P1's write, and the\n"
            "y writes of P2 and P4 race."
        ),
    )
    verdicts = {r[0]: r[3] for r in rows}
    assert verdicts["Figure 2(a)"] == "obeys DRF0"
    assert verdicts["Figure 2(b)"] == "violates DRF0"


def test_e2_catalog_drf0_verdicts(benchmark):
    rows = benchmark.pedantic(catalog_rows, rounds=1, iterations=1)
    emit_table(
        "E2b",
        "Definition-3 verdicts over the litmus catalog (exhaustive)",
        ["test", "obeys DRF0", "idealized executions checked", "first race"],
        rows,
    )
    by_name = {r[0]: r[1] for r in rows}
    assert by_name["MP+sync"] == "yes" and by_name["SB"] == "no"


def test_e2_vector_clock_detector_speed(benchmark):
    """Throughput of the fast detector on the larger Figure-2a trace."""
    execution = figure2a_execution()
    races = benchmark(races_in_execution_vc, execution)
    assert races == []
