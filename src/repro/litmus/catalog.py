"""Litmus-test catalog: the paper's figures plus the classic suite.

Each :class:`LitmusTest` bundles a program, a human-readable description,
the *interesting* outcome (as a predicate over results), and the expected
verdicts: whether the outcome is sequentially consistent and whether the
program obeys DRF0.  The harness (:mod:`repro.litmus.harness`) runs the
catalog against the idealized architecture, the axiomatic models, and the
hardware implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.core.execution import Result
from repro.core.types import Condition
from repro.machine.dsl import ThreadBuilder, build_program
from repro.machine.program import Program


@dataclass(frozen=True)
class LitmusTest:
    """One litmus test with its interesting outcome."""

    name: str
    description: str
    program: Program
    #: Predicate picking out the interesting ("exists") outcome.
    outcome: Callable[[Result], bool]
    #: Whether sequential consistency allows the interesting outcome.
    sc_allows: bool
    #: Whether the program obeys DRF0 (Definition 3).
    drf0: bool

    def outcome_observed(self, results) -> bool:
        """True if any of ``results`` satisfies the interesting outcome."""
        return any(self.outcome(r) for r in results)


def store_buffer() -> LitmusTest:
    """Figure 1: W(x) R(y) || W(y) R(x); can both reads return 0?"""
    p1 = ThreadBuilder().store("x", 1).load("r1", "y")
    p2 = ThreadBuilder().store("y", 1).load("r2", "x")
    return LitmusTest(
        name="SB",
        description="Figure 1 store-buffer (Dekker core): both processors "
        "read 0 and kill each other",
        program=build_program([p1, p2], name="SB"),
        outcome=lambda r: r.reads[0][0] == 0 and r.reads[1][0] == 0,
        sc_allows=False,
        drf0=False,
    )


def message_passing() -> LitmusTest:
    """MP with data accesses only: stale data after seeing the flag."""
    p0 = ThreadBuilder().store("x", 1).store("flag", 1)
    p1 = ThreadBuilder().load("r0", "flag").load("r1", "x")
    return LitmusTest(
        name="MP",
        description="message passing via data flag: consumer sees flag=1 "
        "but stale x=0",
        program=build_program([p0, p1], name="MP"),
        outcome=lambda r: r.reads[1] == (1, 0),
        sc_allows=False,
        drf0=False,
    )


def message_passing_sync() -> LitmusTest:
    """MP with a write-only sync release and spinning read-only sync acquire."""
    p0 = ThreadBuilder().store("x", 1).unset("flag")
    p1 = (
        ThreadBuilder()
        .label("wait")
        .sync_load("r0", "flag")
        .branch_if(Condition.NE, "r0", 0, "wait")
        .load("r1", "x")
    )
    return LitmusTest(
        name="MP+sync",
        description="message passing through Unset/Test synchronization: "
        "stale x after the flag flips would violate the contract",
        program=build_program(
            [p0, p1], initial_memory={"flag": 1}, name="MP+sync"
        ),
        outcome=lambda r: len(r.reads[1]) >= 2 and r.reads[1][-1] == 0,
        sc_allows=False,
        drf0=True,
    )


def load_buffer() -> LitmusTest:
    """LB: R(x) W(y) || R(y) W(x); both reads returning 1 needs
    out-of-thin-air-ish reordering."""
    p0 = ThreadBuilder().load("r0", "x").store("y", 1)
    p1 = ThreadBuilder().load("r1", "y").store("x", 1)
    return LitmusTest(
        name="LB",
        description="load buffering: both loads observe the other thread's "
        "later store",
        program=build_program([p0, p1], name="LB"),
        outcome=lambda r: r.reads[0][0] == 1 and r.reads[1][0] == 1,
        sc_allows=False,
        drf0=False,
    )


def coherence_corr() -> LitmusTest:
    """CoRR: two reads of one location must not observe new-then-old."""
    p0 = ThreadBuilder().store("x", 1)
    p1 = ThreadBuilder().load("r0", "x").load("r1", "x")
    return LitmusTest(
        name="CoRR",
        description="read-read coherence: a processor observes x=1 then x=0",
        program=build_program([p0, p1], name="CoRR"),
        outcome=lambda r: r.reads[1] == (1, 0),
        sc_allows=False,
        drf0=False,
    )


def coherence_coww() -> LitmusTest:
    """CoWW-style final state: writes to one location serialize."""
    p0 = ThreadBuilder().store("x", 1).store("x", 2)
    p1 = ThreadBuilder().load("r0", "x").load("r1", "x")
    return LitmusTest(
        name="CoRR2",
        description="per-location serialization: observing 2 then 1",
        program=build_program([p0, p1], name="CoRR2"),
        outcome=lambda r: r.reads[1] == (2, 1),
        sc_allows=False,
        drf0=False,
    )


def iriw() -> LitmusTest:
    """IRIW: two readers disagree on the order of independent writes."""
    w0 = ThreadBuilder().store("x", 1)
    w1 = ThreadBuilder().store("y", 1)
    r0 = ThreadBuilder().load("a", "x").load("b", "y")
    r1 = ThreadBuilder().load("c", "y").load("d", "x")
    return LitmusTest(
        name="IRIW",
        description="independent reads of independent writes: the readers "
        "observe the two writes in opposite orders",
        program=build_program([w0, w1, r0, r1], name="IRIW"),
        outcome=lambda r: r.reads[2] == (1, 0) and r.reads[3] == (1, 0),
        sc_allows=False,
        drf0=False,
    )


def dekker_sync() -> LitmusTest:
    """SB with synchronization accesses: DRF0-legal mutual exclusion core."""
    p0 = ThreadBuilder().sync_store("x", 1).test_and_set("r0", "y", 1)
    p1 = ThreadBuilder().sync_store("y", 1).test_and_set("r1", "x", 1)
    return LitmusTest(
        name="SB+sync",
        description="store-buffer with all accesses synchronizing: the "
        "forbidden outcome stays forbidden on weakly ordered hardware",
        program=build_program([p0, p1], name="SB+sync"),
        outcome=lambda r: r.reads[0][0] == 0 and r.reads[1][0] == 0,
        sc_allows=False,
        drf0=True,
    )


def tas_mutex() -> LitmusTest:
    """Two TestAndSets: exactly one winner (atomicity probe)."""
    p0 = ThreadBuilder().test_and_set("r0", "lock")
    p1 = ThreadBuilder().test_and_set("r1", "lock")
    return LitmusTest(
        name="TAS",
        description="competing TestAndSets: both winning (both read 0) "
        "would break read-modify-write atomicity",
        program=build_program([p0, p1], name="TAS"),
        outcome=lambda r: r.reads[0][0] == 0 and r.reads[1][0] == 0,
        sc_allows=False,
        drf0=True,
    )


def sb_one_sided_sync() -> LitmusTest:
    """SB where only one processor synchronizes: still racy, still weak."""
    p0 = ThreadBuilder().sync_store("x", 1).sync_load("r0", "y")
    p1 = ThreadBuilder().store("y", 1).load("r1", "x")
    return LitmusTest(
        name="SB+half-sync",
        description="one processor synchronizes, the other races: DRF0 is "
        "violated and the outcome may appear",
        program=build_program([p0, p1], name="SB+half-sync"),
        outcome=lambda r: r.reads[0][0] == 0 and r.reads[1][0] == 0,
        sc_allows=False,
        drf0=False,
    )


def independent_writes() -> LitmusTest:
    """Threads touching disjoint data: trivially DRF0, single SC result."""
    p0 = ThreadBuilder().store("x", 1).load("a", "x")
    p1 = ThreadBuilder().store("y", 2).load("b", "y")
    return LitmusTest(
        name="disjoint",
        description="disjoint locations: any non-program-order result is a "
        "simulator bug",
        program=build_program([p0, p1], name="disjoint"),
        outcome=lambda r: r.reads[0] != (1,) or r.reads[1] != (2,),
        sc_allows=False,
        drf0=True,
    )


def write_to_read_causality() -> LitmusTest:
    """WRC: causality through a third processor."""
    w = ThreadBuilder().store("x", 1)
    relay = ThreadBuilder().load("a", "x").store("y", "a")
    reader = ThreadBuilder().load("b", "y").load("c", "x")
    return LitmusTest(
        name="WRC",
        description="write-to-read causality: the reader sees y=1 (relayed "
        "from x=1) but stale x=0",
        program=build_program([w, relay, reader], name="WRC"),
        outcome=lambda r: r.reads[2] == (1, 0),
        sc_allows=False,
        drf0=False,
    )


def two_plus_two_w() -> LitmusTest:
    """2+2W: write-order cycle across two locations."""
    p0 = ThreadBuilder().store("x", 1).store("y", 2)
    p1 = ThreadBuilder().store("y", 1).store("x", 2)
    return LitmusTest(
        name="2+2W",
        description="2+2W: both locations end with the *first* writes "
        "(x=1, y=1), a coherence-order cycle under SC",
        program=build_program([p0, p1], name="2+2W"),
        outcome=lambda r: r.memory_value("x") == 1 and r.memory_value("y") == 1,
        sc_allows=False,
        drf0=False,
    )


def s_test() -> LitmusTest:
    """S: coherence-order cycle through a read (the classic 'S' shape)."""
    p0 = ThreadBuilder().store("x", 2).store("y", 1)
    p1 = ThreadBuilder().load("a", "y").store("x", 1)
    return LitmusTest(
        name="S",
        description="S: P1 observes y=1 (so its x=1 follows P0's x=2) yet "
        "x finally holds 2 -- a coherence/po cycle, forbidden under SC",
        program=build_program([p0, p1], name="S"),
        outcome=lambda r: r.reads[1][0] == 1 and r.memory_value("x") == 2,
        sc_allows=False,
        drf0=False,
    )


def r_test() -> LitmusTest:
    """R: a store-buffer variant mixing a write race with a read."""
    p0 = ThreadBuilder().store("x", 1).store("y", 1)
    p1 = ThreadBuilder().store("y", 2).load("a", "x")
    return LitmusTest(
        name="R",
        description="R: y ends at 2 (P1's write last) yet P1 read x=0 "
        "before P0's x=1 -- forbidden under SC",
        program=build_program([p0, p1], name="R"),
        outcome=lambda r: r.memory_value("y") == 2 and r.reads[1][0] == 0,
        sc_allows=False,
        drf0=False,
    )


def mp_data_dependency() -> LitmusTest:
    """MP with a data dependency: store relays the loaded value."""
    p0 = ThreadBuilder().store("x", 7).store("flag", 1)
    p1 = ThreadBuilder().load("f", "flag").load("v", "x").store("out", "v")
    return LitmusTest(
        name="MP+dep",
        description="MP where the consumer republishes the data it read: "
        "flag observed set but out ends 0",
        program=build_program([p0, p1], name="MP+dep"),
        outcome=lambda r: r.reads[1][0] == 1 and r.memory_value("out") == 0,
        sc_allows=False,
        drf0=False,
    )


def store_buffer_fenced() -> LitmusTest:
    """SB with RP3-style full fences between the write and the read.

    Note the interesting status: the program does *not* obey DRF0 (fences
    are not synchronization operations, so the conflicting accesses stay
    hb-unordered and Definition 2 promises nothing) -- yet any hardware
    that honours fences never shows the outcome.  The contract is
    sufficient for sequential consistency, not necessary.
    """
    p1 = ThreadBuilder().store("x", 1).fence().load("r1", "y")
    p2 = ThreadBuilder().store("y", 1).fence().load("r2", "x")
    return LitmusTest(
        name="SB+fence",
        description="store buffer with full fences (the RP3 option): the "
        "violation disappears on any fence-honouring hardware",
        program=build_program([p1, p2], name="SB+fence"),
        outcome=lambda r: r.reads[0][0] == 0 and r.reads[1][0] == 0,
        sc_allows=False,
        drf0=False,
    )


def all_tests() -> List[LitmusTest]:
    """The full catalog in a stable order."""
    return [
        store_buffer(),
        message_passing(),
        message_passing_sync(),
        load_buffer(),
        coherence_corr(),
        coherence_coww(),
        iriw(),
        dekker_sync(),
        tas_mutex(),
        sb_one_sided_sync(),
        independent_writes(),
        write_to_read_causality(),
        two_plus_two_w(),
        s_test(),
        r_test(),
        mp_data_dependency(),
        store_buffer_fenced(),
    ]


def by_name(name: str) -> LitmusTest:
    """Look one test up by name."""
    for test in all_tests():
        if test.name == name:
            return test
    raise KeyError(name)
