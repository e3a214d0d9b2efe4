"""The paper's figures as executable artifacts.

* :func:`figure2a_execution` / :func:`figure2b_execution` -- the DRF0
  example and counter-example of Figure 2.  The published figure is a
  timing diagram; we reconstruct executions with exactly the properties its
  caption states: in (a) every pair of conflicting accesses is ordered by
  happens-before; in (b) "the accesses of P0 conflict with the write of P1
  but are not ordered with respect to it by happens-before.  Similarly, the
  writes by P2 and P4 conflict, but are unordered."
* :func:`figure3_program` -- the Section-6 analysis scenario: P0 writes x
  (slowly -- the line is shared so invalidations are needed), does other
  work, Unsets s; P1 TestAndSets s, does other work, reads x.  Under
  Definition 1, P0 stalls at the Unset until the write of x is globally
  performed; under the paper's implementation P0 never stalls and only P1's
  TestAndSet waits.
"""

from __future__ import annotations

from repro.core.execution import Execution, final_memory_from_dict
from repro.core.ops import Operation
from repro.core.types import Condition, OpKind
from repro.machine.dsl import ThreadBuilder, build_program
from repro.machine.program import Program

R, W = OpKind.DATA_READ, OpKind.DATA_WRITE
SR, SW, SRW = OpKind.SYNC_READ, OpKind.SYNC_WRITE, OpKind.SYNC_RMW


def _execution(specs, num_procs: int, final_memory=None) -> Execution:
    """Build an execution from (proc, kind, loc, read, written) tuples."""
    program = Program.make(
        [[] for _ in range(num_procs)],
        initial_memory=final_memory or {},
        name="figure",
    )
    po_counts: dict = {}
    ops = []
    for uid, (proc, kind, loc, read, written) in enumerate(specs):
        po = po_counts.get(proc, 0)
        po_counts[proc] = po + 1
        ops.append(Operation(uid, proc, po, kind, loc, read, written))
    return Execution(
        program, tuple(ops), final_memory_from_dict(final_memory or {})
    )


def figure2a_execution() -> Execution:
    """Figure 2(a): an idealized execution that obeys DRF0.

    Six processors; every conflicting pair is connected through chains of
    program order and same-location synchronization:

    * the x accesses of P0, P1 and P2 are chained through sync location a
      and then b;
    * the y accesses of P1, P2 and P3 are chained through b;
    * the z accesses of P4 and P5 are chained through c.
    """
    return _execution(
        [
            (0, W, "x", None, 1),        # P0 writes x
            (0, SW, "a", None, 0),       # P0 releases a
            (1, SRW, "a", 0, 1),         # P1 acquires a
            (1, R, "x", 1, None),        # ...so P1's read of x is ordered
            (1, W, "y", None, 2),        # P1 writes y
            (1, SW, "b", None, 0),       # P1 releases b
            (2, SRW, "b", 0, 1),         # P2 acquires b
            (2, R, "y", 2, None),        # ordered read of y
            (2, W, "x", None, 3),        # ordered second write of x
            (3, SRW, "b", 1, 1),         # P3 synchronizes on b after P2
            (3, R, "y", 2, None),        # ordered read of y
            (4, W, "z", None, 4),        # P4 writes z
            (4, SW, "c", None, 0),       # P4 releases c
            (5, SRW, "c", 0, 1),         # P5 acquires c
            (5, R, "z", 4, None),        # ordered read of z
        ],
        num_procs=6,
        final_memory={"x": 3, "y": 2, "z": 4, "a": 1, "b": 1, "c": 1},
    )


def figure2b_execution() -> Execution:
    """Figure 2(b): an idealized execution that violates DRF0.

    Matches the caption's two violations: P0's accesses of x conflict with
    P1's write of x with no intervening synchronization, and P2's and P4's
    writes of y conflict and are unordered (P4 never synchronizes, so P2's
    release of a cannot order them).
    """
    return _execution(
        [
            (0, R, "x", 0, None),        # P0 reads x ...
            (1, W, "x", None, 1),        # ... racing P1's write of x
            (0, W, "x", None, 2),        # and P0's own write races it too
            (2, W, "y", None, 3),        # P2 writes y
            (2, SW, "a", None, 0),       # P2 releases a
            (3, SRW, "a", 0, 1),         # P3 acquires a
            (3, R, "y", 3, None),        # P3's read of y is ordered...
            (4, W, "y", None, 4),        # ...but P4's write of y is not
        ],
        num_procs=5,
        final_memory={"x": 2, "y": 4, "a": 1},
    )


def figure3_program(
    num_extra_sharers: int = 0,
    release_work: int = 0,
    post_release_work: int = 40,
) -> Program:
    """The Figure-3 scenario as a DRF0 program for the simulator.

    P1 (and optionally extra processors) first warms its cache with x so
    P0's later write of x needs invalidations -- that is the "write of x
    takes a long time to be globally performed" premise.  The warm-up read
    is ordered before the write through sync location g, keeping the
    program data-race-free.  Then:

    * P0: W(x); <release_work>; Unset(s); <post_release_work>
    * P1: TestAndSet(s) until it wins; R(x)

    Args:
        num_extra_sharers: Additional processors that also cache x (more
            invalidation acks, slower global perform).
        release_work: Local cycles P0 spends between W(x) and Unset(s).
        post_release_work: Local cycles P0 spends after the Unset -- the
            work Definition 1 delays but the paper's implementation does not.
    """
    p0 = (
        ThreadBuilder()
        .label("ready")
        .test_and_set("rg", "g")
        .branch_if(Condition.NE, "rg", 0, "ready")
        .store("x", 1)
    )
    if release_work:
        p0.delay(release_work)
    p0.unset("s")
    if post_release_work:
        p0.delay(post_release_work)

    p1 = (
        ThreadBuilder()
        .load("warm", "x")          # warm the cache: x becomes shared
        .unset("g")                 # signal P0 it may start
        .label("acq")
        .test_and_set("rs", "s")
        .branch_if(Condition.NE, "rs", 0, "acq")
        .load("r1", "x")
    )

    threads = [p0, p1]
    sharers = max(0, num_extra_sharers)
    for i in range(sharers):
        # Extra sharers warm x, then signal through their own sync location.
        threads.append(ThreadBuilder().load("warm", "x").unset(f"g{i}"))
    if sharers:
        # P1 collects every sharer's signal before releasing g to P0, so all
        # warm-up reads are ordered before P0's write (the program stays
        # data-race-free and x has many shared copies to invalidate).
        p1_new = ThreadBuilder().load("warm", "x")
        for i in range(sharers):
            p1_new.label(f"w{i}").test_and_set("rw", f"g{i}").branch_if(
                Condition.NE, "rw", 0, f"w{i}"
            )
        p1_new.unset("g")
        p1_new.label("acq").test_and_set("rs", "s").branch_if(
            Condition.NE, "rs", 0, "acq"
        ).load("r1", "x")
        threads[1] = p1_new

    initial = {"g": 1, "s": 1}
    for i in range(sharers):
        initial[f"g{i}"] = 1
    return build_program(threads, initial_memory=initial, name="figure3")
