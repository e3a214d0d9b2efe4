"""Shasha-Snir delay-set analysis ([ShS88], discussed in Section 2.1).

The paper contrasts its hardware/software contract with Shasha and Snir's
*static* approach: find a minimal set of program-order pairs ("delay
pairs") such that enforcing just those orders guarantees sequential
consistency.  The construction: build the graph of program order ``P``
(within threads) and conflict edges ``C`` (between threads, both
directions); a **critical cycle** is a simple mixed cycle that uses at
most two accesses per thread and at most three per location.  The delay
set is the set of ``P`` pairs appearing on critical cycles.

The paper's caveat -- "the algorithm depends on detecting conflicting data
accesses at compile time and its success depends on data dependence
analysis techniques, which may be quite pessimistic" -- is visible here
too: the analysis sees static accesses only, so every same-location pair
counts as a potential conflict.

Implemented over the axiomatic event extraction (straight-line programs),
with a bounded simple-cycle search (:func:`simple_cycles`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.axiomatic.events import Event, extract_events
from repro.machine.program import Program

#: A delay pair: (earlier event uid, later event uid) in one thread's
#: program order whose ordering must be enforced in hardware.
DelayPair = Tuple[int, int]


@dataclass
class DelayAnalysis:
    """Result of the delay-set analysis on one program."""

    program: Program
    events: List[Event]
    critical_cycles: List[Tuple[int, ...]]
    delay_pairs: FrozenSet[DelayPair]

    @property
    def needs_no_delays(self) -> bool:
        """True when plain per-access hardware order already suffices."""
        return not self.delay_pairs

    def describe(self) -> List[str]:
        """Human-readable delay pairs."""
        out = []
        for a, b in sorted(self.delay_pairs):
            ea, eb = self.events[a], self.events[b]
            out.append(
                f"P{ea.proc}: {ea.kind.value}({ea.location}) must complete "
                f"before {eb.kind.value}({eb.location})"
            )
        return out


def _conflicts(a: Event, b: Event) -> bool:
    return (
        a.location == b.location
        and a.proc != b.proc
        and (a.is_write or b.is_write)
    )


def simple_cycles(
    successors: Dict[int, Sequence[int]], max_length: int
) -> Iterator[Tuple[int, ...]]:
    """Every elementary cycle of at most ``max_length`` nodes, once each.

    ``successors`` maps each node to its out-neighbours.  A cycle is
    reported starting at its smallest node: the search from ``start``
    walks only larger nodes, so no cycle is found twice.  The cost is the
    number of simple paths within the bound, small for litmus-sized
    graphs.
    """
    for start in sorted(successors):
        path = [start]
        on_path = {start}

        def extend(node: int) -> Iterator[Tuple[int, ...]]:
            for nxt in successors[node]:
                if nxt == start:
                    yield tuple(path)
                elif (
                    nxt > start
                    and nxt not in on_path
                    and len(path) < max_length
                ):
                    path.append(nxt)
                    on_path.add(nxt)
                    yield from extend(nxt)
                    path.pop()
                    on_path.remove(nxt)

        yield from extend(start)


def delay_graph(
    events: Sequence[Event],
) -> Tuple[Dict[int, List[int]], Set[DelayPair]]:
    """Shasha-Snir's graph: ``P`` edges along each thread's program order,
    ``C`` edges both ways between conflicting accesses.

    Returns sorted successor lists per event uid, and the ``P`` pairs.
    """
    graph: Dict[int, Set[int]] = {event.uid: set() for event in events}
    po_pairs: Set[DelayPair] = set()
    by_proc: dict = {}
    for event in events:
        by_proc.setdefault(event.proc, []).append(event)
    for proc_events in by_proc.values():
        proc_events.sort(key=lambda e: e.po_index)
        for i, a in enumerate(proc_events):
            for b in proc_events[i + 1 :]:
                po_pairs.add((a.uid, b.uid))
                graph[a.uid].add(b.uid)

    for i, a in enumerate(events):
        for b in events[i + 1 :]:
            if _conflicts(a, b):
                graph[a.uid].add(b.uid)
                graph[b.uid].add(a.uid)
    return {node: sorted(nexts) for node, nexts in graph.items()}, po_pairs


def analyze(program: Program, max_cycle_length: int = 8) -> DelayAnalysis:
    """Run the delay-set analysis on a straight-line program."""
    events = extract_events(program)
    successors, po_pairs = delay_graph(events)
    critical: List[Tuple[int, ...]] = []
    delay_pairs: Set[DelayPair] = set()
    for cycle in simple_cycles(successors, max_cycle_length):
        if len(cycle) < 2:
            continue
        if not _is_critical(cycle, events):
            continue
        critical.append(cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if (a, b) in po_pairs:
                delay_pairs.add((a, b))
    return DelayAnalysis(
        program=program,
        events=events,
        critical_cycles=critical,
        delay_pairs=frozenset(delay_pairs),
    )


def _is_critical(cycle: Sequence[int], events: List[Event]) -> bool:
    """Shasha-Snir minimality: <=2 accesses per thread (program-order
    adjacent in the cycle), <=3 accesses per location."""
    per_proc: dict = {}
    per_loc: dict = {}
    for uid in cycle:
        event = events[uid]
        per_proc.setdefault(event.proc, []).append(uid)
        per_loc.setdefault(event.location, []).append(uid)
    if any(len(uids) > 2 for uids in per_proc.values()):
        return False
    if any(len(uids) > 3 for uids in per_loc.values()):
        return False
    # The two same-thread accesses must be consecutive along the cycle
    # (otherwise the cycle shortcuts through the thread and is not minimal).
    position = {uid: i for i, uid in enumerate(cycle)}
    n = len(cycle)
    for uids in per_proc.values():
        if len(uids) == 2:
            i, j = sorted(position[u] for u in uids)
            if not (j - i == 1 or (i == 0 and j == n - 1)):
                return False
    return True


def delay_pairs_for(program: Program) -> FrozenSet[DelayPair]:
    """Just the delay set of a program."""
    return analyze(program).delay_pairs
