"""Candidate-execution enumeration: reads-from and coherence choices.

A *candidate execution* fixes, for every read event, the write event (or
initializing write) it reads from (``rf``), and for every location a total
order of its write events (``co``, with the initializing write first).
Value resolution then propagates concrete values through ``rf`` and
through same-thread data dependencies; candidates whose values never
stabilize (out-of-thin-air value cycles) or whose read-modify-write events
do not read their immediate ``co`` predecessor are discarded.

The memory models in :mod:`repro.axiomatic.models` filter these candidates
by acyclicity axioms over ``po ∪ rf ∪ co ∪ fr`` fragments.

This module is the *generate-then-filter* enumerator: it walks the cross
product of rf choices × per-location co permutations and resolves each
combination.  One filter applies before resolution: an RMW at co index i
must read co[i-1] (or the initializing write when i = 0), so each
location's permutations are grouped by the rf sources their RMWs
require, and an rf pick meets only the co picks it is atomic with, in
the product's order.  The model axioms are never consulted.
:mod:`repro.axiomatic.solver` replaces the enumerator as the production
backend with an incremental backtracking search; the enumerator is kept
as the differential oracle the solver is checked against (the
``core/_legacy.py`` idiom), and shares no code with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.axiomatic.events import (
    Event,
    EventLayout,
    FenceMarker,
    ReadRef,
    extract_layout,
)
from repro.core.execution import Result
from repro.core.types import Location, Value
from repro.machine.program import Program

#: rf maps a read event uid to the sourcing write event uid, or None for
#: the location's initializing write.
RfMap = Dict[int, Optional[int]]
#: co maps a location to the uids of its writes in coherence order
#: (the implicit initializing write precedes all of them).
CoMap = Dict[Location, Tuple[int, ...]]
#: co positions: location -> {write uid -> index in the co order}.
CoPosMap = Dict[Location, Dict[int, int]]


@dataclass
class Candidate:
    """One candidate execution with resolved values."""

    program: Program
    events: Sequence[Event]
    rf: RfMap
    co: CoMap
    read_values: Dict[int, Value]
    write_values: Dict[int, Value]
    fences: Tuple[FenceMarker, ...] = ()

    def event(self, uid: int) -> Event:
        """The event with this uid (no uid == list-index assumption)."""
        table = self.__dict__.get("_event_table")
        if table is None:
            table = {e.uid: e for e in self.events}
            self.__dict__["_event_table"] = table
        return table[uid]

    def co_positions(self) -> CoPosMap:
        """Per-location {write uid -> co index}, computed once."""
        positions = self.__dict__.get("_co_positions")
        if positions is None:
            positions = {
                location: {uid: i for i, uid in enumerate(order)}
                for location, order in self.co.items()
            }
            self.__dict__["_co_positions"] = positions
        return positions

    def fr_edges(self) -> List[Tuple[int, int]]:
        """from-read edges: read -> writes co-after its source."""
        cached = self.__dict__.get("_fr_edges")
        if cached is not None:
            return cached
        positions = self.co_positions()
        edges: List[Tuple[int, int]] = []
        for read_uid, write_uid in self.rf.items():
            location = self.event(read_uid).location
            order = self.co.get(location, ())
            if write_uid is None:
                later = order  # everything is after the init write
            else:
                later = order[positions[location][write_uid] + 1 :]
            for w in later:
                if w != read_uid:  # an RMW does not fr to itself
                    edges.append((read_uid, w))
        self.__dict__["_fr_edges"] = edges
        return edges

    def result(self) -> Result:
        """The observable result of this candidate."""
        reads: List[List[Value]] = [[] for _ in range(self.program.num_procs)]
        for event in sorted(self.events, key=lambda e: (e.proc, e.po_index)):
            if event.is_read:
                reads[event.proc].append(self.read_values[event.uid])
        final = {}
        for location, initial in self.program.initial_memory.items():
            order = self.co.get(location, ())
            final[location] = (
                self.write_values[order[-1]] if order else initial
            )
        return Result.build(reads, final)


#: ``enumerate_candidates`` calls its ``check_budget`` hook before the
#: first step and then every this many steps.
BUDGET_CHECK_INTERVAL = 256

#: A location's RMW key: for each RMW on the location, the rf source its
#: atomicity requires (the RMW's immediate co predecessor, or None for the
#: initializing write).
RmwKey = Tuple[Optional[int], ...]


def enumerate_candidates(
    program: Program, check_budget: Optional[Callable[[], None]] = None
) -> Iterator[Candidate]:
    """Yield every well-formed candidate execution of a litmus program.

    Candidates come out in rf-major order: the rf picks in product order,
    and for each the co picks it is RMW-atomic with, in product order.

    ``check_budget``, when given, is called before the first step and
    then every :data:`BUDGET_CHECK_INTERVAL` steps, and may raise to
    abandon the enumeration.  A step is one (rf, co) combination handed
    to :func:`_resolve`, or one rf pick that no co pick is atomic with.
    """
    layout = extract_layout(program)
    events = layout.events
    by_uid = {e.uid: e for e in events}
    reads = [e for e in events if e.is_read]
    writes_by_loc: Dict[Location, List[Event]] = {}
    for e in events:
        if e.is_write:
            writes_by_loc.setdefault(e.location, []).append(e)

    rf_choices: List[List[Optional[int]]] = []
    for read in reads:
        sources: List[Optional[int]] = [None]  # the initializing write
        sources.extend(
            w.uid for w in writes_by_loc.get(read.location, ())
        )
        rf_choices.append(sources)

    locations = sorted(writes_by_loc)
    # RMW atomicity ties a location's co pick to the rf sources of the
    # location's RMWs, and to nothing else.  So each location's
    # permutations are grouped by the RmwKey they require: an rf pick
    # then meets, per location, only the group its RMW reads name.
    # Filtering each factor of the co product keeps the product's order.
    # Each permutation carries its position map, computed once here.
    rmw_slots: List[List[int]] = [
        [
            j
            for j, read in enumerate(reads)
            if read.is_write and read.location == loc
        ]
        for loc in locations
    ]
    co_groups: List[Dict[RmwKey, list]] = []
    for loc, slots in zip(locations, rmw_slots):
        groups: Dict[RmwKey, list] = {}
        for perm in itertools.permutations(
            [w.uid for w in writes_by_loc[loc]]
        ):
            pos = {uid: i for i, uid in enumerate(perm)}
            key = tuple(
                perm[pos[reads[j].uid] - 1] if pos[reads[j].uid] else None
                for j in slots
            )
            groups.setdefault(key, []).append((perm, pos))
        co_groups.append(groups)

    steps = 0

    def step() -> None:
        nonlocal steps
        if check_budget is not None and steps % BUDGET_CHECK_INTERVAL == 0:
            check_budget()
        steps += 1

    for rf_pick in itertools.product(*rf_choices):
        co_choices = [
            groups.get(tuple([rf_pick[j] for j in slots]), ())
            for slots, groups in zip(rmw_slots, co_groups)
        ]
        if not all(co_choices):
            step()
            continue
        rf: RfMap = {read.uid: src for read, src in zip(reads, rf_pick)}
        for co_pick in itertools.product(*co_choices):
            step()
            co: CoMap = {
                loc: perm for loc, (perm, _) in zip(locations, co_pick)
            }
            co_pos: CoPosMap = {
                loc: pos for loc, (_, pos) in zip(locations, co_pick)
            }
            candidate = _resolve(program, layout, rf, co, co_pos, by_uid)
            if candidate is not None:
                yield candidate


def _resolve(
    program: Program,
    layout: EventLayout,
    rf: RfMap,
    co: CoMap,
    co_pos: Optional[CoPosMap] = None,
    by_uid: Optional[Dict[int, Event]] = None,
) -> Optional[Candidate]:
    """Propagate values; reject unstable or RMW-inconsistent candidates.

    The atomicity check stays here although :func:`enumerate_candidates`
    never hands over a pick that breaks it: this function is the
    definition of a well-formed candidate that the enumerator is tested
    against.
    """
    events = layout.events
    if co_pos is None:
        co_pos = {
            location: {uid: i for i, uid in enumerate(order)}
            for location, order in co.items()
        }
    if by_uid is None:
        by_uid = {e.uid: e for e in events}
    # RMW atomicity at the candidate level: an RMW must read its immediate
    # co-predecessor (or the init write if it is co-first).
    for event in events:
        if event.is_read and event.is_write:
            order = co[event.location]
            index = co_pos[event.location][event.uid]
            expected = None if index == 0 else order[index - 1]
            if rf[event.uid] != expected:
                return None

    write_values: Dict[int, Value] = {}
    unresolved: Dict[int, ReadRef] = {}
    for event in events:
        if not event.is_write:
            continue
        if isinstance(event.write_value, ReadRef):
            unresolved[event.uid] = event.write_value
        else:
            write_values[event.uid] = event.write_value

    read_values: Dict[int, Value] = {}

    def source_value(read_uid: int) -> Optional[Value]:
        src = rf[read_uid]
        if src is None:
            location = by_uid[read_uid].location
            return program.initial_memory[location]
        return write_values.get(src)

    pending = {e.uid for e in events if e.is_read}
    progress = True
    while pending and progress:
        progress = False
        for read_uid in list(pending):
            value = source_value(read_uid)
            if value is None:
                continue
            read_values[read_uid] = value
            pending.discard(read_uid)
            progress = True
            for write_uid, ref in list(unresolved.items()):
                if ref.event_uid == read_uid:
                    write_values[write_uid] = value
                    del unresolved[write_uid]
    if pending or unresolved:
        return None  # value cycle: out-of-thin-air candidate
    candidate = Candidate(
        program=program,
        events=events,
        rf=rf,
        co=co,
        read_values=read_values,
        write_values=write_values,
        fences=layout.fences,
    )
    candidate.__dict__["_co_positions"] = co_pos
    candidate.__dict__["_event_table"] = by_uid
    return candidate
