"""Snooping-bus cache coherence: the paper's bus-based lineage.

Section 2.1: "For single bus cache-based systems, a number of
cache-coherence protocols have been proposed in the literature [ArB86].
Most ensure sequential consistency.  In particular, Rudolph and Segall
have developed two protocols, which they formally prove guarantee
sequential consistency [RuS84]."

This module implements that classic substrate: a write-invalidate MSI
protocol over an **atomic bus**.  One bus transaction is in flight at a
time; when it is granted, every other cache snoops it in the same cycle
(invalidating or downgrading its copy, supplying data if it holds the line
modified), memory is updated on write-backs, and the requester receives
the line.  The atomicity has a sharp consequence the directory substrate
lacks:

* a write is **globally performed the moment its transaction is granted**
  (every stale copy died during the snoop), so commit == globally
  performed for bus transactions;
* per-processor bus requests are served FIFO, so by the time a
  synchronization operation's transaction is granted, all the issuing
  processor's earlier misses have been granted too -- Section 5.1's
  condition 5 holds *structurally*, with no counters or reserve bits.

What remains weak is everything that avoids the bus: cache **hits** can
complete while earlier misses are still queued, and the relaxed policy's
write buffer still lets reads overtake writes -- exactly the residual
hazards Figure 1 lists for bus-based cache systems.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.core.types import Location, OpKind, Value
from repro.sim.access import AccessRecord
from repro.sim.cache import CacheLine, LineState
from repro.sim.events import Simulator


@dataclass
class _BusRequest:
    """One queued bus transaction."""

    cache: "SnoopyCache"
    access: AccessRecord
    exclusive: bool  # BusRdX vs BusRd


class SnoopBus:
    """Atomic split-nothing bus: one transaction per ``latency`` cycles."""

    def __init__(self, sim: Simulator, initial_memory: Dict[Location, Value],
                 latency: int = 2) -> None:
        self.sim = sim
        self.latency = latency
        self.memory: Dict[Location, Value] = dict(initial_memory)
        self.caches: List["SnoopyCache"] = []
        self._queue: Deque[_BusRequest] = deque()
        self._busy = False
        self.transactions = 0
        self.messages_sent = 0  # transaction count, for MachineRun parity
        self.invalidations_sent = 0

    @property
    def requests_served(self) -> int:
        """Directory-interface parity for run packaging."""
        return self.transactions

    def attach(self, cache: "SnoopyCache") -> None:
        """Register a snooping cache."""
        self.caches.append(cache)

    def request(self, cache: "SnoopyCache", access: AccessRecord,
                exclusive: bool) -> None:
        """Queue a transaction; FIFO arbitration."""
        self._queue.append(_BusRequest(cache, access, exclusive))
        self._pump()

    def _pump(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        request = self._queue.popleft()
        self.sim.after(self.latency, lambda: self._grant(request))

    def _grant(self, request: _BusRequest) -> None:
        """The atomic step: snoop everyone, move data, complete the access."""
        self.transactions += 1
        self.messages_sent += 1
        loc = request.access.location
        value = self.memory[loc]
        for cache in self.caches:
            if cache is request.cache:
                continue
            had_copy = (
                cache.lines.get(loc) is not None
                and cache.lines[loc].state is not LineState.INVALID
            )
            supplied = cache.snoop(loc, request.exclusive)
            if request.exclusive and had_copy:
                self.invalidations_sent += 1
            if supplied is not None:
                value = supplied
                self.memory[loc] = supplied  # write-back on the same grant
        request.cache.complete_transaction(request, value)
        self._busy = False
        self._pump()

    def final_value(self, location: Location, caches) -> Value:
        """Final memory value, honouring a modified cached copy."""
        for cache in caches:
            line = cache.lines.get(location)
            if line is not None and line.state is LineState.MODIFIED:
                return line.value
        return self.memory[location]


class SnoopyCache:
    """One processor's cache on the snooping bus.

    Presents the same port interface as
    :class:`~repro.sim.cache.CacheController` (``submit(access)``) so
    processors and policies are substrate-agnostic.
    """

    def __init__(self, sim: Simulator, bus: SnoopBus, node_id: str,
                 hit_latency: int = 1, drf1_optimized: bool = False) -> None:
        self.sim = sim
        self.bus = bus
        self.node_id = node_id
        self.hit_latency = hit_latency
        self.drf1_optimized = drf1_optimized
        self.lines: Dict[Location, CacheLine] = {}
        self._pending: Dict[Location, Deque[AccessRecord]] = {}
        self._in_flight: Dict[Location, AccessRecord] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.forwards_stalled = 0  # port-interface parity; unused here
        bus.attach(self)

    # -- port interface -------------------------------------------------------

    def line(self, location: Location) -> CacheLine:
        line = self.lines.get(location)
        if line is None:
            line = self.lines[location] = CacheLine()
        return line

    def submit(self, access: AccessRecord) -> None:
        loc = access.location
        if loc in self._in_flight:
            self._pending.setdefault(loc, deque()).append(access)
            return
        self._dispatch(access)

    def _treated_as_read(self, access: AccessRecord) -> bool:
        if access.kind is OpKind.DATA_READ:
            return True
        return access.kind is OpKind.SYNC_READ and self.drf1_optimized

    def _dispatch(self, access: AccessRecord) -> None:
        line = self.line(access.location)
        if self._treated_as_read(access):
            if line.state is not LineState.INVALID:
                self.hits += 1
                self.sim.after(
                    self.hit_latency, lambda: self._commit_hit(access)
                )
                return
            self._miss(access, exclusive=False)
            return
        if line.state is LineState.MODIFIED:
            self.hits += 1
            self.sim.after(self.hit_latency, lambda: self._commit_hit(access))
            return
        self._miss(access, exclusive=True)

    def _miss(self, access: AccessRecord, exclusive: bool) -> None:
        self.misses += 1
        access.missed = True
        self._in_flight[access.location] = access
        self.bus.request(self, access, exclusive)

    def _commit_hit(self, access: AccessRecord) -> None:
        line = self.line(access.location)
        needs_exclusive = not self._treated_as_read(access)
        if line.state is LineState.INVALID or (
            needs_exclusive and line.state is not LineState.MODIFIED
        ):
            self.submit(access)  # snooped away during the hit latency
            return
        self._perform(access, line)

    def _perform(self, access: AccessRecord, line: CacheLine) -> None:
        value_read: Optional[Value] = line.value if access.has_read else None
        if access.has_write:
            line.value = access.write_value
        access.mark_committed(self.sim.now, value_read)
        access.mark_globally_performed(self.sim.now)

    # -- bus-facing interface ------------------------------------------------

    def snoop(self, location: Location, exclusive: bool) -> Optional[Value]:
        """Another cache's transaction: downgrade/invalidate; supply if M."""
        line = self.lines.get(location)
        if line is None or line.state is LineState.INVALID:
            return None
        supplied = line.value if line.state is LineState.MODIFIED else None
        line.state = LineState.INVALID if exclusive else LineState.SHARED
        return supplied

    def complete_transaction(self, request: _BusRequest, value: Value) -> None:
        """Our transaction was granted atomically: install and perform."""
        access = request.access
        loc = access.location
        del self._in_flight[loc]
        line = self.line(loc)
        line.state = (
            LineState.MODIFIED if request.exclusive else LineState.SHARED
        )
        line.value = value
        self._perform(access, line)
        # Drain queued same-line accesses until one re-enters the bus
        # (consecutive hits must all be dispatched, or they wait forever).
        while True:
            queue = self._pending.get(loc)
            if not queue:
                return
            nxt = queue.popleft()
            if not queue:
                del self._pending[loc]
            self._dispatch(nxt)
            if loc in self._in_flight:
                return
