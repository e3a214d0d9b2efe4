"""Directory controller + memory for the cache-coherent system.

A straightforward directory-based write-back protocol in the style the
paper assumes (Section 5.2, citing [ASH88]):

* the directory tracks, per line, either a set of sharers or a single
  exclusive owner;
* a write miss on a shared line sends invalidations to all sharers, and the
  requested line is **forwarded to the requester in parallel** with those
  invalidations (the paper's explicit protocol feature);
* each invalidated cache acks to the directory; when all acks are in, the
  directory sends its ack (``WRITE_ACK``) to the writing cache -- that is
  the write's globally-performed point;
* requests for a line owned exclusively are forwarded to the owner cache,
  which supplies data directly to the requester (and may stall the forward
  on a reserved line, per Section 5.3);
* transactions are serialized per line: a request arriving while the line
  has an open transaction queues at the directory.  This serialization is
  what gives the paper's conditions 2 and 3 (per-location total orders of
  writes and of synchronization operations, observed in commit order).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, Optional, Set

from repro.core.types import Location, Value
from repro.sim.events import SimulationError, Simulator
from repro.sim.faults import NULL_INJECTOR
from repro.sim.messages import Message, MsgKind
from repro.sim.network import Interconnect


@dataclass
class DirectoryEntry:
    """Per-line directory state."""

    owner: Optional[str] = None
    sharers: Set[str] = field(default_factory=set)


@dataclass
class _DirTransaction:
    """An open per-line transaction at the directory."""

    request: Message
    acks_expected: int = 0
    waiting_owner: bool = False


# Bound once: looking up an Enum member on its class is slow on CPython 3.11.
_GETS = MsgKind.GETS
_GETX = MsgKind.GETX


class Directory:
    """The directory controller; also holds the memory image."""

    def __init__(
        self,
        sim: Simulator,
        network: Interconnect,
        node_id: str,
        initial_memory: Dict[Location, Value],
        latency: int = 4,
        injector=NULL_INJECTOR,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.latency = latency
        self.injector = injector
        self.memory: Dict[Location, Value] = dict(initial_memory)
        self.entries: Dict[Location, DirectoryEntry] = {}
        self._busy: Dict[Location, _DirTransaction] = {}
        self._waiting: Dict[Location, Deque[Message]] = {}
        # Stats
        self.requests_served = 0
        self.invalidations_sent = 0
        network.attach(node_id, self._on_message)

    def entry(self, location: Location) -> DirectoryEntry:
        """The directory entry for ``location``."""
        entry = self.entries.get(location)
        if entry is None:
            entry = self.entries[location] = DirectoryEntry()
        return entry

    # ------------------------------------------------------------------

    def _on_message(self, message: Message) -> None:
        handler = _MESSAGE_HANDLERS.get(message.kind)
        if handler is None:  # pragma: no cover - protocol is closed
            raise SimulationError(f"directory got unexpected {message.kind}")
        handler(self, message)

    def _on_nack_done(self, message: Message) -> None:
        """Owner refused a forward (reserved line): close without changes."""
        loc = message.location
        txn = self._busy.get(loc)
        if txn is None or not txn.waiting_owner:
            raise SimulationError(f"stray NACK_DONE for {loc}")
        self._close(loc)

    # -- request admission (per-line serialization) --------------------------

    def _accept_request(self, message: Message) -> None:
        loc = message.location
        if loc in self._busy:
            self._waiting.setdefault(loc, deque()).append(message)
            return
        self._busy[loc] = _DirTransaction(message)
        self.sim.after(self._service_latency(), partial(self._process, message))

    def _service_latency(self) -> int:
        """Service latency, plus any fault-injected jitter."""
        if self.injector.enabled:
            return self.latency + self.injector.service_delay()
        return self.latency

    def _process(self, message: Message) -> None:
        self.requests_served += 1
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "dir", message.kind.value, "dir", self.sim.now,
                args={"src": message.src, "loc": message.location},
            )
        kind = message.kind
        if kind is _GETS:
            self._process_gets(message)
        elif kind is _GETX:
            self._process_getx(message)
        else:
            self._process_wb_evict(message)

    def _process_wb_evict(self, message: Message) -> None:
        """A cache evicts a dirty line (synchronous write-back).

        If ownership moved while the write-back was queued (a forwarded
        request reached the evicting cache first), the write-back is stale:
        acknowledge it without touching state -- the evicter has already
        given the line away.
        """
        loc = message.location
        entry = self.entry(loc)
        if entry.owner == message.src:
            self.memory[loc] = message.value
            entry.owner = None
        self.network.send(
            Message(MsgKind.WB_OK, src=self.node_id, dst=message.src, location=loc)
        )
        self._close(loc)

    def _process_gets(self, message: Message) -> None:
        loc = message.location
        entry = self.entry(loc)
        requester = message.src
        if entry.owner is None:
            entry.sharers.add(requester)
            self.network.send(
                Message(
                    MsgKind.DATA,
                    src=self.node_id,
                    dst=requester,
                    location=loc,
                    value=self.memory[loc],
                    access_uid=message.access_uid,
                )
            )
            self._close(loc)
            return
        if entry.owner == requester:
            raise SimulationError(f"owner {requester} sent GETS for {loc}")
        # Forward to the exclusive owner; it supplies data to the requester
        # and writes the line back to us (M -> S downgrade).
        txn = self._busy[loc]
        txn.waiting_owner = True
        self.network.send(
            Message(
                MsgKind.GETS_FWD,
                src=self.node_id,
                dst=entry.owner,
                location=loc,
                requester=requester,
                is_sync=message.is_sync,
            )
        )

    def _process_getx(self, message: Message) -> None:
        loc = message.location
        entry = self.entry(loc)
        requester = message.src
        if entry.owner is not None:
            if entry.owner == requester:
                raise SimulationError(f"owner {requester} sent GETX for {loc}")
            txn = self._busy[loc]
            txn.waiting_owner = True
            self.network.send(
                Message(
                    MsgKind.GETX_FWD,
                    src=self.node_id,
                    dst=entry.owner,
                    location=loc,
                    requester=requester,
                    is_sync=message.is_sync,
                )
            )
            return
        others = entry.sharers - {requester}
        entry.owner = requester
        entry.sharers = set()
        # Data goes to the requester in parallel with the invalidations.
        # Even when the requester is (nominally) a sharer, the reply carries
        # the data: shared copies may have been dropped silently by capacity
        # eviction, so the directory's sharer set is an over-approximation
        # and a data-less upgrade grant would be unsound.  Memory is always
        # current for a shared line in this write-back protocol, so the
        # value sent equals any surviving shared copy.
        self.network.send(
            Message(
                MsgKind.DATA_EX,
                src=self.node_id,
                dst=requester,
                location=loc,
                value=self.memory[loc],
                acks_pending=len(others),
                access_uid=message.access_uid,
            )
        )
        if not others:
            self._close(loc)
            return
        txn = self._busy[loc]
        txn.acks_expected = len(others)
        # Sorted, not set order: each INVAL draws network jitter, so the
        # send order must not depend on string hashing (PYTHONHASHSEED).
        for sharer in sorted(others):
            self.invalidations_sent += 1
            self.network.send(
                Message(
                    MsgKind.INVAL,
                    src=self.node_id,
                    dst=sharer,
                    location=loc,
                    requester=requester,
                )
            )

    # -- transaction completion ------------------------------------------------

    def _on_inval_ack(self, message: Message) -> None:
        loc = message.location
        txn = self._busy.get(loc)
        if txn is None or txn.acks_expected <= 0:
            raise SimulationError(f"stray INVAL_ACK for {loc}")
        txn.acks_expected -= 1
        if txn.acks_expected == 0:
            # All processors have observed the write: globally performed.
            self.network.send(
                Message(
                    MsgKind.WRITE_ACK,
                    src=self.node_id,
                    dst=txn.request.src,
                    location=loc,
                    access_uid=txn.request.access_uid,
                )
            )
            self._close(loc)

    def _on_wb_data(self, message: Message) -> None:
        """Owner serviced a GETS_FWD: line downgraded, data written back."""
        loc = message.location
        txn = self._busy.get(loc)
        if txn is None or not txn.waiting_owner:
            raise SimulationError(f"stray WB_DATA for {loc}")
        entry = self.entry(loc)
        self.memory[loc] = message.value
        old_owner = entry.owner
        entry.owner = None
        entry.sharers = {old_owner, message.requester}
        self._close(loc)

    def _on_transfer(self, message: Message) -> None:
        """Owner serviced a GETX_FWD: ownership moved to the requester."""
        loc = message.location
        txn = self._busy.get(loc)
        if txn is None or not txn.waiting_owner:
            raise SimulationError(f"stray TRANSFER for {loc}")
        entry = self.entry(loc)
        entry.owner = message.requester
        entry.sharers = set()
        self._close(loc)

    def _close(self, loc: Location) -> None:
        self._busy.pop(loc, None)
        waiting = self._waiting.get(loc)
        if waiting:
            message = waiting.popleft()
            if not waiting:
                del self._waiting[loc]
            self._busy[loc] = _DirTransaction(message)
            self.sim.after(self._service_latency(), partial(self._process, message))

    # ------------------------------------------------------------------

    def final_value(self, location: Location, caches) -> Value:
        """Final memory value, honouring a modified copy in some cache."""
        entry = self.entry(location)
        if entry.owner is not None:
            for cache in caches:
                if cache.node_id == entry.owner:
                    return cache.line(location).value
        return self.memory[location]


#: Handler per message kind the directory can receive.
_MESSAGE_HANDLERS: Dict[MsgKind, Callable[[Directory, Message], None]] = {
    MsgKind.GETS: Directory._accept_request,
    MsgKind.GETX: Directory._accept_request,
    MsgKind.WB_EVICT: Directory._accept_request,
    MsgKind.INVAL_ACK: Directory._on_inval_ack,
    MsgKind.WB_DATA: Directory._on_wb_data,
    MsgKind.TRANSFER: Directory._on_transfer,
    MsgKind.NACK_DONE: Directory._on_nack_done,
}
