"""Coherence and memory messages exchanged over the interconnect.

The message vocabulary covers both system families:

* cacheless systems: ``MEM_READ`` / ``MEM_WRITE`` / ``MEM_RMW`` requests to a
  memory module and their ``MEM_DATA`` / ``MEM_WRITE_ACK`` replies;
* cache-coherent systems: the directory protocol of Section 5.2 --
  ``GETS``/``GETX`` requests, ``DATA``/``DATA_EX`` replies (data is
  forwarded to the requester in parallel with invalidations),
  ``INVAL``/``INVAL_ACK``, the directory's all-acks-collected ``WRITE_ACK``,
  owner forwarding (``GETS_FWD``/``GETX_FWD``) with ``WB_DATA``/``TRANSFER``
  notifications back to the directory.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.core.types import Location, Value

_message_ids = itertools.count()


class MsgKind(enum.Enum):
    """Every message type in the system."""

    # Cacheless memory-module traffic
    MEM_READ = "mem_read"
    MEM_WRITE = "mem_write"
    MEM_RMW = "mem_rmw"
    MEM_DATA = "mem_data"
    MEM_WRITE_ACK = "mem_write_ack"

    # Directory protocol: processor -> directory
    GETS = "gets"
    GETX = "getx"

    # Directory -> requester.  An exclusive reply always carries the data,
    # even for nominal upgrades: capacity eviction drops shared copies
    # silently, so the directory's sharer set over-approximates and a
    # data-less upgrade grant would be unsound.
    DATA = "data"            # shared copy
    DATA_EX = "data_ex"      # exclusive copy (possibly with invals pending)
    WRITE_ACK = "write_ack"  # all invalidation acks collected

    # Directory -> sharer caches
    INVAL = "inval"

    # Sharer caches -> directory
    INVAL_ACK = "inval_ack"

    # Directory -> owner cache (request forwarding)
    GETS_FWD = "gets_fwd"
    GETX_FWD = "getx_fwd"

    # Owner cache -> directory (after servicing a forward)
    WB_DATA = "wb_data"      # downgrade M->S, carries data back to memory
    TRANSFER = "transfer"    # ownership moved directly to the requester

    # Reserve-bit negative acknowledgement (Section 5.3's retry option):
    # owner refuses a forward for a reserved line; the requester retries.
    NACK = "nack"            # owner -> requester: try again later
    NACK_DONE = "nack_done"  # owner -> directory: close the transaction

    # Capacity eviction (write-back of a dirty victim, synchronous so the
    # directory never forwards to a cache that silently dropped the line).
    WB_EVICT = "wb_evict"    # cache -> directory: evicting a MODIFIED line
    WB_OK = "wb_ok"          # directory -> cache: eviction acknowledged


@dataclass(slots=True)
class Message:
    """One interconnect message.

    Attributes:
        kind: Message type.
        src: Sending node id.
        dst: Destination node id.
        location: Memory location (cache line) concerned.
        value: Data payload where applicable.
        requester: Original requesting node for forwarded requests.
        acks_pending: For ``DATA_EX``: invalidation acks the
            directory will collect before sending ``WRITE_ACK``.
        is_sync: Whether the originating access is a synchronization
            operation (carried so an owning cache can apply the paper's
            reserve-bit stall to remote synchronization requests).
        access_uid: Uid of the originating access, for tracing.
        msg_id: Unique id, for deterministic tie-breaking and debugging.
    """

    kind: MsgKind
    src: str
    dst: str
    location: Location
    value: Optional[Value] = None
    requester: Optional[str] = None
    acks_pending: int = 0
    is_sync: bool = False
    access_uid: Optional[int] = None
    msg_id: int = field(default_factory=_message_ids.__next__)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" val={self.value}" if self.value is not None else ""
        return f"{self.kind.value}({self.src}->{self.dst}, {self.location}{extra})"
