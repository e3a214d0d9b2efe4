"""Dynamic accesses inside the simulator, with commit / globally-performed events.

Section 5.1 of the paper defines a *commit point* for every operation (a
read commits when its return value is dispatched back towards the
requesting processor; a write commits when its value could be dispatched
for some read) and reuses Dubois et al.'s *globally performed* (a write is
globally performed when its modification has propagated to all processors;
a read when its value is bound and the sourcing write is globally
performed).

:class:`AccessRecord` carries both timestamps plus subscription hooks so
processors and policies can wait for either event.  The simulator's
system-level trace of committed accesses doubles as the hardware execution
used by the verification harness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.ops import Operation
from repro.core.types import Location, OpKind, ProcId, Value


class AccessError(RuntimeError):
    """Raised on double commits / double global-performs and similar bugs."""


class BlockLevel(enum.Enum):
    """How long an issuing thread blocks on an access it generated."""

    NONE = 0      # proceed immediately (fire-and-forget write)
    COMMIT = 1    # wait for the commit point
    GP = 2        # wait until globally performed


#: A subscriber to an access's commit or globally-performed event.
_Callback = Callable[["AccessRecord"], None]


class AccessRecord:
    """One dynamic memory access flowing through the simulated hardware.

    ``is_sync``, ``has_read`` and ``has_write`` are plain attributes copied
    from ``kind`` (the simulator reads them on every step); assigning
    ``kind`` re-derives them, so a copy whose kind is rewritten -- as the
    condition monitor's DRF1 view does -- stays consistent.
    """

    __slots__ = (
        "uid", "proc", "po_index", "_kind", "is_sync", "has_read",
        "has_write", "location", "write_value", "value_read",
        "generate_time", "commit_time", "gp_time", "missed", "nacks",
        "buffered", "_commit_callbacks", "_gp_callbacks",
    )

    def __init__(
        self,
        uid: int,
        proc: ProcId,
        po_index: int,
        kind: OpKind,
        location: Location,
        write_value: Optional[Value],
    ) -> None:
        self.uid = uid
        self.proc = proc
        self.po_index = po_index
        self._kind = kind
        self.is_sync = kind.is_sync
        self.has_read = kind.has_read
        self.has_write = kind.has_write
        self.location = location
        self.write_value = write_value
        self.value_read: Optional[Value] = None

        self.generate_time: Optional[int] = None
        self.commit_time: Optional[int] = None
        self.gp_time: Optional[int] = None

        #: Attribution breadcrumbs for the observability layer (set by the
        #: memory system as the access is serviced): whether the access
        #: left the processor's port (cache miss / memory round trip), how
        #: many times it was negative-acked off a reserved line, and
        #: whether it committed into a write buffer.
        self.missed: bool = False
        self.nacks: int = 0
        self.buffered: bool = False

        #: Subscribers, allocated on first subscription (most accesses
        #: have at most one).
        self._commit_callbacks: Optional[List[_Callback]] = None
        self._gp_callbacks: Optional[List[_Callback]] = None

    # -- classification ------------------------------------------------------

    @property
    def kind(self) -> OpKind:
        """The operation kind (data/sync, read/write/RMW)."""
        return self._kind

    @kind.setter
    def kind(self, kind: OpKind) -> None:
        self._kind = kind
        self.is_sync = kind.is_sync
        self.has_read = kind.has_read
        self.has_write = kind.has_write

    # -- lifecycle -----------------------------------------------------------

    @property
    def generated(self) -> bool:
        """True once the processor has handed the access to the memory system."""
        return self.generate_time is not None

    @property
    def committed(self) -> bool:
        """True once the access has committed (Section 5.1 commit point)."""
        return self.commit_time is not None

    @property
    def globally_performed(self) -> bool:
        """True once the access is globally performed."""
        return self.gp_time is not None

    def mark_generated(self, time: int) -> None:
        """Record the generation time (first hand-off to the memory system)."""
        if self.generate_time is not None:
            raise AccessError(f"access {self.uid} generated twice")
        self.generate_time = time

    def mark_committed(self, time: int, value_read: Optional[Value] = None) -> None:
        """Commit the access, delivering the read component's value."""
        if self.commit_time is not None:
            raise AccessError(f"access {self.uid} committed twice")
        if value_read is None and self.has_read:
            raise AccessError(f"read access {self.uid} committed without a value")
        self.commit_time = time
        self.value_read = value_read
        callbacks = self._commit_callbacks
        if callbacks is not None:
            self._commit_callbacks = None
            for callback in callbacks:
                callback(self)

    def mark_globally_performed(self, time: int) -> None:
        """Mark the access globally performed, firing subscribers."""
        if self.gp_time is not None:
            raise AccessError(f"access {self.uid} globally performed twice")
        self.gp_time = time
        callbacks = self._gp_callbacks
        if callbacks is not None:
            self._gp_callbacks = None
            for callback in callbacks:
                callback(self)

    # -- subscriptions ------------------------------------------------------

    def on_commit(self, callback: Callable[["AccessRecord"], None]) -> None:
        """Invoke ``callback`` at commit (immediately if already committed)."""
        if self.commit_time is not None:
            callback(self)
        elif self._commit_callbacks is None:
            self._commit_callbacks = [callback]
        else:
            self._commit_callbacks.append(callback)

    def on_globally_performed(
        self, callback: Callable[["AccessRecord"], None]
    ) -> None:
        """Invoke ``callback`` at global perform (immediately if already done)."""
        if self.gp_time is not None:
            callback(self)
        elif self._gp_callbacks is None:
            self._gp_callbacks = [callback]
        else:
            self._gp_callbacks.append(callback)

    # -- conversion -----------------------------------------------------------

    def to_operation(self) -> Operation:
        """Freeze into a :class:`~repro.core.ops.Operation` (post-commit)."""
        if not self.committed:
            raise AccessError(f"access {self.uid} not committed yet")
        return Operation(
            uid=self.uid,
            proc=self.proc,
            po_index=self.po_index,
            kind=self.kind,
            location=self.location,
            value_read=self.value_read,
            value_written=self.write_value if self.has_write else None,
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"access#{self.uid}(P{self.proc} {self.kind.value} {self.location} "
            f"gen={self.generate_time} commit={self.commit_time} gp={self.gp_time})"
        )

@dataclass(frozen=True)
class GateCondition:
    """One prerequisite for generating an access: ``access`` reaches ``level``."""

    access: "AccessRecord"
    level: BlockLevel

    @property
    def satisfied(self) -> bool:
        """True when the prerequisite already holds."""
        if self.level is BlockLevel.COMMIT:
            return self.access.committed
        if self.level is BlockLevel.GP:
            return self.access.globally_performed
        return True

    def subscribe(self, callback) -> None:
        """Invoke ``callback`` once the prerequisite holds."""
        if self.level is BlockLevel.COMMIT:
            self.access.on_commit(lambda _a: callback())
        elif self.level is BlockLevel.GP:
            self.access.on_globally_performed(lambda _a: callback())
        else:  # pragma: no cover - NONE gates are never created
            callback()
