"""Fundamental value types shared by every layer of the library.

The paper models a shared-memory MIMD multiprocessor in which processors
issue *memory operations* (data reads, data writes, and synchronization
operations) against named shared locations.  This module pins down the
vocabulary used everywhere else:

* a :class:`Location` is a named shared-memory cell,
* a value is a plain ``int``,
* a processor is identified by a small ``int`` index,
* :class:`OpKind` classifies operations exactly the way Section 5.1 of the
  paper does -- data reads/writes plus read-only, write-only and read-write
  synchronization operations.
"""

from __future__ import annotations

import enum
import operator
from typing import Callable

# A shared-memory location.  Locations are plain strings ("x", "y", "lock")
# so programs and traces stay human-readable.
Location = str

# A processor (equivalently: thread) index, 0-based.
ProcId = int

# Values stored in memory and registers.
Value = int

#: Value every location holds before the program starts (the paper's
#: hypothetical "initializing write to every memory location").
INITIAL_VALUE: Value = 0


class OpKind(enum.Enum):
    """Classification of memory operations.

    Section 5.1 of the paper distinguishes data (ordinary) operations from
    synchronization operations, and further splits synchronization into
    read-only (e.g. ``Test``), write-only (e.g. ``Unset``) and read-write
    (e.g. ``TestAndSet``) operations.  Section 6 exploits exactly this split
    to define the DRF1-style refinement of DRF0.
    """

    DATA_READ = "data_read"
    DATA_WRITE = "data_write"
    SYNC_READ = "sync_read"          # read-only synchronization (Test)
    SYNC_WRITE = "sync_write"        # write-only synchronization (Unset)
    SYNC_RMW = "sync_rmw"            # read-write synchronization (TestAndSet)

    # ``is_sync`` / ``has_read`` / ``has_write`` are plain per-member
    # attributes (assigned below): the exploration engine reads them on
    # every transition, and property dispatch showed up in its profiles.
    is_sync: bool
    has_read: bool
    has_write: bool


for _kind in OpKind:
    #: True for operations recognizable by hardware as synchronization.
    _kind.is_sync = _kind in (OpKind.SYNC_READ, OpKind.SYNC_WRITE, OpKind.SYNC_RMW)
    #: True if the operation has a read component (paper's convention).
    _kind.has_read = _kind in (OpKind.DATA_READ, OpKind.SYNC_READ, OpKind.SYNC_RMW)
    #: True if the operation has a write component (paper's convention).
    _kind.has_write = _kind in (OpKind.DATA_WRITE, OpKind.SYNC_WRITE, OpKind.SYNC_RMW)
del _kind


class Condition(enum.Enum):
    """Comparison conditions used by conditional branches in the ISA."""

    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    # ``compare`` is a plain per-member attribute (assigned below): the
    # interpreter applies it on every executed branch.
    compare: Callable[[Value, Value], bool]

    def evaluate(self, lhs: Value, rhs: Value) -> bool:
        """Apply the comparison to two integer values."""
        return self.compare(lhs, rhs)


for _cond, _compare in (
    (Condition.EQ, operator.eq),
    (Condition.NE, operator.ne),
    (Condition.LT, operator.lt),
    (Condition.LE, operator.le),
    (Condition.GT, operator.gt),
    (Condition.GE, operator.ge),
):
    _cond.compare = _compare
del _cond, _compare
