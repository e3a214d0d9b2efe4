"""The paper's Section-5.3 implementation of weak ordering w.r.t. DRF0.

The key inversion of Definition 1: the processor that issues a
synchronization operation does **not** stall for its previous accesses to
be globally performed.  Instead, the *next* processor to synchronize on the
same location stalls, via the cache-resident mechanism:

* a per-processor counter of outstanding accesses (owned by the cache
  controller in :mod:`repro.sim.cache`, faithful to the paper's increment /
  decrement rules);
* a reserve bit on the cache line a synchronization operation commits to
  while the counter is positive; reserve bits clear when the counter reads
  zero, and a remote request forwarded to a reserved line stalls until then
  (condition 5 of Section 5.1).

Processor-side, only condition 4 remains: no new access is generated until
all the processor's previous synchronization operations have **committed**
(not globally performed!) -- i.e. until the sync line has been procured in
exclusive state and the operation performed on it.

With ``drf1_optimized`` (Section 6), read-only synchronization operations
(``Test``) are issued down the ordinary cached-read path: they can hit on a
shared copy, are not serialized by ownership transfers, and never set
reserve bits.  This removes the spin-serialization penalty of
Test-and-TestAndSet under the base implementation, at the price of the
weaker DRF1 software model.
"""

from __future__ import annotations

from typing import List

from repro.hw.base import BlockLevel, GateCondition, MemoryPolicy
from repro.sim.access import AccessRecord


class AdveHillPolicy(MemoryPolicy):
    """The new implementation: counters + reserve bits, commit-level gates."""

    name = "weak-ordering-adve-hill"
    requires_caches = True
    use_reserve_bits = True

    def __init__(self, drf1_optimized: bool = False) -> None:
        self.drf1_optimized = drf1_optimized
        if drf1_optimized:
            self.name = "weak-ordering-adve-hill-drf1"

    def generation_gate(self, proc, access: AccessRecord) -> List[GateCondition]:
        """Condition 4: previous sync operations must have committed."""
        return [
            GateCondition(sync, BlockLevel.COMMIT)
            for sync in proc.pending_syncs(BlockLevel.COMMIT)
        ]

    def block_level(self, access: AccessRecord) -> BlockLevel:
        """No extra blocking; reads block implicitly, writes overlap."""
        return BlockLevel.NONE
