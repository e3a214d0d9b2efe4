"""Release consistency (RCsc-flavoured), as a comparison policy.

Section 7 calls for "alternative implementations of weak ordering with
respect to data-race-free models"; the design that followed this paper in
the literature (Gharachorloo et al., also ISCA 1990) splits
synchronization into *acquires* (read components) and *releases* (write
components) and relaxes exactly the orders DRF software cannot observe:

* an **acquire** must complete before any later access is generated (it
  guards the critical region's entry), but it need **not** wait for the
  processor's earlier data accesses;
* a **release** must wait until all earlier accesses are globally
  performed (it publishes them), but later *data* accesses need not wait
  for the release;
* synchronization accesses themselves stay sequentially consistent with
  respect to each other (the "sc" in RCsc): a sync access waits for
  earlier sync accesses to be globally performed.

Compared to Definition 1, the win is the acquire side: Definition 1 stalls
a synchronization access until *all* previous accesses are globally
performed, even a lock acquire whose earlier accesses are irrelevant.
Compared to the paper's Section-5.3 implementation, RCsc still stalls the
*releasing* processor (Figure 3's "Def. 1 stalls P0" applies to its
releases too); the Adve-Hill implementation moves even that wait to the
next synchronizer.

The policy runs on the plain cache substrate (no reserve bits); its
Definition-2 conformance for DRF0 programs is checked empirically in the
test suite alongside the other implementations.
"""

from __future__ import annotations

from typing import List

from repro.hw.base import BlockLevel, GateCondition, MemoryPolicy
from repro.sim.access import AccessRecord


class ReleaseConsistencyPolicy(MemoryPolicy):
    """RCsc: acquires gate later accesses, releases gate on earlier ones."""

    name = "release-consistency"

    def generation_gate(self, proc, access: AccessRecord) -> List[GateCondition]:
        gates: List[GateCondition] = []
        if access.is_sync:
            if access.has_write:
                # Release: everything before it must be globally performed.
                gates.extend(
                    GateCondition(prev, BlockLevel.GP)
                    for prev in proc.not_globally_performed()
                )
            else:
                # Acquire-only: sync-sync SC order, not data publication.
                gates.extend(
                    GateCondition(prev, BlockLevel.GP)
                    for prev in proc.pending_syncs(BlockLevel.GP)
                )
        else:
            # Data access: earlier acquires must have completed (their read
            # guards this access); earlier releases impose nothing on it.
            gates.extend(
                GateCondition(prev, BlockLevel.COMMIT)
                for prev in proc.pending_syncs(BlockLevel.COMMIT)
                if prev.has_read
            )
        return gates

    def block_level(self, access: AccessRecord) -> BlockLevel:
        """Reads block implicitly; nothing else blocks the thread."""
        return BlockLevel.NONE
