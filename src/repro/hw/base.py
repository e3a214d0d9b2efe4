"""Memory-system policy interface.

A *policy* is the processor-side ordering discipline: it decides when an
access may be **generated** (handed to the memory system) and how long the
issuing thread must block on it.  The cache substrate is shared; the three
implementations the paper compares differ only in policy (plus the cache
controller's reserve-bit machinery, which a policy switches on):

* :class:`~repro.hw.sc_impl.SCPolicy` -- the [ScD87] sufficient condition
  for sequential consistency;
* :class:`~repro.hw.wo_definition1.Definition1Policy` -- Dubois/Scheurich/
  Briggs weak ordering (the paper's Definition 1);
* :class:`~repro.hw.wo_adve_hill.AdveHillPolicy` -- the paper's Section-5.3
  implementation of weak ordering w.r.t. DRF0 (Definition 2);
* :class:`~repro.hw.relaxed.RelaxedPolicy` -- no ordering at all, used to
  demonstrate the Figure-1 violations.

Two universal rules are enforced by the processor itself, not by policies:
intra-processor dependencies are preserved (condition 1 of Section 5.1 --
the front end is in-order and an access's operands are ready when it is
generated), and an access with a read component always blocks the issuing
thread until its value returns (the value feeds the program).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List

# BlockLevel and GateCondition live beside AccessRecord (they describe the
# access lifecycle); re-exported here because they are part of the policy API.
from repro.sim.access import AccessRecord, BlockLevel, GateCondition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.processor import Processor


class MemoryPolicy(abc.ABC):
    """Ordering discipline consulted by the processor front end."""

    #: Identifier used in reports and benchmark tables.
    name: str = "abstract"
    #: True if the policy only makes sense on the cache-coherent substrate.
    requires_caches: bool = False
    #: Switch on the Section-5.3 reserve-bit machinery in the caches.
    use_reserve_bits: bool = False
    #: Route read-only synchronization through the plain read path
    #: (the Section-6 / DRF1 optimization).
    drf1_optimized: bool = False
    #: Interpose a read-bypassing write buffer in front of the cache
    #: (only the relaxed strawman does this; see sim/write_buffer.py).
    buffers_cache_writes: bool = False

    @abc.abstractmethod
    def generation_gate(
        self, proc: "Processor", access: AccessRecord
    ) -> List[GateCondition]:
        """Prerequisites before ``access`` may be generated.

        ``proc`` exposes the issuing processor's bookkeeping
        (``not_globally_performed()``, ``pending_syncs(level)``,
        ``last_generated``), all in program order.
        """

    def block_level(self, access: AccessRecord) -> BlockLevel:
        """Extra blocking after generation (beyond the implicit read block)."""
        return BlockLevel.NONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryPolicy {self.name}>"
