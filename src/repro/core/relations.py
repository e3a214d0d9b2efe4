"""Order relations: program order, synchronization order, happens-before.

The paper defines, for an execution on the idealized architecture:

* ``po`` (program order): ``op1 po op2`` iff ``op1`` occurs before ``op2``
  in program order for some process;
* ``so`` (synchronization order): ``op1 so op2`` iff both are
  synchronization operations accessing the same location and ``op1``
  completes before ``op2``;
* ``hb`` (happens-before): the irreflexive transitive closure of
  ``po ∪ so``.

This module provides a small generic :class:`Relation` toolkit plus
constructors for those three relations.  Synchronization-order edge
selection is parameterized by a :class:`~repro.core.models.SynchronizationModel`
so the DRF1-style refinement of Section 6 (read-only synchronization does
not "release" the issuing processor's previous accesses) reuses the same
machinery.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.execution import Execution
from repro.core.ops import Operation


class Relation:
    """A binary relation over hashable nodes with closure/query helpers."""

    def __init__(self, nodes: Iterable = ()) -> None:
        self._succ: Dict[object, Set[object]] = defaultdict(set)
        self._nodes: Set[object] = set(nodes)

    # -- construction --------------------------------------------------------

    def add(self, a, b) -> None:
        """Add the edge ``a -> b``."""
        self._nodes.add(a)
        self._nodes.add(b)
        self._succ[a].add(b)

    def update(self, other: "Relation") -> None:
        """In-place union with another relation."""
        self._nodes |= other._nodes
        for a, succs in other._succ.items():
            self._succ[a] |= succs

    def union(self, other: "Relation") -> "Relation":
        """New relation containing the edges of both."""
        result = Relation(self._nodes)
        result.update(self)
        result.update(other)
        return result

    # -- queries -------------------------------------------------------------

    @property
    def nodes(self) -> Set[object]:
        """The carrier set."""
        return set(self._nodes)

    def edges(self) -> List[Tuple[object, object]]:
        """All edges as (source, target) pairs."""
        return [(a, b) for a, succs in self._succ.items() for b in succs]

    def successors(self, node) -> Set[object]:
        """Direct successors of ``node``."""
        return set(self._succ.get(node, ()))

    def has_edge(self, a, b) -> bool:
        """True if the direct edge ``a -> b`` exists."""
        return b in self._succ.get(a, ())

    def ordered(self, a, b) -> bool:
        """True if ``b`` is reachable from ``a`` (one or more edges)."""
        if a == b:
            return False
        seen = {a}
        stack = [a]
        while stack:
            node = stack.pop()
            for succ in self._succ.get(node, ()):
                if succ == b:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    def ordered_either_way(self, a, b) -> bool:
        """True if ``a`` and ``b`` are comparable in either direction."""
        return self.ordered(a, b) or self.ordered(b, a)

    def transitive_closure(self) -> "Relation":
        """The irreflexive transitive closure as a new relation."""
        closure = Relation(self._nodes)
        for node in self._nodes:
            seen: Set[object] = set()
            stack = list(self._succ.get(node, ()))
            while stack:
                succ = stack.pop()
                if succ in seen:
                    continue
                seen.add(succ)
                stack.extend(self._succ.get(succ, ()))
            for succ in seen:
                if succ != node:
                    closure.add(node, succ)
        return closure

    def is_acyclic(self) -> bool:
        """True when the relation has no directed cycle."""
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[object, int] = defaultdict(int)

        for root in self._nodes:
            if color[root] != WHITE:
                continue
            stack: List[Tuple[object, Optional[Iterable]]] = [(root, None)]
            while stack:
                node, iterator = stack[-1]
                if iterator is None:
                    color[node] = GREY
                    iterator = iter(self._succ.get(node, ()))
                    stack[-1] = (node, iterator)
                advanced = False
                for succ in iterator:
                    if color[succ] == GREY:
                        return False
                    if color[succ] == WHITE:
                        stack.append((succ, None))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return True

    def topological_order(self) -> List[object]:
        """A total order consistent with the relation; raises on cycles."""
        if not self.is_acyclic():
            raise ValueError("relation is cyclic")
        indegree: Dict[object, int] = {node: 0 for node in self._nodes}
        for _, b in self.edges():
            indegree[b] += 1
        ready = sorted(
            (node for node, deg in indegree.items() if deg == 0),
            key=repr,
        )
        order: List[object] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in sorted(self._succ.get(node, ()), key=repr):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        return order

    def __len__(self) -> int:
        return sum(len(s) for s in self._succ.values())


# ---------------------------------------------------------------------------
# The paper's relations
# ---------------------------------------------------------------------------


def program_order(execution: Execution) -> Relation:
    """The paper's ``po``: per-processor order of memory operations."""
    relation = Relation(execution.ops)
    for proc in range(execution.program.num_procs):
        ops = execution.ops_of(proc)
        for earlier, later in zip(ops, ops[1:]):
            relation.add(earlier, later)
    return relation


def synchronization_order(execution: Execution, model=None) -> Relation:
    """The paper's ``so``: same-location synchronization pairs by completion.

    With ``model`` given, only edges the model treats as ordering (for DRF0:
    all of them; for DRF1: release -> acquire pairs) are included.
    """
    relation = Relation(execution.ops)
    by_location: Dict[str, List[Operation]] = defaultdict(list)
    for op in execution.ops:  # completion order
        if op.is_sync:
            by_location[op.location].append(op)
    for ops in by_location.values():
        for i, earlier in enumerate(ops):
            for later in ops[i + 1 :]:
                if model is None or model.orders(earlier, later):
                    relation.add(earlier, later)
    return relation


def happens_before(execution: Execution, model=None) -> Relation:
    """``hb = (po ∪ so)+`` -- the irreflexive transitive closure.

    ``model`` selects which synchronization edges exist (see
    :func:`synchronization_order`); the paper's DRF0 corresponds to
    ``model=None`` (or the DRF0 model object).
    """
    po = program_order(execution)
    so = synchronization_order(execution, model)
    return po.union(so).transitive_closure()
