"""Axiomatic memory models over candidate executions.

Each model is a conjunction of acyclicity axioms over fragments of
``po ∪ rf ∪ co ∪ fr``:

* :class:`SCModel` -- sequential consistency: ``acyclic(po ∪ rf ∪ co ∪ fr)``
  (the standard equivalent of Lamport's definition for candidate
  executions);
* :class:`TSOModel` -- a TSO-like model: program order loses its
  write-to-read edges (different locations, no intervening fence),
  internal reads-from is relaxed (store-to-load forwarding), and
  SC-per-location is kept.  Included as the classic "write buffer with
  bypassing" comparison point;
* :class:`CoherenceModel` -- only per-location orderings (what a cache
  coherence protocol alone guarantees; [Col90]'s write serialization).

:class:`WeakOrderingDRF` wraps the contract view of the paper's
Definition 2: for programs that obey DRF0 it admits exactly the SC
candidates; for other programs it admits everything coherent (the paper
lets non-conforming software observe anything the substrate can produce,
"random values" included -- coherence is our substrate's floor).

Every model exposes its axioms in two equivalent forms:

* :meth:`AxiomaticModel.allows` -- the batch predicate over a finished
  :class:`~repro.axiomatic.candidates.Candidate` (used by the legacy
  enumerator oracle and by single-candidate queries);
* :meth:`AxiomaticModel.axiom_graphs` -- the same axioms as
  :class:`AxiomGraph` descriptors (static program-order edge lists plus
  an rf filter), which the incremental solver
  (:mod:`repro.axiomatic.solver`) turns into online cycle detectors.

Both forms are derived from the same edge-pair helpers, so the solver and
the oracle cannot drift apart on what each axiom contains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.axiomatic.candidates import Candidate
from repro.axiomatic.events import Event, EventLayout
from repro.machine.program import Program


@dataclass(frozen=True)
class AxiomGraph:
    """One acyclicity axiom: a static po fragment plus dynamic edges.

    ``po_pairs`` is the model's program-order contribution, fixed per
    program.  The dynamic relations are implied: every axiom graph also
    contains ``co``, ``fr``, and ``rf`` -- all of rf when
    ``external_rf_only`` is False, only cross-processor rf edges when
    True (TSO's ``rfe``: store-to-load forwarding drops internal rf from
    the global ordering requirement).
    """

    name: str
    po_pairs: Tuple[Tuple[int, int], ...]
    external_rf_only: bool = False


def _by_proc(events: Sequence[Event]) -> List[List[Event]]:
    by_proc: dict = {}
    for event in events:
        by_proc.setdefault(event.proc, []).append(event)
    rows = []
    for proc in sorted(by_proc):
        row = by_proc[proc]
        row.sort(key=lambda e: e.po_index)
        rows.append(row)
    return rows


def po_adjacent_pairs(layout: EventLayout) -> Tuple[Tuple[int, int], ...]:
    """Adjacent same-thread pairs: the transitive reduction of po."""
    edges = []
    for row in _by_proc(layout.events):
        for a, b in zip(row, row[1:]):
            edges.append((a.uid, b.uid))
    return tuple(edges)


def po_loc_pairs(layout: EventLayout) -> Tuple[Tuple[int, int], ...]:
    """Each event paired with the next event of its own thread on the
    same location: the transitive reduction of po|same-loc, whatever
    accesses to other locations sit between the two."""
    edges = []
    for row in _by_proc(layout.events):
        last: dict = {}
        for event in row:
            if event.location in last:
                edges.append((last[event.location], event.uid))
            last[event.location] = event.uid
    return tuple(edges)


def tso_ppo_pairs(layout: EventLayout) -> Tuple[Tuple[int, int], ...]:
    """TSO's preserved program order, over the *closure* of po.

    The filter must look at every same-thread pair, not just adjacent
    ones: with only adjacent edges, a dropped W->R edge would be
    recreated transitively through an intermediate event.  A pair is
    dropped when it is a write-only event before a read-only event of a
    different location -- unless a fence sits po-between them, which
    restores the ordering (the write buffer drains at the fence).
    """
    edges = []
    for row in _by_proc(layout.events):
        for i, a in enumerate(row):
            for b in row[i + 1 :]:
                relaxed = (
                    a.is_write
                    and not a.is_read
                    and b.is_read
                    and not b.is_write
                    and a.location != b.location
                    and not layout.fence_between(a, b)
                )
                if not relaxed:
                    edges.append((a.uid, b.uid))
    return tuple(edges)


def _candidate_layout(candidate: Candidate) -> EventLayout:
    layout = candidate.__dict__.get("_layout")
    if layout is None:
        layout = EventLayout(tuple(candidate.events), candidate.fences)
        candidate.__dict__["_layout"] = layout
    return layout


def _kahn(
    po_succ: Sequence[Sequence[int]],
    po_indeg: Sequence[int],
    edges: Iterable[Tuple[int, int]],
) -> bool:
    """True when a static adjacency plus ``edges`` is acyclic.

    Kahn's in-degree count over nodes ``0..n-1``: the union is acyclic
    exactly when every node can be peeled off once its in-degree is 0.
    ``po_succ`` and ``po_indeg`` are left untouched.
    """
    succ = [list(targets) for targets in po_succ]
    indeg = list(po_indeg)
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    ready = [node for node, degree in enumerate(indeg) if not degree]
    for node in ready:  # grows while it is walked
        for target in succ[node]:
            indeg[target] -= 1
            if not indeg[target]:
                ready.append(target)
    return len(ready) == len(indeg)


def _po_reach(n: int, pairs: Iterable[Tuple[int, int]]) -> List[int]:
    """Per node, a bitmask of the nodes it reaches over ``pairs``."""
    succ: List[List[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        succ[a].append(b)
    reach = []
    for node in range(n):
        seen = 0
        stack = list(succ[node])
        while stack:
            target = stack.pop()
            if not seen >> target & 1:
                seen |= 1 << target
                stack.extend(succ[target])
        reach.append(seen)
    return reach


def _containment(
    n: int, graphs: Sequence[AxiomGraph]
) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]]]:
    """Which graphs lie inside which, for every candidate alike.

    Graph A lies inside graph B when every po pair of A is in the
    transitive closure of B's po pairs, and A's rf is no larger than B's
    (A takes only external rf, or B takes all of it); both take all of
    co and fr.  Then every edge of A is a path of B, so a cycle of A
    maps to a cycle of B: B acyclic settles A acyclic, and A cyclic
    settles B cyclic.  Returns, per graph, the graphs inside it and the
    graphs around it, each including the graph itself.
    """
    reach = [_po_reach(n, graph.po_pairs) for graph in graphs]
    inside: List[List[int]] = [[] for _ in graphs]
    around: List[List[int]] = [[] for _ in graphs]
    for a, inner in enumerate(graphs):
        for b, outer in enumerate(graphs):
            if (
                inner.external_rf_only or not outer.external_rf_only
            ) and all(reach[b][x] >> y & 1 for x, y in inner.po_pairs):
                inside[b].append(a)
                around[a].append(b)
    return [tuple(g) for g in inside], [tuple(g) for g in around]


class AcyclicityCheck:
    """Which of a program's axiom graphs a candidate keeps acyclic.

    Built once per program: each graph's po edges become an adjacency
    list over the layout's event uids, which must be dense (``0..n-1``,
    as :func:`~repro.axiomatic.events.extract_layout` numbers them).
    :meth:`holds` then builds a candidate's rf, co and fr edges once --
    and TSO's external-rf subset once, if a graph asks for it -- and runs
    :func:`_kahn` once per graph over its po edges plus those.

    With two or more graphs the check also works out which graphs lie
    inside which (:func:`_containment`), and :meth:`verdicts` decides a
    candidate's graphs lazily from that.
    """

    #: Per graph: the graphs inside it, the graphs around it, and the
    #: graphs :class:`LazyVerdicts` runs to decide it.  A lone graph
    #: keeps these class defaults, so a one-graph check (every
    #: :meth:`AxiomaticModel.allows` call) builds no tables.
    _inside = _around = _settlers = ((0,),)

    def __init__(
        self, layout: EventLayout, graphs: Sequence[AxiomGraph]
    ) -> None:
        n = len(layout.events)
        if sorted(e.uid for e in layout.events) != list(range(n)):
            raise ValueError("axiom graphs need dense event uids 0..n-1")
        self._external = any(graph.external_rf_only for graph in graphs)
        if self._external:
            self._proc = [0] * n
            for event in layout.events:
                self._proc[event.uid] = event.proc
        self._po: List[Tuple[List[List[int]], List[int], bool]] = []
        for graph in graphs:
            succ: List[List[int]] = [[] for _ in range(n)]
            indeg = [0] * n
            for a, b in graph.po_pairs:
                succ[a].append(b)
                indeg[b] += 1
            self._po.append((succ, indeg, graph.external_rf_only))
        if len(graphs) > 1:
            self._inside, self._around = _containment(n, graphs)
            # To decide a graph, first run the graph inside it that lies
            # inside the most others (if cyclic, it settles the graph),
            # then the graph itself.
            self._settlers = []
            for graph, inner in enumerate(self._inside):
                first = min(inner, key=lambda g: (-len(self._around[g]), g))
                self._settlers.append(
                    (first, graph) if first != graph else (graph,)
                )

    def lies_inside(self, inner: int, outer: int) -> bool:
        """True when graph ``inner`` lies inside graph ``outer``."""
        return inner in self._inside[outer]

    def _edges(
        self, candidate: Candidate
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        """The candidate's co, fr and rf edges, and the same with rfe in
        place of rf (the first list again when no graph takes rfe)."""
        co_fr: List[Tuple[int, int]] = []
        for order in candidate.co.values():
            co_fr.extend(zip(order, order[1:]))
        co_fr.extend(candidate.fr_edges())
        rf = [
            (src, read)
            for read, src in candidate.rf.items()
            if src is not None and src != read
        ]
        dynamic = co_fr + rf
        if not self._external:
            return dynamic, dynamic
        proc = self._proc
        return dynamic, co_fr + [(a, b) for a, b in rf if proc[a] != proc[b]]

    def holds(self, candidate: Candidate) -> List[bool]:
        """One verdict per graph, in order: True when acyclic."""
        dynamic, external = self._edges(candidate)
        return [
            _kahn(succ, indeg, external if external_rf_only else dynamic)
            for succ, indeg, external_rf_only in self._po
        ]

    def verdicts(self, candidate: Candidate) -> "LazyVerdicts":
        """:meth:`holds`, with each graph decided when first asked."""
        return LazyVerdicts(self, *self._edges(candidate))


class LazyVerdicts:
    """One candidate's graph verdicts, decided on first use.

    ``verdicts[i]`` equals ``check.holds(candidate)[i]``.  Asked for an
    undecided graph, it runs :func:`_kahn` on the graph inside that
    graph that lies inside the most others, and then, if that run was
    acyclic, on the graph itself.  Each run settles more than its own
    graph: an acyclic graph every graph inside it, a cyclic graph every
    graph around it.  On SC, TSO and COHERENCE the first run is the
    coherence graph, whose cycle alone rejects all three.
    """

    __slots__ = ("_check", "_dynamic", "_external", "_known")

    def __init__(
        self,
        check: AcyclicityCheck,
        dynamic: List[Tuple[int, int]],
        external: List[Tuple[int, int]],
    ) -> None:
        self._check = check
        self._dynamic = dynamic
        self._external = external
        self._known: List[Optional[bool]] = [None] * len(check._po)

    def __getitem__(self, index: int) -> bool:
        known = self._known
        verdict = known[index]
        if verdict is None:
            check = self._check
            for graph in check._settlers[index]:
                if known[graph] is not None:
                    continue
                succ, indeg, external_rf_only = check._po[graph]
                edges = self._external if external_rf_only else self._dynamic
                if _kahn(succ, indeg, edges):
                    for inner in check._inside[graph]:
                        known[inner] = True
                else:
                    for outer in check._around[graph]:
                        known[outer] = False
                verdict = known[index]
                if verdict is not None:
                    break
        return verdict


def _graph_allows(candidate: Candidate, graph: AxiomGraph) -> bool:
    """One graph on one candidate: :class:`AcyclicityCheck`'s simplest case."""
    check = AcyclicityCheck(_candidate_layout(candidate), [graph])
    return check.holds(candidate)[0]


class AxiomaticModel:
    """Base: a predicate over candidate executions."""

    name = "abstract"

    def axiom_graphs(
        self, program: Program, layout: EventLayout
    ) -> List[AxiomGraph]:
        """The model's acyclicity axioms for this program's layout."""
        raise NotImplementedError

    def allows(self, candidate: Candidate) -> bool:
        """True when this model admits the candidate."""
        layout = _candidate_layout(candidate)
        return all(
            _graph_allows(candidate, graph)
            for graph in self.axiom_graphs(candidate.program, layout)
        )


class SCModel(AxiomaticModel):
    """Sequential consistency: acyclic(po ∪ rf ∪ co ∪ fr)."""

    name = "SC"

    def axiom_graphs(
        self, program: Program, layout: EventLayout
    ) -> List[AxiomGraph]:
        return [AxiomGraph("sc", po_adjacent_pairs(layout))]


class CoherenceModel(AxiomaticModel):
    """Per-location SC only: what write serialization alone guarantees."""

    name = "COHERENCE"

    def axiom_graphs(
        self, program: Program, layout: EventLayout
    ) -> List[AxiomGraph]:
        return [AxiomGraph("coherence", po_loc_pairs(layout))]


class TSOModel(AxiomaticModel):
    """TSO-like: write->read program order relaxed, store forwarding.

    ``ppo`` drops write-to-read pairs (restored by fences); external
    reads-from, coherence and from-read stay global; per-location SC is
    enforced separately.  A faithful SPARC/x86-TSO model has further
    subtleties (this one is the textbook approximation, which is exact on
    the catalog's tests).
    """

    name = "TSO"

    def axiom_graphs(
        self, program: Program, layout: EventLayout
    ) -> List[AxiomGraph]:
        return [
            AxiomGraph("coherence", po_loc_pairs(layout)),
            AxiomGraph(
                "tso", tso_ppo_pairs(layout), external_rf_only=True
            ),
        ]


class WeakOrderingDRF(AxiomaticModel):
    """Definition 2 as an axiomatic contract.

    For a DRF0 program the admitted candidates are exactly the SC ones;
    otherwise anything the coherent substrate can produce is admitted.
    The DRF0 premise is checked once per program with the operational
    checker (:func:`repro.core.drf0.check_program`).
    """

    name = "WO-DRF0"

    def __init__(self) -> None:
        #: ``id(program) -> (program, verdict)``.  The entry holds the
        #: program itself: that keeps its id from being reused by another
        #: program while the entry exists, and lets a lookup confirm it.
        self._verdicts: dict = {}

    def program_is_drf0(self, program: Program) -> bool:
        """The (cached) operational DRF0 verdict the contract hinges on."""
        entry = self._verdicts.get(id(program))
        if entry is not None and entry[0] is program:
            return entry[1]
        from repro.core.drf0 import check_program

        obeys = check_program(program).obeys
        self.prime_verdict(program, obeys)
        return obeys

    def prime_verdict(self, program: Program, obeys: bool) -> None:
        """Pre-seed the DRF0 verdict (campaigns that already know it)."""
        self._verdicts[id(program)] = (program, bool(obeys))

    def axiom_graphs(
        self, program: Program, layout: EventLayout
    ) -> List[AxiomGraph]:
        if self.program_is_drf0(program):
            return SCModel().axiom_graphs(program, layout)
        return CoherenceModel().axiom_graphs(program, layout)


#: The models compared in the E7 litmus table.
ALL_MODELS = [SCModel(), TSOModel(), CoherenceModel(), WeakOrderingDRF()]
