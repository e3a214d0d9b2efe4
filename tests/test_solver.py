"""Property tests for the incremental axiomatic solver.

The solver (:mod:`repro.axiomatic.solver`) must be *bit-identical* to the
legacy generate-then-filter enumerator on every query: same result sets,
same well-formed candidate counts, same budget behaviour.  These tests
pin that equivalence on the litmus catalog and on a generated corpus of
200+ random programs, then cover the solver-only surfaces (pinned target
mode, backend routing, budgets) and the differential-campaign plumbing
built on top of it (shrinking, minimization, cross-checks).
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import time

import pytest

from repro.axiomatic import (
    AxiomGraph,
    CoherenceModel,
    SCModel,
    SearchBudgetExceeded,
    SolverConfig,
    TSOModel,
    UnsupportedProgram,
    WeakOrderingDRF,
    allowed_candidates,
    allowed_results,
    allowed_results_by_model,
    enumerate_candidates,
    extract_layout,
    result_allowed,
    solve_candidates,
    well_formed_candidates,
)
from repro.axiomatic import candidates as candidates_module
from repro.axiomatic.candidates import BUDGET_CHECK_INTERVAL, _resolve
from repro.axiomatic.checker import outcome_table
from repro.axiomatic.events import EventLayout
from repro.axiomatic.models import AcyclicityCheck, _graph_allows
from repro.core.relations import Relation
from repro.core.sc import sc_results
from repro.litmus.catalog import all_tests, store_buffer, tas_mutex
from repro.machine.dsl import ThreadBuilder, build_program
from repro.machine.generator import random_program, shrink_program
from repro.machine.isa import Store
from repro.verify.diff import (
    Disagreement,
    compare_program,
    diff_campaign,
    diff_one_seed,
    merge_diff_outcomes,
    minimize_disagreement,
    render_program,
    report_as_dict,
)
from repro.verify.sweeps import axiomatic_cross_check


def _models():
    return [SCModel(), CoherenceModel(), TSOModel(), WeakOrderingDRF()]


def _assert_backends_agree(program):
    allowed = {}
    for model in _models():
        solver = allowed_results(program, model, backend="solver")
        oracle = allowed_results(program, model, backend="enumerator")
        assert solver == oracle, (
            f"{program.name} under {model.name}: solver and enumerator "
            f"disagree ({len(solver)} vs {len(oracle)} results)"
        )
        allowed[model.name] = solver
    # COHERENCE keeps only SC's per-location orderings.
    assert allowed["SC"] <= allowed["COHERENCE"], program.name


class TestBackendBitIdentity:
    def test_litmus_catalog(self):
        """Every supported catalog test, every model, both backends."""
        supported = 0
        for test in all_tests():
            try:
                _assert_backends_agree(test.program)
            except UnsupportedProgram:
                continue
            supported += 1
        # The catalog's straight-line tests, including the fenced and
        # RMW ones, must all go through both backends.
        assert supported >= 16

    @pytest.mark.parametrize("chunk", range(8))
    def test_generated_corpus(self, chunk):
        """200+ random programs, every model, both backends."""
        for seed in range(chunk * 25, chunk * 25 + 25):
            _assert_backends_agree(random_program(seed))

    def test_rmw_program(self):
        """Competing test-and-sets exercise the RMW unit propagation."""
        t0 = ThreadBuilder().test_and_set("r0", "s", set_value=1)
        t1 = ThreadBuilder().test_and_set("r1", "s", set_value=2).unset("s")
        _assert_backends_agree(build_program([t0, t1], name="tas-race"))

    def test_fence_program(self):
        """Fences reach both backends through the shared event layout."""
        t0 = ThreadBuilder().store("x", 1).fence().load("r0", "y")
        t1 = ThreadBuilder().store("y", 1).fence().load("r1", "x")
        program = build_program([t0, t1], name="sb-fenced")
        _assert_backends_agree(program)
        # The fence forbids the store-buffer relaxation under TSO: the
        # r0=0, r1=0 outcome must be gone from the TSO set too.
        assert allowed_results(program, TSOModel()) == allowed_results(
            program, SCModel()
        )

    def test_solver_matches_operational_sc(self):
        for seed in range(20):
            program = random_program(seed)
            assert allowed_results(program, SCModel()) == sc_results(program)


def _deep_program(writes):
    """E18's deep shape: ``writes`` stores to one location over 3 threads,
    plus 2 loads (a ``writes!`` coherence-permutation factor)."""
    threads = [ThreadBuilder() for _ in range(3)]
    for i in range(writes):
        threads[i % 3].store("x", i + 1)
    threads[0].load("r0", "x")
    threads[2].load("r1", "x")
    return build_program(threads, name=f"deep{writes}")


def _tas_program(n):
    """``n`` test-and-sets on one location over 3 threads: almost every
    (rf, co) combination breaks RMW atomicity."""
    threads = [ThreadBuilder() for _ in range(3)]
    for i in range(n):
        threads[i % 3].test_and_set(f"r{i}", "s", set_value=i + 1)
    return build_program(threads, name=f"tas{n}")


def _rmw_dependent_program():
    """RMWs beside stores whose values depend on earlier reads, one of
    them the value an RMW read, plus a load-buffering value cycle that
    value resolution must reject (out-of-thin-air candidates)."""
    t0 = (
        ThreadBuilder()
        .test_and_set("r0", "s", set_value=1)
        .store("x", "r0")
        .load("r1", "y")
        .store("z", "r1")
    )
    t1 = (
        ThreadBuilder()
        .load("r2", "z")
        .store("y", "r2")
        .test_and_set("r3", "s", set_value=2)
    )
    t2 = ThreadBuilder().store("s", 3).load("r4", "x").store("y", 1)
    return build_program([t0, t1, t2], name="rmw-dep")


def _assert_one_pass_matches(program, backend):
    models = _models()
    expected = {
        model.name: allowed_results(program, model, backend)
        for model in models
    }
    assert allowed_results_by_model(program, models, backend) == expected, (
        f"{program.name}: one pass disagrees with per-model {backend}"
    )


class TestOnePassOracle:
    """``allowed_results_by_model`` == one ``allowed_results`` per model."""

    @pytest.mark.parametrize("backend", ["solver", "enumerator"])
    def test_catalog_deep_and_tas(self, backend):
        programs = [test.program for test in all_tests()] + [
            _deep_program(5),
            _tas_program(4),
        ]
        checked = 0
        for program in programs:
            try:
                _assert_one_pass_matches(program, backend)
            except UnsupportedProgram:
                continue
            checked += 1
        assert checked >= 18

    @pytest.mark.parametrize("backend", ["solver", "enumerator"])
    @pytest.mark.parametrize("chunk", range(4))
    def test_generated_corpus(self, backend, chunk):
        for seed in range(chunk * 100, chunk * 100 + 100):
            _assert_one_pass_matches(random_program(seed), backend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            allowed_results_by_model(store_buffer().program, _models(), "z3")


def _reference_candidates(program):
    """Brute force: :func:`_resolve` over the unfiltered rf x co product,
    in the enumerator's rf-major order."""
    layout = extract_layout(program)
    reads = [e for e in layout.events if e.is_read]
    writes_by_loc = {}
    for e in layout.events:
        if e.is_write:
            writes_by_loc.setdefault(e.location, []).append(e.uid)
    locations = sorted(writes_by_loc)
    rf_choices = [
        [None] + writes_by_loc.get(read.location, []) for read in reads
    ]
    co_choices = [
        list(itertools.permutations(writes_by_loc[loc])) for loc in locations
    ]
    for rf_pick in itertools.product(*rf_choices):
        rf = {read.uid: src for read, src in zip(reads, rf_pick)}
        for co_pick in itertools.product(*co_choices):
            candidate = _resolve(
                program, layout, rf, dict(zip(locations, co_pick))
            )
            if candidate is not None:
                yield candidate


def _shape(candidate):
    return (
        candidate.rf,
        candidate.co,
        candidate.read_values,
        candidate.write_values,
    )


class TestEnumeratorReference:
    """The enumerator yields exactly what ``_resolve`` keeps of the
    unfiltered rf x co product, in rf-major order."""

    def _assert_same(self, program):
        assert [_shape(c) for c in enumerate_candidates(program)] == [
            _shape(c) for c in _reference_candidates(program)
        ], f"{program.name}: enumerator differs from the brute force"

    def test_catalog_and_tas(self):
        checked = 0
        for program in [t.program for t in all_tests()] + [_tas_program(4)]:
            try:
                self._assert_same(program)
            except UnsupportedProgram:
                continue
            checked += 1
        assert checked >= 17

    def test_rmw_programs(self):
        """tas5 (120 candidates among 933,120 combinations), and RMWs
        mixed with read-dependent stores and a value cycle."""
        self._assert_same(_tas_program(5))
        program = _rmw_dependent_program()
        self._assert_same(program)
        assert sum(1 for _ in enumerate_candidates(program)) > 0

    @pytest.mark.parametrize("chunk", range(2))
    def test_generated_corpus(self, chunk):
        for seed in range(chunk * 100, chunk * 100 + 100):
            self._assert_same(random_program(seed))


class TestRmwFilter:
    """The enumerator hands :func:`_resolve` only RMW-atomic (rf, co)
    pairs, and its budget hook still counts the rf picks it skips."""

    @pytest.mark.parametrize(
        "name, expected", [("tas5", 120), ("fuzz-34", 1152)]
    )
    def test_resolve_runs_once_per_candidate(
        self, monkeypatch, name, expected
    ):
        program = _tas_program(5) if name == "tas5" else random_program(34)
        assert program.name == name
        calls = []

        def counting(*args, **kwargs):
            candidate = _resolve(*args, **kwargs)
            calls.append(candidate is not None)
            return candidate

        monkeypatch.setattr(candidates_module, "_resolve", counting)
        assert sum(1 for _ in enumerate_candidates(program)) == expected
        # The unfiltered product calls it 933,120 and 73,728 times.
        assert calls == [True] * expected

    def test_budget_hook_counts_skipped_rf_picks(self):
        """tas5 has 6**5 = 7,776 rf picks; 120 meet one co pick each and
        the other 7,656 meet none.  Every pick is one step, so the hook
        fires at steps 0, 256, ..., 7,680."""
        calls = []
        count = sum(
            1
            for _ in enumerate_candidates(
                _tas_program(5), lambda: calls.append(1)
            )
        )
        assert count == 120
        assert len(calls) == math.ceil(6**5 / BUDGET_CHECK_INTERVAL) == 31


def _distinct_graphs(program, layout):
    graphs = {}
    for model in _models():
        for graph in model.axiom_graphs(program, layout):
            graphs.setdefault(graph, None)
    return list(graphs)


def _relation_acyclic(candidate, graph):
    """Reference: one :class:`Relation` over the graph's po pairs and the
    candidate's rf (cross-processor only for TSO's graph), co and fr."""
    relation = Relation()
    for a, b in graph.po_pairs:
        relation.add(a, b)
    for read, src in candidate.rf.items():
        if src is None or src == read:
            continue
        if graph.external_rf_only and (
            candidate.event(src).proc == candidate.event(read).proc
        ):
            continue
        relation.add(src, read)
    for order in candidate.co.values():
        for a, b in zip(order, order[1:]):
            relation.add(a, b)
    for a, b in candidate.fr_edges():
        relation.add(a, b)
    return relation.is_acyclic()


class TestAcyclicityCheck:
    """Kahn's count over shared edges == ``Relation.is_acyclic`` on every
    pair of candidate and distinct axiom graph."""

    def _verdicts(self, programs):
        seen = set()
        for program in programs:
            try:
                layout = extract_layout(program)
            except UnsupportedProgram:
                continue
            graphs = _distinct_graphs(program, layout)
            check = AcyclicityCheck(layout, graphs)
            for candidate in enumerate_candidates(program):
                expected = [_relation_acyclic(candidate, g) for g in graphs]
                assert check.holds(candidate) == expected, program.name
                assert [
                    _graph_allows(candidate, g) for g in graphs
                ] == expected, program.name
                seen.update(expected)
        return seen

    def test_catalog_and_tas(self):
        programs = [t.program for t in all_tests()] + [_tas_program(4)]
        assert self._verdicts(programs) == {True, False}

    @pytest.mark.parametrize("chunk", range(2))
    def test_generated_corpus(self, chunk):
        seeds = range(chunk * 100, chunk * 100 + 100)
        programs = [random_program(seed) for seed in seeds]
        assert self._verdicts(programs) == {True, False}

    def test_sparse_uids_rejected(self):
        layout = extract_layout(store_buffer().program)
        shifted = EventLayout(
            tuple(
                dataclasses.replace(e, uid=e.uid + 1) for e in layout.events
            )
        )
        with pytest.raises(ValueError):
            AcyclicityCheck(
                shifted,
                SCModel().axiom_graphs(store_buffer().program, layout),
            )


class TestLazyVerdicts:
    """``AcyclicityCheck.verdicts`` decides graphs on demand, settling
    others through containment; asked in any order, it gives ``holds``."""

    def _agree(self, programs):
        seen = set()
        for program in programs:
            try:
                layout = extract_layout(program)
            except UnsupportedProgram:
                continue
            graphs = _distinct_graphs(program, layout)
            check = AcyclicityCheck(layout, graphs)
            orders = list(itertools.permutations(range(len(graphs))))
            for candidate in enumerate_candidates(program):
                holds = check.holds(candidate)
                for order in orders:
                    lazy = check.verdicts(candidate)
                    assert [lazy[i] for i in order] == [
                        holds[i] for i in order
                    ], program.name
                seen.update(holds)
        return seen

    def test_catalog_and_tas(self):
        programs = [t.program for t in all_tests()] + [_tas_program(4)]
        assert self._agree(programs) == {True, False}

    @pytest.mark.parametrize("chunk", range(2))
    def test_generated_corpus(self, chunk):
        seeds = range(chunk * 100, chunk * 100 + 100)
        assert self._agree(random_program(seed) for seed in seeds) == {
            True,
            False,
        }

    def test_containment_table(self):
        """coherence and tso lie inside sc, coherence does not lie inside
        tso (its rf is full, tso's external only), and sc lies inside
        neither."""
        thread = ThreadBuilder().store("x", 1).load("r1", "y").load("r2", "x")
        program = build_program([thread, ThreadBuilder().store("y", 1)])
        layout = extract_layout(program)
        (sc,) = SCModel().axiom_graphs(program, layout)
        coherence, tso = TSOModel().axiom_graphs(program, layout)
        check = AcyclicityCheck(layout, [sc, coherence, tso])
        assert check.lies_inside(1, 0)
        assert check.lies_inside(2, 0)
        assert not check.lies_inside(1, 2)
        assert not check.lies_inside(2, 1)
        assert not check.lies_inside(0, 1)
        assert not check.lies_inside(0, 2)
        assert all(check.lies_inside(g, g) for g in range(3))
        # tso keeps the store-to-load pair on x, which skips the load of
        # y: it lies inside sc only through the closure of sc's po.
        assert not set(tso.po_pairs) <= set(sc.po_pairs)

    def test_containment_through_po_closure(self):
        layout = extract_layout(store_buffer().program)
        a, b = (e.uid for e in layout.events if e.proc == 0)
        c, d = (e.uid for e in layout.events if e.proc == 1)
        chain = AxiomGraph("chain", ((a, b), (b, c), (c, d)))
        skip = AxiomGraph("skip", ((a, d),))
        check = AcyclicityCheck(layout, [chain, skip])
        assert check.lies_inside(1, 0)
        assert not check.lies_inside(0, 1)


class TestWellFormedCandidates:
    def test_counts_match_enumerator(self):
        for seed in range(10):
            program = random_program(seed)
            solver_n = sum(1 for _ in well_formed_candidates(program))
            enum_n = sum(1 for _ in enumerate_candidates(program))
            assert solver_n == enum_n

    def test_solve_candidates_without_model(self):
        program = store_buffer().program
        results = {c.result() for c in solve_candidates(program)}
        assert results == {
            c.result() for c in enumerate_candidates(program)
        }


class TestBudgets:
    @pytest.mark.parametrize("backend", ["solver", "enumerator"])
    def test_candidate_cap(self, backend):
        program = store_buffer().program
        config = SolverConfig(max_candidates=1)
        with pytest.raises(SearchBudgetExceeded):
            allowed_results(program, SCModel(), backend, config)

    @pytest.mark.parametrize("backend", ["solver", "enumerator"])
    def test_deadline(self, backend):
        program = store_buffer().program
        config = SolverConfig(max_seconds=0.0)
        with pytest.raises(SearchBudgetExceeded):
            allowed_results(program, SCModel(), backend, config)

    @pytest.mark.parametrize("backend", ["solver", "enumerator"])
    def test_generous_budget_is_invisible(self, backend):
        program = store_buffer().program
        config = SolverConfig(max_candidates=10_000, max_seconds=60.0)
        assert allowed_results(
            program, SCModel(), backend, config
        ) == allowed_results(program, SCModel())


    def test_one_pass_cap_is_per_model(self):
        program = store_buffer().program
        models = _models()
        most = max(
            len(allowed_candidates(program, model, "enumerator"))
            for model in models
        )
        # The cap bounds each model's admitted candidates, not their sum.
        assert allowed_results_by_model(
            program, models, "enumerator", SolverConfig(max_candidates=most)
        ) == allowed_results_by_model(program, models, "enumerator")
        with pytest.raises(SearchBudgetExceeded):
            allowed_results_by_model(
                program,
                models,
                "enumerator",
                SolverConfig(max_candidates=most - 1),
            )

    @pytest.mark.parametrize("one_pass", [False, True])
    def test_enumerator_deadline_fires_among_rejections(self, one_pass):
        """Almost every rf pick of tas6 (720 candidates among 7**6 picks)
        and tas7 (5,040 among 8**7, seconds to exhaust) meets no co pick
        it is atomic with; the deadline must still fire on time."""
        for n in (6, 7):
            program = _tas_program(n)
            config = SolverConfig(max_seconds=0.05)
            start = time.monotonic()
            with pytest.raises(SearchBudgetExceeded):
                if one_pass:
                    allowed_results_by_model(
                        program, _models(), "enumerator", config
                    )
                else:
                    allowed_results(program, SCModel(), "enumerator", config)
            assert time.monotonic() - start < 1.0, program.name


class TestTargetMode:
    def test_pinned_query_matches_membership(self):
        """result_allowed == (result in allowed_results), per model."""
        for seed in range(8):
            program = random_program(seed)
            universe = {
                c.result() for c in well_formed_candidates(program)
            }
            for model in _models():
                admitted = allowed_results(program, model)
                for result in universe:
                    assert result_allowed(program, model, result) == (
                        result in admitted
                    )

    def test_foreign_result_rejected(self):
        program = store_buffer().program
        some = next(iter(allowed_results(program, SCModel())))
        other = build_program(
            [ThreadBuilder().load("r0", "x")], name="other"
        )
        # A result whose read shape does not match the program is simply
        # not allowed, never an error.
        foreign = next(
            iter(allowed_results(other, SCModel()))
        )
        assert result_allowed(program, SCModel(), foreign) is False
        assert result_allowed(program, SCModel(), some) is True


class TestBackendRouting:
    def test_default_is_solver(self, monkeypatch):
        from repro.axiomatic import checker

        searched = []

        def recording(program, model, config):
            searched.append(model.name)
            return solve_candidates(program, model, config)

        def no_enumeration(*_args, **_kwargs):
            raise AssertionError("the default backend enumerated")

        monkeypatch.setattr(checker, "solve_candidates", recording)
        monkeypatch.setattr(checker, "enumerate_candidates", no_enumeration)
        program = store_buffer().program
        assert allowed_results(program, SCModel())
        assert allowed_results_by_model(program, [TSOModel()])
        assert searched == ["SC", "TSO"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            allowed_results(
                store_buffer().program, SCModel(), backend="z3"
            )


class TestOutcomeTable:
    def test_rows_match_allowed_results(self):
        programs = [store_buffer().program, tas_mutex().program]
        models = _models()
        rows = outcome_table(programs, models)
        assert [
            (r["program"], r["model"]) for r in rows
        ] == [(p.name, m.name) for p in programs for m in models]
        for row in rows:
            program = next(
                p for p in programs if p.name == row["program"]
            )
            model = next(m for m in models if m.name == row["model"])
            assert row["num_results"] == len(
                allowed_results(program, model)
            )


class TestShrinker:
    def test_shrinks_to_fixpoint(self):
        t0 = ThreadBuilder().store("x", 3).store("y", 2).load("r0", "x")
        t1 = ThreadBuilder().store("x", 1).load("r1", "y")
        program = build_program([t0, t1], name="big")

        def has_store_to_x(p):
            return any(
                isinstance(i, Store) and i.location == "x"
                for code in p.threads
                for i in code.instructions
            )

        small = shrink_program(program, has_store_to_x, name="tiny")
        assert small.name == "tiny"
        assert has_store_to_x(small)
        # Fixpoint: one thread, one instruction, value shrunk to 0.
        assert len(small.threads) == 1
        (instr,) = small.threads[0].instructions
        assert isinstance(instr, Store) and instr.src == 0

    def test_false_predicate_returns_input(self):
        program = store_buffer().program
        assert shrink_program(program, lambda p: False) is program

    def test_labeled_threads_keep_instructions(self):
        from repro.core.types import Condition

        t0 = (
            ThreadBuilder()
            .label("spin")
            .load("r0", "x")
            .branch_if(Condition.EQ, "r0", 0, "spin")
        )
        t1 = ThreadBuilder().store("x", 1).store("y", 1)
        program = build_program([t0, t1], name="labeled")
        shrunk = shrink_program(
            program, lambda p: len(p.threads) == 2
        )
        # Thread 0 has labels, so its body must survive intact.
        assert shrunk.threads[0] == program.threads[0]


class TestDifferentialCampaign:
    def test_clean_corpus_has_no_disagreements(self):
        report = diff_campaign(range(12))
        assert report.ok
        assert report.programs_run == 12
        assert report.comparisons > 0
        assert report.hardware_runs > 0
        assert report_as_dict(report)["ok"] is True

    def test_compare_program_counts(self):
        counters = {}
        failures = compare_program(
            store_buffer().program, range(2), counters=counters
        )
        assert failures == []
        # 4 backend + 1 sc-explorer + 1 wo-contract + per-run simulator.
        assert counters["hardware_runs"] == 8
        assert counters["comparisons"] == 6 + 8

    @pytest.mark.parametrize("name", ["SB", "SB+sync"])
    def test_compare_program_asks_each_question_once(self, name, monkeypatch):
        """WO-DRF0 shares SC's solver search (DRF0 SB+sync) or COHERENCE's
        (racy SB), and the snoop bus draws nothing from its seed, so it
        runs once per policy; every comparison is still made."""
        import repro.verify.diff as diff_mod

        calls = collections.Counter()
        for attr in ("allowed_results", "run_on_hardware"):
            original = getattr(diff_mod, attr)

            def counted(*args, _original=original, _attr=attr, **kwargs):
                calls[_attr] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(diff_mod, attr, counted)
        program = next(t.program for t in all_tests() if t.name == name)
        counters = {}
        assert compare_program(program, range(2), counters=counters) == []
        assert calls == {"allowed_results": 3, "run_on_hardware": 6}
        assert counters == {"comparisons": 14, "hardware_runs": 8}

    def test_merge_preserves_order(self):
        outcomes = [diff_one_seed(seed) for seed in (3, 1, 2)]
        report = merge_diff_outcomes(outcomes)
        assert report.programs_run + report.skipped == 3

    def test_minimize_disagreement(self, monkeypatch):
        """Minimization shrinks a (synthetic) disagreement to its core."""

        def fake_compare(program, hardware_seeds=range(2), *a, **k):
            stores = any(
                isinstance(i, Store) and i.location == "x"
                for code in program.threads
                for i in code.instructions
            )
            return [("backend", "synthetic")] if stores else []

        import repro.verify.diff as diff_mod

        seed = next(
            s
            for s in range(100)
            if fake_compare(random_program(s))
        )
        monkeypatch.setattr(diff_mod, "compare_program", fake_compare)
        disagreement = Disagreement(
            seed=seed,
            kind="backend",
            detail="synthetic",
            program_name=f"fuzz-{seed}",
        )
        minimized = minimize_disagreement(disagreement)
        assert minimized.litmus_name == f"diff-{seed}-backend"
        program = minimized.minimized
        assert program is not None
        assert program.name == minimized.litmus_name
        # Shrunk to the single instruction the predicate needs.
        assert sum(
            len(code.instructions) for code in program.threads
        ) == 1
        assert "Store" in render_program(program)

    def test_render_program(self):
        text = render_program(store_buffer().program)
        assert text.startswith("SB:")
        assert "init:" in text and "P0:" in text and "P1:" in text


class TestSweepCrossCheck:
    def test_agreement_on_sc_results(self):
        program = store_buffer().program
        assert axiomatic_cross_check(program, sc_results(program)) == []

    def test_unsupported_program_skipped(self):
        from repro.core.types import Condition

        t0 = (
            ThreadBuilder()
            .label("l")
            .load("r", "x")
            .branch_if(Condition.EQ, "r", 0, "l")
        )
        program = build_program([t0], name="branchy")
        from repro.core.execution import Result

        result = Result(reads=((0,),), final_memory=(("x", 0),))
        assert axiomatic_cross_check(program, [result]) == []
