"""Tests for the axiomatic framework: events, candidates, and models."""

import pytest

from repro.axiomatic import (
    CoherenceModel,
    SCModel,
    TSOModel,
    UnsupportedProgram,
    WeakOrderingDRF,
    allowed_candidates,
    allowed_results,
    enumerate_candidates,
    extract_events,
)
from repro.core.sc import sc_results
from repro.core.types import Condition, OpKind
from repro.litmus.catalog import (
    all_tests,
    coherence_corr,
    dekker_sync,
    iriw,
    load_buffer,
    message_passing,
    message_passing_sync,
    store_buffer,
    tas_mutex,
)
from repro.machine.dsl import ThreadBuilder, build_program


class TestEventExtraction:
    def test_events_in_program_order(self):
        program = store_buffer().program
        events = extract_events(program)
        assert len(events) == 4
        assert [e.kind for e in events[:2]] == [OpKind.DATA_WRITE, OpKind.DATA_READ]
        assert events[0].proc == 0 and events[2].proc == 1

    def test_branchy_program_rejected(self):
        program = build_program(
            [ThreadBuilder().label("l").load("r", "x").branch_if(
                Condition.EQ, "r", 0, "l")]
        )
        with pytest.raises(UnsupportedProgram):
            extract_events(program)

    def test_data_dependent_store_becomes_readref(self):
        program = build_program(
            [ThreadBuilder().load("r", "x").store("y", "r")]
        )
        events = extract_events(program)
        from repro.axiomatic.events import ReadRef

        assert isinstance(events[1].write_value, ReadRef)
        assert events[1].write_value.event_uid == events[0].uid

    def test_arithmetic_on_read_rejected(self):
        program = build_program(
            [ThreadBuilder().load("r", "x").add("r", "r", 1).store("y", "r")]
        )
        with pytest.raises(UnsupportedProgram):
            extract_events(program)

    def test_constant_arithmetic_allowed(self):
        program = build_program(
            [ThreadBuilder().mov("a", 3).add("a", "a", 4).store("x", "a")]
        )
        events = extract_events(program)
        assert events[0].write_value == 7


class TestCandidates:
    def test_candidate_count_sb(self):
        # 2 reads x 2 sources each, 1 write per location: 4 candidates,
        # all value-consistent.
        candidates = list(enumerate_candidates(store_buffer().program))
        assert len(candidates) == 4

    def test_rmw_must_read_co_predecessor(self):
        candidates = list(enumerate_candidates(tas_mutex().program))
        # Two RMWs on one location: co has 2 orders; rf fully determined by
        # the RMW atomicity rule -> exactly 2 candidates.
        assert len(candidates) == 2
        for candidate in candidates:
            reads = sorted(candidate.read_values.values())
            assert reads == [0, 1]

    def test_out_of_thin_air_rejected(self):
        """LB with mutually dependent stores: the value-cycle candidate
        (both read 1) must be discarded."""
        p0 = ThreadBuilder().load("r0", "x").store("y", "r0")
        p1 = ThreadBuilder().load("r1", "y").store("x", "r1")
        program = build_program([p0, p1], name="LB+deps")
        for candidate in enumerate_candidates(program):
            result = candidate.result()
            assert result.reads[0][0] == 0 or result.reads[1][0] == 0

    def test_fr_edges_point_to_later_writes(self):
        program = store_buffer().program
        candidate = next(iter(enumerate_candidates(program)))
        for read_uid, write_uid in candidate.fr_edges():
            assert candidate.events[read_uid].is_read
            assert candidate.events[write_uid].is_write


class TestModels:
    STRAIGHT_TESTS = [
        store_buffer(),
        message_passing(),
        load_buffer(),
        coherence_corr(),
        iriw(),
        tas_mutex(),
        dekker_sync(),
    ]

    @pytest.mark.parametrize("test", STRAIGHT_TESTS, ids=lambda t: t.name)
    def test_axiomatic_sc_equals_operational_sc(self, test):
        """The central cross-validation: both SC definitions agree."""
        assert allowed_results(test.program, SCModel()) == sc_results(test.program)

    def test_tso_allows_exactly_store_buffering(self):
        sb = store_buffer()
        tso = allowed_results(sb.program, TSOModel())
        sc = allowed_results(sb.program, SCModel())
        extra = tso - sc
        assert len(extra) == 1
        (result,) = extra
        assert result.reads[0][0] == 0 and result.reads[1][0] == 0

    @pytest.mark.parametrize(
        "test_factory", [message_passing, load_buffer, coherence_corr, iriw],
        ids=lambda f: f.__name__,
    )
    def test_tso_forbids_non_sb_relaxations(self, test_factory):
        test = test_factory()
        results = allowed_results(test.program, TSOModel())
        assert not test.outcome_observed(results)

    def test_coherence_still_forbids_per_location_violations(self):
        test = coherence_corr()
        results = allowed_results(test.program, CoherenceModel())
        assert not test.outcome_observed(results)

    def test_coherence_orders_same_location_accesses_across_others(self):
        """po|same-loc pairs each access with the next one of its thread
        on the same location, not only with a po-adjacent one: a thread
        reads its own store back past a load of another location."""
        thread = ThreadBuilder().store("x", 1).load("r1", "y").load("r2", "x")
        program = build_program([thread], name="own-store")
        for backend in ("solver", "enumerator"):
            results = allowed_results(
                program, CoherenceModel(), backend=backend
            )
            assert {result.reads for result in results} == {((0, 1),)}

    def test_coherence_allows_mp_and_sb(self):
        for test in (store_buffer(), message_passing()):
            results = allowed_results(test.program, CoherenceModel())
            assert test.outcome_observed(results)

    def test_models_are_ordered_by_strength(self):
        for test in self.STRAIGHT_TESTS:
            sc = allowed_results(test.program, SCModel())
            tso = allowed_results(test.program, TSOModel())
            coh = allowed_results(test.program, CoherenceModel())
            assert sc <= tso <= coh

    def test_weak_ordering_drf_contract(self):
        """WO-DRF0 == SC on DRF0 programs, == coherence on racy ones."""
        wo = WeakOrderingDRF()
        drf_test = dekker_sync()  # all accesses synchronize: DRF0
        assert allowed_results(drf_test.program, wo) == allowed_results(
            drf_test.program, SCModel()
        )
        racy = store_buffer()
        assert allowed_results(racy.program, wo) == allowed_results(
            racy.program, CoherenceModel()
        )

    def test_weak_ordering_drf_memo_is_per_program(self):
        """One long-lived instance sees many short-lived programs; a
        program built after another was collected may get its id, and
        must still get its own verdict."""
        wo = WeakOrderingDRF()
        wrong = 0
        for i in range(600):
            racy = i % 2 == 0
            test = store_buffer() if racy else message_passing_sync()
            if wo.program_is_drf0(test.program) == racy:
                wrong += 1
        assert wrong == 0

    def test_rmw_atomicity_under_all_models(self):
        test = tas_mutex()
        for model in (SCModel(), TSOModel(), CoherenceModel()):
            results = allowed_results(test.program, model)
            assert not test.outcome_observed(results)
