"""Tests for the parallel verification engine and the sweep-layer fixes.

The engine's whole value rests on one property -- parallel output is
bit-for-bit identical to the serial reference -- so most tests here are
equality assertions between the two paths, including reruns that are
served from the verdict caches.
"""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import (
    POLICY_FACTORIES,
    AdveHillPolicy,
    Definition1Policy,
    RelaxedPolicy,
    SCPolicy,
)
from repro.litmus.catalog import by_name, message_passing_sync
from repro.litmus.harness import run_litmus_on_hardware
from repro.obs import MetricsRegistry, RecordingTracer
from repro.sim.system import SystemConfig, run_seed_sweep
from repro.verify import (
    CacheIntegrityError,
    VerificationEngine,
    contract_sweep,
    definition2_sweep,
    fuzz,
    program_fingerprint,
)
from repro.verify.engine import _balanced_chunks
from repro.workloads import resolve_program

from helpers import message_passing_program, store_buffer_program


PROGRAMS = lambda: [message_passing_program(sync=True), store_buffer_program()]
FACTORIES = {"adve-hill": AdveHillPolicy, "definition1": Definition1Policy}


class TestSeedsMaterialization:
    """Regression: generator-typed ``seeds`` used to record seeds_run=0."""

    def test_contract_sweep_accepts_generator_seeds(self):
        report = contract_sweep(
            message_passing_program(sync=True),
            AdveHillPolicy,
            seeds=(s for s in range(6)),
        )
        assert report.seeds_run == 6
        assert report.mean_cycles > 0

    def test_litmus_harness_accepts_generator_seeds(self):
        report = run_litmus_on_hardware(
            message_passing_sync(),
            AdveHillPolicy,
            SystemConfig(),
            seeds=(s for s in range(5)),
        )
        assert report.seeds_run == 5
        assert report.results

    def test_engine_accepts_generator_seeds(self):
        report = VerificationEngine(jobs=1).contract_sweep(
            message_passing_program(sync=True),
            AdveHillPolicy,
            seeds=(s for s in range(4)),
        )
        assert report.seeds_run == 4


class TestPolicyNameCapture:
    """The sweep must not instantiate a throwaway policy just for .name."""

    def test_factory_called_once_per_seed(self):
        calls = []

        def factory():
            calls.append(1)
            return AdveHillPolicy()

        report = contract_sweep(
            message_passing_program(sync=True), factory, seeds=range(5)
        )
        assert report.policy_name == AdveHillPolicy().name
        assert len(calls) == 5

    def test_empty_seeds_still_names_the_policy(self):
        report = contract_sweep(
            message_passing_program(sync=True), AdveHillPolicy, seeds=[]
        )
        assert report.policy_name == AdveHillPolicy().name
        assert report.seeds_run == 0
        assert report.mean_cycles == 0.0


class TestConditionPlumbing:
    """definition2_sweep must forward check_51_conditions and record
    condition_violations in its rows."""

    def test_rows_carry_condition_violations(self):
        evidence = definition2_sweep(
            [message_passing_program(sync=True)],
            {"adve-hill": AdveHillPolicy},
            seeds=range(5),
            exhaustive_drf0=True,
            check_51_conditions=True,
        )
        assert all("condition_violations" in row for row in evidence.rows)
        assert evidence.rows[0]["condition_violations"] == []

    @pytest.mark.parametrize("runner", ["serial", "jobs1", "jobs2"])
    def test_violations_surface_for_broken_hardware(self, runner):
        from repro.machine.dsl import ThreadBuilder, build_program

        # The strawman generates past uncommitted syncs (condition 4); this
        # shape provokes it within a few seeds.  The engine files each
        # run's violations in its worker (or in-process) and folds them
        # into the rows in the parent, so every runner gives the serial
        # sweep's rows.
        program = build_program(
            [
                ThreadBuilder().unset("s").store("x", 1),
                ThreadBuilder().load("r", "x"),
            ],
            initial_memory={"s": 1},
            name="sync-then-write",
        )
        runners = {
            "serial": definition2_sweep,
            "jobs1": VerificationEngine(jobs=1).definition2_sweep,
            "jobs2": VerificationEngine(jobs=2).definition2_sweep,
        }

        def rows(sweep):
            return sweep(
                [program],
                {"relaxed": RelaxedPolicy},
                seeds=range(20),
                exhaustive_drf0=True,
                check_51_conditions=True,
            ).rows

        evidence_rows = rows(runners[runner])
        assert evidence_rows[0]["condition_violations"]
        assert evidence_rows == rows(definition2_sweep)


class TestParallelMatchesSerial:
    """The acceptance property: engine output == serial output, always."""

    def test_definition2_sweep_identical(self):
        serial = definition2_sweep(
            PROGRAMS(), FACTORIES, seeds=range(8), exhaustive_drf0=True,
            check_51_conditions=True,
        )
        engine = VerificationEngine(jobs=2)
        parallel = engine.definition2_sweep(
            PROGRAMS(), FACTORIES, seeds=range(8), exhaustive_drf0=True,
            check_51_conditions=True,
        )
        assert serial.rows == parallel.rows

    def test_rerun_from_warm_caches_identical(self):
        engine = VerificationEngine(jobs=2)
        first = engine.definition2_sweep(
            PROGRAMS(), FACTORIES, seeds=range(8), exhaustive_drf0=True
        )
        hits_before = engine.sc_cache.stats.hits
        second = engine.definition2_sweep(
            PROGRAMS(), FACTORIES, seeds=range(8), exhaustive_drf0=True
        )
        assert first.rows == second.rows
        # The rerun must be served from the memo, not re-judged.
        assert engine.sc_cache.stats.hits > hits_before
        assert engine.drf0_cache.stats.hits >= len(PROGRAMS())

    def test_contract_sweep_identical_including_violations(self):
        serial = contract_sweep(
            store_buffer_program(), RelaxedPolicy, seeds=range(30)
        )
        parallel = VerificationEngine(jobs=2).contract_sweep(
            store_buffer_program(), RelaxedPolicy, seeds=range(30)
        )
        assert serial == parallel
        assert not parallel.appears_sc  # the strawman really is broken

    def test_fuzz_identical(self):
        serial = fuzz(range(3))
        parallel = VerificationEngine(jobs=2).fuzz(range(3))
        assert serial.programs_run == parallel.programs_run
        assert serial.hardware_runs == parallel.hardware_runs
        assert serial.failures == parallel.failures

    def test_diff_memo_counts_independent_of_jobs(self):
        """DRF0 memo hits are counted in seed order in the parent, not in
        worker-local memos, so the split of seeds across workers cannot
        change them.  Seeds 114/127/143/149 repeat earlier programs."""
        seeds = [1, 2, 15, 114, 127, 143, 149]
        counts = []
        for jobs in (1, 2):
            engine = VerificationEngine(jobs=jobs)
            engine.diff_campaign(seeds, minimize=False)
            stats = engine.drf0_cache.stats
            counts.append((stats.hits, stats.misses))
        assert counts == [(4, 3), (4, 3)]

    def test_fuzz_memo_counts_independent_of_jobs(self):
        """SC memo hits are counted in seed order in the parent too: seed
        114 repeats seed 15's program, so its judgments are all hits
        whichever worker runs it."""
        counts = []
        for jobs in (1, 2):
            engine = VerificationEngine(jobs=jobs)
            engine.fuzz([15, 114])
            stats = engine.sc_cache.stats
            counts.append((stats.hits, stats.misses))
        assert counts == [(29, 1), (29, 1)]

    def test_seed_campaign_explorer_counts_independent_of_jobs(self):
        """A verdict two workers both compute (seed 114 repeats seed 15's
        program) adds its search to ``explorer_stats`` once, as the serial
        run does; diff's DRF0 searches are counted too."""
        counts = []
        for jobs in (1, 2):
            engine = VerificationEngine(jobs=jobs)
            engine.fuzz([15, 114])
            fuzz_states = engine.explorer_stats.states
            engine = VerificationEngine(jobs=jobs)
            engine.diff_campaign([15, 114], minimize=False)
            counts.append((fuzz_states, engine.explorer_stats.as_dict()))
        assert counts[0] == counts[1]
        assert counts[0][0] > 0 and counts[0][1]["states"] > 0

    def test_jobs_zero_means_cpu_count(self):
        engine = VerificationEngine(jobs=0)
        assert engine.jobs >= 1


def _task_counts(engine):
    return {
        kind: engine.metrics.counter(f"engine.tasks.{kind}").value
        for kind in ("run", "drf0", "judge")
    }


class TestPlanShape:
    """Run and judge chunks are sized against the whole plan (about four
    tasks per worker), not per cell."""

    CAMPAIGN = (
        "MP+sync", "SB+sync", "TAS", "lock", "SB", "ttas", "barrier",
        "critical_section",
    )

    def test_many_cell_sweep_gets_one_task_per_cell(self):
        programs = [resolve_program(name) for name in self.CAMPAIGN]
        factories = {
            name: POLICY_FACTORIES[name]
            for name in sorted(POLICY_FACTORIES)
            if name != "relaxed"
        }
        engine = VerificationEngine(jobs=2, metrics=MetricsRegistry())
        engine.definition2_sweep(
            programs, factories, seeds=range(10), exhaustive_drf0=True
        )
        # Cells whose runs show a result no earlier cell of the same
        # program showed: each has SC judgments to dispatch.
        seen = set()
        cells_with_new = 0
        for program in programs:
            for factory in factories.values():
                fresh = {
                    (program_fingerprint(program), run.result)
                    for run in run_seed_sweep(
                        program, factory, seeds=range(10)
                    )
                } - seen
                cells_with_new += bool(fresh)
                seen |= fresh
        assert cells_with_new >= 2 * 4  # jobs * 4 or more: one task each
        assert _task_counts(engine) == {
            "run": 40, "drf0": 8, "judge": cells_with_new,
        }

    def test_one_cell_sweep_still_spreads_over_the_pool(self):
        engine = VerificationEngine(jobs=2, metrics=MetricsRegistry())
        report = engine.contract_sweep(
            store_buffer_program(), RelaxedPolicy, seeds=range(16)
        )
        assert report.distinct_results >= 2
        counts = _task_counts(engine)
        assert counts["run"] == 2 * 4
        assert 1 < counts["judge"] <= 2 * 4

    def test_warm_sweep_forks_no_pool(self, tmp_path):
        def sweep():
            tracer = RecordingTracer()
            engine = VerificationEngine(
                jobs=2, tracer=tracer, cache_dir=str(tmp_path)
            )
            rows = engine.definition2_sweep(
                PROGRAMS(), FACTORIES, seeds=range(8)
            ).rows
            engine.store.close()
            sessions = [e.args for e in tracer.events if e.name == "session"]
            return rows, sessions, engine.can_fork

        cold, cold_sessions, can_fork = sweep()
        assert cold_sessions == [{"jobs": 2, "pool": can_fork}]
        warm, warm_sessions, _ = sweep()
        assert warm == cold
        assert warm_sessions == [{"jobs": 2, "pool": False}]

    def test_balanced_chunks_no_straggler(self):
        # 251 seeds at 32 chunks used to leave a 3-seed tail; balanced
        # splitting keeps every chunk within one seed of its siblings
        # and preserves concatenation order (the fold contract).
        seeds = list(range(251))
        chunks = _balanced_chunks(seeds, 8)
        sizes = [len(chunk) for chunk in chunks]
        assert len(chunks) == 32
        assert max(sizes) - min(sizes) <= 1
        assert [seed for chunk in chunks for seed in chunk] == seeds

    def test_balanced_chunks_edge_cases(self):
        assert _balanced_chunks([1], 8) == [(1,)]
        assert _balanced_chunks(list(range(8)), 8) == [tuple(range(8))]
        chunks = _balanced_chunks(list(range(9)), 8)
        assert [len(c) for c in chunks] == [5, 4]

    def test_seed_chunks_balanced(self):
        engine = VerificationEngine(jobs=8)
        [chunks] = engine._plan_chunks([list(range(251))])
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert [s for chunk in chunks for s in chunk] == list(range(251))


#: perfbench's traced layers a sweep and a diff campaign call.
#: (``axiomatic.enumerator`` is left out: its wrapper sees no calls.)
TRACED_LAYERS = (
    "sim", "core.sc_judge", "core.drf0", "verify.cache.lookup",
    "verify.store.warm", "verify.store.record", "axiomatic.solver",
    "core.sc_results", "machine.generator",
)


def _perfbench_layers():
    """``perfbench/layers.py``, loaded from its file (it is a script
    directory, not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLayerTrace:
    """perfbench's traced pass wraps each layer by name where the engine
    (and the cache, the store and ``verify.diff``) call it, so a task
    body that stopped calling through those names would read 0 there."""

    def test_every_layer_is_seen(self, tmp_path):
        with _perfbench_layers().LayerTrace() as trace:
            engine = VerificationEngine(jobs=1, cache_dir=str(tmp_path))
            engine.definition2_sweep(
                [by_name(name).program for name in ("MP+sync", "SB")],
                {name: POLICY_FACTORIES[name] for name in ("sc", "adve-hill")},
                seeds=range(3),
            )
            engine.store.close()
            VerificationEngine(jobs=1).diff_campaign(range(3), minimize=False)
        calls = {layer: trace.calls.get(layer, 0) for layer in TRACED_LAYERS}
        assert all(calls.values()), calls


#: Shared across property examples so later examples exercise the
#: cache-hit path too (same program, overlapping seed sets).
_PROPERTY_ENGINE = VerificationEngine(jobs=2)


@settings(max_examples=8, deadline=None)
@given(seeds=st.lists(st.integers(min_value=0, max_value=40), max_size=6))
def test_property_parallel_equals_serial_for_any_seed_set(seeds):
    """For arbitrary seed sets (empty, duplicated, unordered alike), the
    parallel engine's report equals the serial reference exactly."""
    program = message_passing_program(sync=True)
    serial = contract_sweep(
        program, AdveHillPolicy, seeds=seeds, check_51_conditions=True
    )
    parallel = _PROPERTY_ENGINE.contract_sweep(
        program, AdveHillPolicy, seeds=seeds, check_51_conditions=True
    )
    assert serial == parallel


class TestVerdictCacheIntegrity:
    """A poisoned memo entry must be detected, never silently served."""

    def _warm_cache(self):
        engine = VerificationEngine(jobs=1)
        engine.contract_sweep(
            message_passing_program(sync=True), AdveHillPolicy, seeds=range(6)
        )
        cache = engine.sc_cache
        assert len(cache) > 0
        return cache

    def test_tampered_entry_raises_on_lookup(self):
        cache = self._warm_cache()
        key = next(iter(cache._entries))
        verdict, checksum = cache._entries[key]
        cache._entries[key] = (not verdict, checksum)  # poison in place
        fingerprint, result = key
        program = cache._programs[fingerprint]
        with pytest.raises(CacheIntegrityError):
            cache.lookup(program, result)

    def test_consistently_poisoned_entry_caught_by_audit(self):
        cache = self._warm_cache()
        assert cache.audit() == []
        key = next(iter(cache._entries))
        fingerprint, result = key
        program = cache._programs[fingerprint]
        verdict, _ = cache._entries[key]
        # Rewrite the entry wholesale -- wrong verdict, *valid* checksum --
        # as a compromised worker would: lookup cannot see this...
        cache.store(program, result, not verdict)
        assert cache.lookup(program, result) == (not verdict)
        # ...but the oracle re-derivation does.
        assert key in cache.audit()

    def test_fingerprint_ignores_name_but_not_code(self):
        a = message_passing_program(sync=True)
        b = message_passing_program(sync=True)
        assert program_fingerprint(a) == program_fingerprint(b)
        assert program_fingerprint(a) != program_fingerprint(
            store_buffer_program()
        )


class TestCliIntegration:
    def test_sweep_command_with_jobs(self, capsys):
        from repro.cli import main

        assert (
            main(["sweep", "MP+sync", "--policy", "adve-hill",
                  "--policy", "sc", "--seeds", "6", "--jobs", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "Definition-2 contract: holds" in out
        assert "adve-hill" in out and "sc" in out

    def test_fuzz_command_with_jobs(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--programs", "2", "--jobs", "2"]) == 0
        assert "0 failures" in capsys.readouterr().out
