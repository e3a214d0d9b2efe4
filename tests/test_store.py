"""Tests for the persistent content-addressed verdict store.

The store's contract has three legs: warm runs are *byte-identical* to
cold runs (persistence must never change an answer), damaged bytes are
tolerated and quarantined (never crash, never serve a bad verdict), and
any number of processes may flush into one directory concurrently.
Because every unit is filed as it lands, a sweep killed part way
resumes from its store with the output it would have printed.
"""

import json
import multiprocessing
import os
import shutil

import pytest

from repro.cli import main
from repro.hw import POLICY_FACTORIES, AdveHillPolicy, Definition1Policy
from repro.litmus.catalog import by_name
from repro.obs import MetricsRegistry
from repro.sim.system import SystemConfig
from repro.verify import engine as engine_module
from repro.verify import SEMANTICS_VERSION, VerdictStore, VerificationEngine
from repro.verify.cache import program_fingerprint
from repro.verify.engine import SweepCampaign
from repro.verify.store import (
    STORE_FORMAT,
    _line_checksum,
    cell_key,
    decode_program,
    encode_program,
    run_key,
)

from helpers import message_passing_program, store_buffer_program

FACTORIES = {"adve-hill": AdveHillPolicy, "definition1": Definition1Policy}

#: A segment written by an earlier release of the store: a header and one
#: prog, sc, drf0, run and cost record, in the order ``compact`` writes.
GOLDEN_SEGMENT = os.path.join(
    os.path.dirname(__file__), "store_golden_segment.jsonl"
)


def programs():
    return [message_passing_program(sync=True), store_buffer_program()]


def policies(*names):
    return {name: POLICY_FACTORIES[name] for name in names}


def sweep(cache_dir=None, jobs=1, seeds=6, config=None, factories=None,
          metrics=None):
    engine = VerificationEngine(
        jobs=jobs, cache_dir=cache_dir, metrics=metrics
    )
    evidence = engine.definition2_sweep(
        programs(), factories or FACTORIES, config or SystemConfig(),
        seeds=range(seeds),
    )
    if engine.store is not None:
        engine.store.close()
    return engine, evidence


def segment_paths(cache_dir):
    return sorted(
        os.path.join(cache_dir, name)
        for name in os.listdir(cache_dir)
        if name.startswith("seg-") and name.endswith(".jsonl")
    )


def reencode(record: dict) -> str:
    """A record line with a *consistent* checksum (the poisoning case)."""
    record = {k: v for k, v in record.items() if k != "c"}
    record["c"] = _line_checksum(json.dumps(record, sort_keys=True))
    return json.dumps(record, sort_keys=True)


class TestWarmIdentity:
    """Leg one: a warm run must reproduce the cold run bit for bit."""

    def test_warm_rows_identical_and_runs_reused(self, tmp_path):
        cache = str(tmp_path / "cache")
        _, cold = sweep(cache)
        warm_engine, warm = sweep(cache)
        assert warm.rows == cold.rows
        assert warm.contract_holds == cold.contract_holds
        assert warm_engine.store.stats.runs_reused > 0
        assert warm_engine.store.stats.loaded_sc > 0
        # a second warm run flushes nothing new
        third_engine, _ = sweep(cache)
        assert third_engine.store.stats.flushed_sc == 0
        assert third_engine.store.stats.flushed_runs == 0

    def test_store_matches_storeless_run(self, tmp_path):
        _, stored = sweep(str(tmp_path / "cache"))
        _, plain = sweep(None)
        assert stored.rows == plain.rows

    def test_warm_parallel_matches_cold_serial(self, tmp_path):
        cache = str(tmp_path / "cache")
        _, cold = sweep(cache, jobs=1)
        _, warm = sweep(cache, jobs=2)
        assert warm.rows == cold.rows

    def test_cost_aware_schedule_changes_nothing(self, tmp_path):
        """Recorded costs reorder dispatch; output must not move.  Nor
        do records of sweeps with another config or policy set: the
        store keys units by content, so none of theirs can splice in."""
        cache = str(tmp_path / "cache")
        sweep(cache, seeds=4)
        sweep(cache, seeds=12, config=SystemConfig(net_jitter=2))
        sweep(cache, seeds=12, factories=policies("sc", "relaxed"))
        # skew the recorded costs wildly so the planner reorders + rechunks
        store = VerdictStore(cache)
        state = store.warm()
        assert state.costs, "sweep should have recorded cell costs"
        first = sorted(state.costs)[0]
        store.record_cost(first, runs=1, wall_us=10_000_000)
        store.close()
        # widen the seed range: positions 4..11 have no stored summaries,
        # so hardware genuinely re-runs under the skewed schedule
        _, plain = sweep(None, seeds=12)
        _, rescheduled = sweep(cache, seeds=12, jobs=2)
        assert rescheduled.rows == plain.rows


class TestResume:
    """A sweep killed part way resumes from its store: every unit filed
    before the kill is reused, and the output does not move."""

    def test_sweep_files_every_unit(self, tmp_path):
        cache = str(tmp_path / "cache")
        engine, _ = sweep(cache)
        store = VerdictStore(cache)
        state = store.load()
        # cells x seeds runs + per-program drf0 verdicts + judgments
        assert len(state.runs) == len(programs()) * len(FACTORIES) * 6
        assert len(state.drf0) == len(programs())
        assert len(state.sc) == engine.store.stats.flushed_sc > 0
        assert store.stats.dropped_lines == 0

    def test_resume_after_truncation_is_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        _, plain = sweep(None)
        sweep(cache)
        [path] = segment_paths(cache)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        # Half the lines plus a torn tail -- exactly what a SIGKILL
        # mid-write leaves behind.
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[: len(lines) // 2])
            fh.write('{"c": "0123456789abcdef", "kind": "run", "k"')
        engine, resumed = sweep(cache)
        assert resumed.rows == plain.rows
        assert engine.store.stats.runs_reused > 0
        assert engine.store.stats.dropped_lines == 1

    def test_full_store_runs_no_hardware(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        engine, _ = sweep(cache, metrics=MetricsRegistry())
        assert engine.metrics.counter("engine.tasks.run").value == 0

    def test_judgments_are_filed_as_they_land(self, monkeypatch, tmp_path):
        # An interrupt during the judge map must leave every judgment
        # that already landed in the store, as runs and DRF0 verdicts
        # are, not only those of a finished map.
        cache = str(tmp_path / "cache")
        real = engine_module._execute_task
        judge_tasks = []

        def interrupted_on_third_judge(task, gen=0):
            if task[0] == "judge":
                judge_tasks.append(task)
                if len(judge_tasks) == 3:
                    raise KeyboardInterrupt
            return real(task, gen)

        monkeypatch.setattr(
            engine_module, "_execute_task", interrupted_on_third_judge
        )
        engine = VerificationEngine(jobs=1, cache_dir=cache)
        with pytest.raises(KeyboardInterrupt):
            engine.definition2_sweep(
                [by_name(name).program for name in ("SB", "MP")],
                policies("relaxed", "adve-hill"),
                seeds=range(8),
            )
        engine.store.close()
        state = VerdictStore(cache).load()
        landed = sum(len(task[2]) for task in judge_tasks[:2])
        assert (len(state.runs), len(state.drf0), landed) == (32, 2, 4)
        assert len(state.sc) == landed

    def test_resume_under_different_jobs(self, tmp_path):
        if not VerificationEngine(jobs=2).can_fork:
            pytest.skip("fork unavailable")
        cache = str(tmp_path / "cache")
        _, plain = sweep(None)
        sweep(cache, jobs=2)
        [path] = segment_paths(cache)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[: len(lines) * 2 // 3])
        _, resumed = sweep(cache, jobs=1)
        assert resumed.rows == plain.rows


class TestIntegrity:
    """Leg two: damage is tolerated, quarantined, and never served."""

    def test_torn_tail_dropped_segment_kept(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        path = segment_paths(cache)[0]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "sc", "fp": "dead', )  # killed mid-append
        store = VerdictStore(cache)
        state = store.load()
        assert store.stats.dropped_lines == 1
        assert store.stats.quarantined_segments == 0
        assert state.sc  # salvage succeeded
        assert os.path.exists(path)  # torn tail is not corruption

    def test_truncated_mid_line_tail(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        path = segment_paths(cache)[0]
        with open(path, "r", encoding="utf-8") as fh:
            data = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data[: len(data) - 40])  # cut into the last record
        store = VerdictStore(cache)
        store.load()
        assert store.stats.dropped_lines == 1
        assert store.stats.quarantined_segments == 0

    def test_non_utf8_tail_dropped_not_fatal(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        path = segment_paths(cache)[0]
        with open(path, "ab") as fh:
            fh.write(b'{"c": "\xff\xfe')  # damaged bytes in a torn tail
        store = VerdictStore(cache)
        state = store.load()
        assert store.stats.dropped_lines == 1
        assert store.stats.quarantined_segments == 0
        assert state.sc

    def test_midfile_corruption_quarantines_segment(self, tmp_path):
        cache = str(tmp_path / "cache")
        _, cold = sweep(cache)
        path = segment_paths(cache)[0]
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[len(lines) // 2] = lines[len(lines) // 2][:-10] + 'corrupted"'
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        store = VerdictStore(cache)
        state = store.load()  # must not raise
        assert store.stats.quarantined_segments == 1
        assert not segment_paths(cache)  # moved out of the live set
        quarantined = os.listdir(os.path.join(cache, "quarantine"))
        assert len(quarantined) == 1
        assert state.sc or state.runs  # surviving records salvaged
        # and the sweep still answers correctly from the salvaged state
        _, warm = sweep(cache)
        assert warm.rows == cold.rows

    def test_bad_header_quarantines_whole_segment(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        path = segment_paths(cache)[0]
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[0] = '{"not": "a header"}'
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        store = VerdictStore(cache)
        state = store.load()
        assert store.stats.quarantined_segments == 1
        assert not state.sc and not state.runs  # nothing trusted

    def test_consistently_poisoned_verdict_caught_by_audit(self, tmp_path):
        """A flipped verdict with a rewritten checksum survives loading
        (checksums only catch *inconsistent* damage) -- ``audit`` is the
        defense, exactly as for the in-memory caches."""
        cache = str(tmp_path / "cache")
        sweep(cache)
        path = segment_paths(cache)[0]
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        flipped = False
        for index, line in enumerate(lines):
            record = json.loads(line)
            if record.get("kind") == "sc":
                record["v"] = not record["v"]
                lines[index] = reencode(record)
                flipped = True
                break
        assert flipped
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        report = VerdictStore(cache).audit()
        assert not report.ok
        assert any(entry.startswith("sc ") for entry in report.disagreements)

    def test_semantics_version_mismatch_is_cold_start(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        store = VerdictStore(cache, semantics="d2-oracle-999")
        state = store.load()
        assert store.stats.stale_segments == 1
        assert not state.sc and not state.runs and not state.costs
        # the real version still reads its own segments
        fresh = VerdictStore(cache)
        assert fresh.load().sc

    def test_old_format_segment_skipped(self, tmp_path):
        cache = str(tmp_path / "cache")
        os.makedirs(cache)
        header = {
            "kind": "meta",
            "format": STORE_FORMAT + 1,
            "semantics": SEMANTICS_VERSION,
        }
        with open(os.path.join(cache, "seg-1-0.jsonl"), "w") as fh:
            fh.write(reencode(header) + "\n")
        store = VerdictStore(cache)
        store.load()
        assert store.stats.stale_segments == 1
        assert store.stats.quarantined_segments == 0


class TestLineFormat:
    """Lines are checked over their bytes as written, so the format is
    pinned: stores written earlier stay warm, other JSON forms do not."""

    def test_earlier_segment_loads_and_rewrites_byte_for_byte(self, tmp_path):
        with open(GOLDEN_SEGMENT, "r", encoding="utf-8") as fh:
            golden = fh.read()
        semantics = json.loads(golden.splitlines()[0])["semantics"]
        cache = tmp_path / "cache"
        cache.mkdir()
        shutil.copy(GOLDEN_SEGMENT, cache / "seg-1-0.jsonl")
        store = VerdictStore(str(cache), semantics=semantics)
        state = store.load()
        assert store.stats.dropped_lines == 0
        assert store.stats.quarantined_segments == 0
        assert store.stats.stale_segments == 0
        assert [
            len(state.programs), len(state.sc), len(state.drf0),
            len(state.runs), len(state.costs),
        ] == [1, 1, 1, 1, 1]
        # compact() rewrites every record through the store's writer
        assert store.compact() == (1, 5)
        [path] = segment_paths(str(cache))
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == golden

    @pytest.mark.parametrize("where", ["tail", "mid-file"])
    def test_reserialized_line_is_rejected(self, tmp_path, where):
        cache = str(tmp_path / "cache")
        sweep(cache)
        path = segment_paths(cache)[0]
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        index = len(lines) - 1 if where == "tail" else len(lines) // 2
        record = json.loads(lines[index])
        compact = json.dumps(record, sort_keys=True, separators=(",", ":"))
        # the same JSON, and its checksum still matches the re-encoded record
        checksum = record.pop("c")
        assert checksum == _line_checksum(json.dumps(record, sort_keys=True))
        lines[index] = compact
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        store = VerdictStore(cache)
        store.load()
        assert store.stats.dropped_lines == 1
        assert store.stats.quarantined_segments == (where == "mid-file")


class TestRunKeys:
    def test_fill_from_store_keys_match_run_key(self, tmp_path):
        engine = VerificationEngine(jobs=1, cache_dir=str(tmp_path / "cache"))
        program = store_buffer_program()
        first, second = SystemConfig(), SystemConfig(net_jitter=2)
        seeds = [0, 3, 7]
        keys = []
        for config, check_51 in (
            (first, False), (second, False), (first, True)
        ):
            campaign = SweepCampaign(
                [program], {"adve-hill": AdveHillPolicy}, config, seeds,
                check_51_conditions=check_51,
            )
            campaign.plan(engine)
            [(fingerprint, policy_name)] = campaign.identities
            cell_keys = campaign._fill_from_store(engine.store)
            assert cell_keys == {
                (0, pos): run_key(
                    fingerprint,
                    policy_name,
                    repr(config.with_seed(seed)),
                    check_51,
                )
                for pos, seed in enumerate(seeds)
            }
            keys.extend(cell_keys.values())
        assert len(set(keys)) == 3 * len(seeds)
        engine.store.close()


def _flush_one(args):
    cache, index = args
    program = (
        message_passing_program(sync=True) if index else store_buffer_program()
    )
    engine = VerificationEngine(jobs=1, cache_dir=cache)
    engine.definition2_sweep(
        [program], FACTORIES, SystemConfig(), seeds=range(4)
    )
    engine.store.close()
    return True


class TestConcurrency:
    """Leg three: many writers, one directory, no locks."""

    def test_two_processes_flush_same_cache_dir(self, tmp_path):
        cache = str(tmp_path / "cache")
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            assert all(pool.map(_flush_one, [(cache, 0), (cache, 1)]))
        store = VerdictStore(cache)
        state = store.load()
        assert store.stats.quarantined_segments == 0
        assert len(state.programs) == 2  # both writers' programs landed
        # and the merged store warms a full-grid sweep
        engine, _ = sweep(cache, seeds=4)
        assert engine.store.stats.runs_reused > 0

    def test_same_process_reopen_gets_fresh_segment(self, tmp_path):
        """The O_EXCL retry path: one pid, several writer instances."""
        cache = str(tmp_path / "cache")
        program = store_buffer_program()
        fingerprint = program_fingerprint(program)
        for index in range(3):
            store = VerdictStore(cache)
            store.warm()
            store.record_cost(cell_key(fingerprint, "x"), 1, 100 + index)
            store.close()
        assert len(segment_paths(cache)) == 3
        state = VerdictStore(cache).load()
        assert state.costs[cell_key(fingerprint, "x")].runs == 3


class TestFingerprintMemo:
    def test_memoized_on_instance(self):
        program = store_buffer_program()
        assert "_content_fingerprint" not in program.__dict__
        first = program_fingerprint(program)
        assert program.__dict__["_content_fingerprint"] == first
        assert program_fingerprint(program) == first

    def test_memo_matches_fresh_instance(self):
        assert program_fingerprint(store_buffer_program()) == (
            program_fingerprint(store_buffer_program())
        )


class TestParallelStats:
    """Worker-side cache stats must fold back into the parent."""

    def test_fuzz_jobs_reports_hits(self):
        serial = VerificationEngine(jobs=1)
        serial.fuzz(range(4))
        parallel = VerificationEngine(jobs=2)
        parallel.fuzz(range(4))
        assert parallel.sc_cache.stats.lookups > 0
        assert parallel.sc_cache.stats.hits == serial.sc_cache.stats.hits
        assert parallel.sc_cache.stats.misses == serial.sc_cache.stats.misses
        counters = parallel.metrics_snapshot().as_dict()["counters"]
        assert counters["engine.sc_cache.hits"] == (
            parallel.sc_cache.stats.hits
        )


class TestProgramCodec:
    def test_roundtrip_preserves_fingerprint(self):
        for program in programs():
            decoded = decode_program(encode_program(program))
            assert program_fingerprint(decoded) == program_fingerprint(program)
            assert decoded.threads == program.threads


class TestMaintenance:
    def test_compact_folds_segments_and_preserves_state(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        sweep(cache, seeds=8)  # second segment with partial overlap
        before = VerdictStore(cache).load()
        store = VerdictStore(cache)
        segments, records = store.compact()
        assert segments == 2
        assert records > 0
        assert len(segment_paths(cache)) == 1
        after = VerdictStore(cache).load()
        assert after.sc == before.sc
        assert after.drf0 == before.drf0
        assert after.runs == before.runs
        assert {k: vars(v) for k, v in after.costs.items()} == {
            k: vars(v) for k, v in before.costs.items()
        }

    def test_audit_clean_store_passes(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        report = VerdictStore(cache).audit()
        assert report.ok
        assert report.checked > 0
        assert report.unauditable == 0

    def test_cache_audit_skips_verdict_filed_without_its_program(self):
        # A warm start files a stored SC verdict whose program record is
        # missing without the program.  The cache's audit cannot
        # re-derive it and skips it, as the store's audit counts it
        # unauditable, instead of failing on the program lookup.
        from repro.verify import SCVerdictCache

        engine = VerificationEngine(jobs=1)
        engine.contract_sweep(
            message_passing_program(sync=True), AdveHillPolicy, seeds=range(2)
        )
        cache = engine.sc_cache
        assert isinstance(cache, SCVerdictCache)
        (_, result), (verdict, _) = next(iter(cache._entries.items()))
        cache.store_by_fingerprint("0" * 64, result, verdict, program=None)
        assert cache.audit() == []

    def test_audit_sample_is_deterministic(self, tmp_path):
        cache = str(tmp_path / "cache")
        sweep(cache)
        first = VerdictStore(cache).audit(sample=3)
        second = VerdictStore(cache).audit(sample=3)
        assert first.checked == second.checked == 3


class TestCacheCLI:
    def test_stats_audit_compact(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            ["sweep", "SB", "--seeds", "4", "--cache-dir", cache]
        ) in (0, 1)
        capsys.readouterr()
        assert main(["cache", "stats", cache]) == 0
        assert "sc_verdicts" in capsys.readouterr().out
        assert main(["cache", "audit", cache, "--sample", "5"]) == 0
        capsys.readouterr()
        assert main(["cache", "compact", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", cache, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["segments"] == 1
        assert summary["sc_verdicts"] > 0

    def test_audit_detects_poisoning(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["sweep", "SB", "--seeds", "4", "--cache-dir", cache])
        path = segment_paths(cache)[0]
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for index, line in enumerate(lines):
            record = json.loads(line)
            if record.get("kind") == "sc":
                record["v"] = not record["v"]
                lines[index] = reencode(record)
                break
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["cache", "audit", cache]) == 1
        capsys.readouterr()

    def test_missing_dir_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "audit", str(tmp_path / "nope")])
        assert excinfo.value.code == 2

    def test_sweep_cache_dir_identical_stdout(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["sweep", "MP", "SB", "--seeds", "4", "--cache-dir", cache]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out
