"""Tests for the observability layer: tracing, metrics, export, attribution.

The heavy lifting is the two end-to-end properties:

* **exactness** -- on every hardware run, the per-cause stall buckets sum
  to exactly ``gate_stall_cycles + block_stall_cycles`` for every
  processor (no stalled cycle unattributed, none double-counted);
* **Figure 3** -- on the critical-section workload, Definition 1 charges
  the release-side stall to the *releasing* processor while the Adve-Hill
  implementation removes it (and, where the timing produces NACKs,
  charges the wait to the *acquiring* processor's reserve-bit retries).
"""

import json

import pytest

from repro.core.drf0 import check_program
from repro.core.sc import ExplorationConfig, explore
from repro.hw import POLICY_FACTORIES
from repro.litmus import all_tests
from repro.litmus.figures import figure3_program
from repro.obs import (
    CAUSE_ORDER,
    MetricsRegistry,
    NULL_TRACER,
    RecordingTracer,
    chrome_trace,
    explorer_metrics,
    render_stall_comparison,
    render_stall_table,
    run_metrics,
    stall_breakdown,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim.system import FIGURE1_CONFIGS, SystemConfig, run_on_hardware


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_null_tracer_is_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.span("c", "n", "t", 0, 5)
        NULL_TRACER.instant("c", "n", "t", 0)
        NULL_TRACER.counter("c", "n", "t", 0, 1.0)
        with NULL_TRACER.scope("x") as t:
            assert t is NULL_TRACER

    def test_recording_tracer_records_phases(self):
        t = RecordingTracer()
        t.span("cat", "s", "trk", 3, 10, args={"k": 1})
        t.async_span("cat", "a", "trk", 0, 4)
        t.instant("cat", "i", "trk", 7)
        t.counter("cat", "c", "trk", 8, 2.5)
        assert [e.phase for e in t.events] == ["X", "b", "i", "C"]
        assert t.events[0].dur == 7
        assert len(t) == 4

    def test_span_clamps_negative_duration(self):
        t = RecordingTracer()
        t.span("c", "n", "t", 10, 5)
        assert t.events[0].dur == 0

    def test_scope_prefixes_tracks_and_nests(self):
        t = RecordingTracer()
        t.instant("c", "n", "P0", 0)
        with t.scope("run1"):
            t.instant("c", "n", "P0", 1)
            with t.scope("inner"):
                t.instant("c", "n", "P0", 2)
        t.instant("c", "n", "P0", 3)
        assert t.tracks() == ["P0", "run1/P0", "run1/inner/P0"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_histogram_timer(self):
        r = MetricsRegistry()
        r.counter("a").inc()
        r.counter("a").inc(4)
        r.histogram("h").observe(2)
        r.histogram("h").observe(6)
        with r.timer("t").time():
            pass
        d = r.as_dict()
        assert d["counters"]["a"] == 5
        assert d["histograms"]["h"]["count"] == 2
        assert d["histograms"]["h"]["mean"] == 4.0
        assert d["timers"]["t"]["count"] == 1

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(2)
        b.counter("x").inc(3)
        b.histogram("h").observe(1)
        a.merge(b)
        d = a.as_dict()
        assert d["counters"]["x"] == 5
        assert d["histograms"]["h"]["count"] == 1

    def test_run_metrics_view(self):
        test = next(t for t in all_tests() if t.name == "MP+sync")
        run = run_on_hardware(test.program, POLICY_FACTORIES["sc"]())
        d = run_metrics(run).as_dict()
        assert d["counters"]["sim.runs"] == 1
        assert d["histograms"]["sim.cycles"]["count"] == 1
        total = sum(
            v for k, v in d["counters"].items() if ".stall." in k
        )
        assert total == sum(s.total_stall_cycles for s in run.proc_stats)

    def test_explorer_metrics_view(self):
        test = next(t for t in all_tests() if t.name == "SB")
        ex = explore(test.program)
        d = explorer_metrics(ex.stats).as_dict()
        assert d["counters"]["explorer.states"] == ex.stats.states
        assert d["counters"]["explorer.transitions"] == ex.stats.transitions


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


class TestExport:
    def _trace(self):
        t = RecordingTracer()
        t.span("cat", "s", "P0", 0, 5, args={"k": "v"})
        t.async_span("net", "msg", "net", 1, 4)
        t.instant("cat", "i", "P1", 2)
        t.counter("cat", "c", "P0", 3, 7)
        return t

    def test_chrome_trace_shape(self):
        obj = chrome_trace(self._trace())
        events = obj["traceEvents"]
        # process metadata + 3 thread metadata + X + b + e + i + C
        phases = [e["ph"] for e in events]
        assert phases.count("M") == 4
        assert phases.count("b") == 1 and phases.count("e") == 1
        b = next(e for e in events if e["ph"] == "b")
        e = next(ev for ev in events if ev["ph"] == "e")
        assert b["id"] == e["id"] and e["ts"] == b["ts"] + 3
        i = next(ev for ev in events if ev["ph"] == "i")
        assert i["s"] == "t"

    def test_validate_accepts_good_rejects_bad(self):
        obj = chrome_trace(self._trace())
        assert validate_chrome_trace(obj) == []
        assert validate_chrome_trace({"nope": 1})
        obj["traceEvents"].append({"ph": "X", "name": "broken"})
        assert validate_chrome_trace(obj)

    def test_validate_flags_unclosed_async(self):
        obj = {
            "traceEvents": [
                {"ph": "b", "cat": "c", "name": "n", "ts": 0, "dur": 1,
                 "pid": 1, "tid": 1, "id": 9},
            ]
        }
        assert any("unclosed" in err for err in validate_chrome_trace(obj))

    def test_file_roundtrip(self, tmp_path):
        t = self._trace()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, t)
        assert validate_chrome_trace_file(path) == []
        jsonl = tmp_path / "trace.jsonl"
        write_jsonl(jsonl, t)
        lines = jsonl.read_text().strip().splitlines()
        assert len(lines) == len(t)
        assert json.loads(lines[0])["phase"] == "X"


# ---------------------------------------------------------------------------
# Stall attribution: the exactness invariant
# ---------------------------------------------------------------------------


def _litmus_runs():
    """Every (policy, litmus, config, seed) hardware run in the sweep."""
    for pname, factory in sorted(POLICY_FACTORIES.items()):
        for test in all_tests():
            for cname, config in sorted(FIGURE1_CONFIGS.items()):
                for seed in (0, 3):
                    try:
                        run = run_on_hardware(
                            test.program, factory(), config.with_seed(seed)
                        )
                    except ValueError:
                        continue  # policy needs caches; config has none
                    yield pname, test.name, cname, seed, run


class TestStallAttribution:
    def test_causes_sum_exactly_on_every_litmus_run(self):
        checked = 0
        for pname, tname, cname, seed, run in _litmus_runs():
            for proc, stats in enumerate(run.proc_stats):
                attributed = sum(stats.stall_by_cause.values())
                coarse = stats.gate_stall_cycles + stats.block_stall_cycles
                assert attributed == coarse, (
                    f"P{proc} of {tname!r} under {pname} on {cname} "
                    f"seed {seed}: attributed {attributed} != coarse {coarse} "
                    f"({dict(stats.stall_by_cause)})"
                )
                checked += 1
        assert checked > 500  # the sweep actually ran

    def test_causes_are_from_the_taxonomy(self):
        for _, _, _, _, run in _litmus_runs():
            for stats in run.proc_stats:
                assert set(stats.stall_by_cause) <= set(CAUSE_ORDER)

    def test_breakdown_and_table_render(self):
        test = next(t for t in all_tests() if t.name == "MP+sync")
        run = run_on_hardware(test.program, POLICY_FACTORIES["definition1"]())
        breakdown = stall_breakdown(run)
        assert len(breakdown) == 2
        assert sum(breakdown[0].values()) == run.proc_stats[0].total_stall_cycles
        table = render_stall_table(run)
        assert "P0" in table and "total" in table


# ---------------------------------------------------------------------------
# Figure 3 regression: who pays for the release?
# ---------------------------------------------------------------------------


class TestFigure3Attribution:
    """Definition 1 stalls the releasing processor; Adve-Hill does not.

    The critical-section workload (``figure3_program`` with cold sharers
    and post-release work) makes the release-side write of x slow to
    globally perform.  Definition 1 must charge that wait to P0 (the
    releaser) as a ``gate:gp`` stall at its unset; the Section-5.3
    implementation lets the unset proceed behind counters/reserve bits,
    so P0 shows *no* gate stall and the whole run finishes earlier.
    """

    @pytest.fixture(scope="class")
    def runs(self):
        program = figure3_program(num_extra_sharers=2, post_release_work=80)
        out = {}
        for seed in range(4):
            config = SystemConfig(seed=seed)
            out[seed] = {
                name: run_on_hardware(
                    program, POLICY_FACTORIES[name](), config
                )
                for name in ("adve-hill", "definition1")
            }
        return out

    def test_definition1_charges_the_releasing_processor(self, runs):
        for seed, by_policy in runs.items():
            d1 = by_policy["definition1"].proc_stats[0]
            assert d1.stall_by_cause.get("gate:gp", 0) > 0, (
                f"seed {seed}: definition1 shows no release-side gate "
                f"stall on P0 ({dict(d1.stall_by_cause)})"
            )

    def test_adve_hill_removes_the_releasers_stall(self, runs):
        for seed, by_policy in runs.items():
            ah = by_policy["adve-hill"].proc_stats[0]
            assert ah.gate_stall_cycles == 0, (
                f"seed {seed}: adve-hill still gates P0 "
                f"({dict(ah.stall_by_cause)})"
            )

    def test_adve_hill_finishes_earlier(self, runs):
        for seed, by_policy in runs.items():
            assert (
                by_policy["adve-hill"].cycles
                < by_policy["definition1"].cycles
            ), f"seed {seed}: no end-to-end win for the Section-5.3 hardware"

    def test_acquirer_absorbs_wait_via_reserve_nacks(self):
        # Deterministic: at seed 7 the acquirer's test&set lands while
        # P0's counter is nonzero, so the reserve bit NACKs it and the
        # wait shows up as block:reserve-nack on P1 -- the acquiring
        # processor, exactly the Section-5.3 shift the paper describes.
        program = figure3_program(num_extra_sharers=2, post_release_work=80)
        run = run_on_hardware(
            program, POLICY_FACTORIES["adve-hill"](), SystemConfig(seed=7)
        )
        p1 = run.proc_stats[1]
        assert p1.stall_by_cause.get("block:reserve-nack", 0) > 0

    def test_comparison_table_renders(self, runs):
        table = render_stall_comparison(
            {name: run for name, run in runs[0].items()}
        )
        assert "gate:gp" in table
        assert "adve-hill" in table and "definition1" in table
        assert "finish:" in table


# ---------------------------------------------------------------------------
# Explorer / engine tracing
# ---------------------------------------------------------------------------


class TestExplorerTracing:
    def test_explore_emits_steps_and_executions(self):
        test = next(t for t in all_tests() if t.name == "SB")
        tracer = RecordingTracer()
        ex = explore(test.program, ExplorationConfig(tracer=tracer))
        kinds = {f"{e.cat}:{e.name}" for e in tracer.events}
        assert "engine:step" in kinds and "engine:undo" in kinds
        assert "explore:execution" in kinds
        executions = [
            e for e in tracer.events if e.name == "execution"
        ]
        assert len(executions) == ex.stats.executions

    def test_drf0_checker_flows_tracer(self):
        test = next(t for t in all_tests() if t.name == "SB")
        tracer = RecordingTracer()
        check_program(
            test.program, config=ExplorationConfig(max_ops=400, tracer=tracer)
        )
        assert any(e.name == "step" for e in tracer.events)

    def test_untraced_engine_has_no_tracer(self):
        from repro.core.engine_state import EngineState

        test = next(t for t in all_tests() if t.name == "SB")
        engine = EngineState(test.program)
        assert engine.tracer is None  # the fast path stays bare

    def test_trace_is_chrome_exportable(self):
        test = next(t for t in all_tests() if t.name == "MP")
        tracer = RecordingTracer()
        explore(test.program, ExplorationConfig(tracer=tracer))
        assert validate_chrome_trace(chrome_trace(tracer)) == []


class TestEngineObservability:
    def test_engine_counts_tasks_and_snapshots_metrics(self):
        from repro.verify.engine import VerificationEngine

        test = next(t for t in all_tests() if t.name == "SB")
        tracer = RecordingTracer()
        registry = MetricsRegistry()
        engine = VerificationEngine(jobs=1, tracer=tracer, metrics=registry)
        engine.contract_sweep(
            test.program, POLICY_FACTORIES["sc"], seeds=range(3)
        )
        engine.metrics_snapshot()
        counters = registry.as_dict()["counters"]
        assert counters["engine.tasks.run"] >= 1
        assert counters["engine.tasks.judge"] >= 1
        assert (
            counters["engine.sc_cache.hits"]
            + counters["engine.sc_cache.misses"]
            > 0
        )
        kinds = {f"{e.cat}:{e.name}" for e in tracer.events}
        assert kinds >= {"engine:map", "engine:session"}
        assert validate_chrome_trace(chrome_trace(tracer)) == []

    def test_untraced_engine_output_is_identical(self):
        from repro.verify.engine import VerificationEngine

        test = next(t for t in all_tests() if t.name == "MP+sync")
        plain = VerificationEngine(jobs=1).contract_sweep(
            test.program, POLICY_FACTORIES["sc"], seeds=range(3)
        )
        traced = VerificationEngine(
            jobs=1, tracer=RecordingTracer(), metrics=MetricsRegistry()
        ).contract_sweep(test.program, POLICY_FACTORIES["sc"], seeds=range(3))
        assert plain == traced


# ---------------------------------------------------------------------------
# Hardware tracing end-to-end
# ---------------------------------------------------------------------------


class TestHardwareTracing:
    def test_stall_spans_match_stats(self):
        test = next(t for t in all_tests() if t.name == "MP+sync")
        tracer = RecordingTracer()
        run = run_on_hardware(
            test.program, POLICY_FACTORIES["definition1"](), tracer=tracer
        )
        for proc, stats in enumerate(run.proc_stats):
            spans = [
                e for e in tracer.events
                if e.cat == "stall" and e.track == f"P{proc}"
            ]
            assert sum(e.dur for e in spans) == stats.total_stall_cycles

    def test_network_and_directory_events_present(self):
        test = next(t for t in all_tests() if t.name == "MP+sync")
        tracer = RecordingTracer()
        run_on_hardware(
            test.program, POLICY_FACTORIES["sc"](), tracer=tracer
        )
        cats = {e.cat for e in tracer.events}
        assert {"net", "dir", "access"} <= cats

    def test_untraced_run_matches_traced_run(self):
        test = next(t for t in all_tests() if t.name == "TAS")
        factory = POLICY_FACTORIES["adve-hill"]
        plain = run_on_hardware(test.program, factory())
        traced = run_on_hardware(
            test.program, factory(), tracer=RecordingTracer()
        )
        assert plain.result == traced.result
        assert plain.cycles == traced.cycles


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestObsCli:
    def test_simulate_json(self, capsys):
        from repro.cli import main

        assert main(["simulate", "TAS", "--policy", "adve_hill", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["appears_sc"] is True
        assert payload["policy"]
        for stats in payload["proc_stats"]:
            assert sum(stats["stall_by_cause"].values()) == (
                stats["gate_stall_cycles"] + stats["block_stall_cycles"]
            )

    def test_simulate_trace_renders_event_stream(self, capsys):
        from repro.cli import main

        assert main(["simulate", "MP+sync", "--policy", "sc", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "net:" in out  # the event stream, not the old table

    def test_drf0_json(self, capsys):
        from repro.cli import main

        assert main(["drf0", "SB", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["obeys"] is False
        assert payload["race"]

    def test_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "sim.json"
        assert main(
            ["simulate", "MP+sync", "--trace-out", str(path)]
        ) == 0
        assert validate_chrome_trace_file(path) == []

    def test_profile_command(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "profile.json"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "profile", "--workload", "critical_section",
                "--policy", "adve_hill",
                "--trace-out", str(trace),
                "--metrics-json", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adve-hill" in out and "definition1" in out
        assert "gate:gp" in out
        assert validate_chrome_trace_file(trace) == []
        payload = json.loads(metrics.read_text())
        assert any(
            k.startswith("sim.adve-hill.") for k in payload["counters"]
        )

    def test_policy_underscores_accepted(self, capsys):
        from repro.cli import main

        assert main(
            ["simulate", "TAS", "--policy", "release_consistency"]
        ) == 0
