"""Tests for the random program generator and the fuzz harness."""

import importlib

import pytest

from repro.cli import main
from repro.machine.generator import (
    GeneratorConfig,
    random_program,
    random_programs,
)
from repro.verify.fuzz import fuzz, fuzz_one_seed


class TestGenerator:
    def test_deterministic_in_seed(self):
        a = random_program(17)
        b = random_program(17)
        assert a.threads == b.threads
        assert a.initial_memory == b.initial_memory

    def test_different_seeds_differ_somewhere(self):
        programs = random_programs(range(20))
        signatures = {
            tuple(tuple(code.instructions) for code in p.threads)
            for p in programs
        }
        assert len(signatures) > 1

    def test_respects_thread_bound(self):
        cfg = GeneratorConfig(max_threads=2, max_ops_per_thread=2)
        for seed in range(30):
            program = random_program(seed, cfg)
            assert 1 <= program.num_procs <= 2
            assert all(
                len(code.memory_instructions()) <= 2 for code in program.threads
            )

    def test_straight_line_always(self):
        assert all(
            random_program(seed).is_straight_line() for seed in range(30)
        )

    def test_locations_from_config(self):
        cfg = GeneratorConfig(data_locations=("a",), sync_locations=("l",))
        program = random_program(3, cfg)
        assert set(program.initial_memory) <= {"a", "l"}


class TestFuzzHarness:
    def test_clean_campaign(self):
        report = fuzz(range(8), hardware_seeds=range(2))
        assert report.ok
        assert report.programs_run == 8
        assert report.hardware_runs > 0

    def test_cli_fuzz_command(self, capsys):
        assert main(["fuzz", "--programs", "4"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_seed_free_configs_simulated_once(self, monkeypatch):
        """Of fuzz's five configs, the two buses draw nothing from their
        seed: their SC runs are simulated once and still counted and
        judged at all three hardware seeds."""
        # ``repro.verify.fuzz`` names the function; fetch the modules.
        modules = [
            importlib.import_module(f"repro.verify.{name}")
            for name in ("diff", "fuzz")
        ]
        simulations = []
        for module in modules:
            original = module.run_on_hardware

            def counted(*args, _original=original, **kwargs):
                simulations.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "run_on_hardware", counted)
        judged = []

        def judge(program, result):
            judged.append(result)
            return True

        outcome = fuzz_one_seed(7, judge=judge)
        assert outcome.hardware_runs == 29 and not outcome.failures
        assert len(judged) == 15
        assert len(simulations) == 25
