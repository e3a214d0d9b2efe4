"""Tests for the command-line interface."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import _print_evidence_table, main


def _run_cli(*code_or_args: str, **env_vars: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's ``repro`` importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, *code_or_args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestImports:
    def test_cli_loads_only_stdlib_and_repro(self):
        proc = _run_cli("-c", (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import repro.cli\n"
            "allowed = set(sys.stdlib_module_names) | {'repro', '__mp_main__'}\n"
            "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(loaded - allowed))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("module", ("repro", "repro.cli"))
    def test_import_loads_no_fork_pool(self, module):
        # Only the verification engine, the chaos suite and the daemon
        # fleet use multiprocessing; the commands that run them import
        # them on demand.
        proc = _run_cli("-c", (
            "import sys\n"
            f"import {module}\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.split('.')[0] == 'multiprocessing'\n"
            "             or name == 'repro.core.parallel'))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_batch_sweep_loads_no_daemon(self, jobs):
        # A pooled sweep runs on the fleet modules under repro.verify,
        # never the daemon's package (asyncio, http.client); an
        # in-process sweep loads not even the fleet.
        proc = _run_cli("-c", (
            "import sys\n"
            "from repro.hw import POLICY_FACTORIES\n"
            "from repro.litmus.catalog import by_name\n"
            "from repro.verify.engine import VerificationEngine\n"
            "programs = [by_name(n).program for n in ('MP+sync', 'SB')]\n"
            f"VerificationEngine(jobs={jobs}).definition2_sweep(\n"
            "    programs, {'sc': POLICY_FACTORIES['sc']}, seeds=range(4))\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name == 'asyncio'\n"
            "             or name.startswith(('repro.service',\n"
            "                                 'repro.verify.fleet',\n"
            "                                 'repro.verify.supervisor'))))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.strip()
        if jobs == 1:
            assert loaded == "[]"
        else:
            assert "asyncio" not in loaded and "repro.service" not in loaded
            can_fork = "fork" in multiprocessing.get_all_start_methods()
            assert ("repro.verify.fleet" in loaded) == can_fork


class TestCatalogCommand:
    def test_catalog_lists_tests_and_workloads(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "SB" in out and "MP+sync" in out
        assert "barrier" in out and "prodcons" in out


class TestDrf0Command:
    def test_racy_program_exits_nonzero(self, capsys):
        assert main(["drf0", "SB"]) == 1
        out = capsys.readouterr().out
        assert "violates DRF0" in out
        assert "race" in out

    def test_clean_program_exits_zero(self, capsys):
        assert main(["drf0", "MP+sync"]) == 0
        assert "obeys DRF0" in capsys.readouterr().out

    def test_witness_flag_prints_execution(self, capsys):
        main(["drf0", "SB", "--witness"])
        out = capsys.readouterr().out
        assert "witnessing idealized execution" in out

    def test_sampled_mode(self, capsys):
        assert main(["drf0", "lock", "--sampled", "--seeds", "5"]) == 0
        assert "sampled" in capsys.readouterr().out

    def test_unknown_program_rejected(self):
        with pytest.raises(SystemExit):
            main(["drf0", "not-a-program"])

    def test_dpor_cap_is_a_usage_error(self, tmp_path):
        # --dpor is for bounded programs; MP+sync's spin loop hits the
        # operation cap.  That is no verdict, so neither exit 1 (racy)
        # nor a traceback; the status snapshot still records the failure.
        status = tmp_path / "status.json"
        proc = _run_cli(
            "-m", "repro", "drf0", "MP+sync", "--dpor",
            "--status-json", str(status),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "spin loops" in proc.stderr
        assert proc.stdout == ""
        snapshot = json.loads(status.read_text())
        assert snapshot["state"] == "failed"
        assert "ExplorationCapError" in snapshot["error"]


class TestEvidenceTable:
    def test_long_program_name_keeps_a_gap(self, capsys):
        row = {
            "program": "lock-ttas-p3x1",
            "program_drf0": True,
            "policy": "adve-hill",
            "appears_sc": True,
            "distinct_results": 1,
            "condition_violations": [],
            "mean_cycles": 10.0,
        }
        _print_evidence_table([row, dict(row, program="a-much-longer-name")])
        header, first, second = capsys.readouterr().out.splitlines()
        assert first.split() == [
            "lock-ttas-p3x1", "yes", "adve-hill", "yes", "1", "0", "10.0",
        ]
        assert second.split()[:2] == ["a-much-longer-name", "yes"]
        column = header.index("DRF0")
        assert first.index("yes") == second.index("yes") == column


class TestModelsCommand:
    def test_table_shape(self, capsys):
        assert main(["models", "SB", "MP"]) == 0
        out = capsys.readouterr().out
        assert "SC" in out and "TSO" in out and "WO-DRF0" in out
        # SB: TSO admits, SC does not
        sb_line = next(l for l in out.splitlines() if l.startswith("SB"))
        assert "no" in sb_line and "yes" in sb_line

    def test_unsupported_program_shows_dash(self, capsys):
        main(["models", "MP+sync"])
        line = next(
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("MP+sync")
        )
        assert "-" in line


class TestSimulateCommand:
    def test_simulate_reports_cycles_and_verdict(self, capsys):
        assert main(["simulate", "TAS", "--policy", "adve-hill"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "appears SC: True" in out

    def test_simulate_workload_names(self, capsys):
        assert main(["simulate", "prodcons", "--policy", "sc"]) == 0
        assert "appears SC: True" in capsys.readouterr().out

    def test_cacheless_run(self, capsys):
        assert main(["simulate", "SB", "--policy", "sc", "--no-caches"]) == 0

    def test_capacity_option(self, capsys):
        assert main(["simulate", "lock", "--capacity", "2"]) == 0
        assert "appears SC: True" in capsys.readouterr().out

    def test_output_independent_of_hash_seed(self):
        # Barrier's INVAL fan-out once followed set order, so string
        # hashing picked which sharer drew which network jitter.
        outputs = set()
        for hash_seed in ("0", "1", "2"):
            proc = _run_cli(
                "-m", "repro", "simulate", "barrier",
                "--policy", "adve-hill-drf1", "--seeds", "10",
                PYTHONHASHSEED=hash_seed,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1


class TestLitmusCommand:
    def test_contract_ok_for_weak_hardware(self, capsys):
        code = main(
            ["litmus", "TAS", "MP+sync", "--policy", "adve-hill", "--seeds", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out and "VIOLATED" not in out

    def test_relaxed_hardware_on_racy_test_is_not_a_violation(self, capsys):
        code = main(["litmus", "SB", "--policy", "relaxed", "--seeds", "25"])
        assert code == 0  # racy program: Definition 2 not violated
        assert "observed" in capsys.readouterr().out


class TestDelaysCommand:
    def test_delay_pairs_printed(self, capsys):
        assert main(["delays", "SB"]) == 0
        out = capsys.readouterr().out
        assert "2 delay pair(s)" in out

    def test_no_delays_needed(self, capsys):
        assert main(["delays", "disjoint"]) == 0
        assert "no delay pairs" in capsys.readouterr().out

    def test_branchy_program_rejected(self):
        with pytest.raises(SystemExit):
            main(["delays", "MP+sync"])


class TestDiffCommand:
    def test_clean_campaign_exits_zero(self, capsys):
        code = main(["diff", "--programs", "4", "--hw-seeds", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 programs" in out and "0 disagreements" in out

    def test_report_file(self, tmp_path, capsys):
        report = tmp_path / "diff.json"
        code = main(
            ["diff", "--programs", "3", "--report", str(report)]
        )
        assert code == 0
        import json

        data = json.loads(report.read_text())
        assert data["ok"] is True and data["programs_run"] == 3

    def test_parallel_matches_serial(self, capsys):
        assert main(["diff", "--programs", "4", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out.splitlines()[0]
        assert main(["diff", "--programs", "4", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out.splitlines()[0]
        # Same line either way, memo-hit tallies included.
        assert parallel == serial

    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["diff", "--jobs", "-1"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["diff", "--hw-seeds", "0"])
        assert err.value.code == 2
