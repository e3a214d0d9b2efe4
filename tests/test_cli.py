"""Tests for the command-line interface."""

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import _print_evidence_table, build_parser, main


def _cli_env(**env_vars: str) -> dict:
    """The environment of a child with this checkout's ``repro``
    importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def _run_cli(*code_or_args: str, **env_vars: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's ``repro`` importable."""
    return subprocess.run(
        [sys.executable, *code_or_args],
        capture_output=True, text=True, env=_cli_env(**env_vars), timeout=120,
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

    @staticmethod
    def _loaded_after(imports: str, prefixes) -> list:
        """Modules under ``prefixes`` that running ``imports`` loads in a
        fresh interpreter (whatever start-up loaded before is left out)."""
        proc = _run_cli("-c", (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            f"{imports}\n"
            f"prefixes = {tuple(prefixes)!r}\n"
            "print(json.dumps(sorted(\n"
            "    name for name in set(sys.modules) - before if name in prefixes\n"
            "    or name.startswith(tuple(p + '.' for p in prefixes)))))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_repro_loads_no_submodule(self):
        assert self._loaded_after("import repro", ["repro"]) == ["repro"]

    def test_cli_loads_no_oracle_or_engine(self):
        # Module level of repro.cli holds only what build_parser needs;
        # each handler imports the modules it runs.  The policy table
        # names the policies without importing them or the simulator.
        assert self._loaded_after("import repro.cli", [
            "repro.analysis", "repro.axiomatic", "repro.verify",
            "repro.core", "repro.sim", "repro.hw", "dataclasses",
        ]) == ["repro.hw"]

    def test_submit_path_loads_no_daemon(self):
        # `repro submit` sends one HTTP request over a socket: it parses
        # its own arguments and builds its request only, and loads
        # neither the daemon, its event loop, the campaign spec module,
        # the engine, http.client (with email and ssl), nor a policy or
        # simulator module.
        assert self._loaded_after(
            "import repro.cli, repro.service.client\n"
            "args = repro.cli.build_parser().parse_args(\n"
            "    ['submit', 'SB', '--policy', 'sc', '--state-dir', 'svc'])\n"
            "request = repro.cli._campaign_request(args)\n"
            "assert request['programs'] == ('SB',), request",
            ["asyncio", "multiprocessing", "repro.service.daemon",
             "repro.service.protocol", "repro.service.campaigns",
             "repro.verify", "http", "email", "ssl", "dataclasses",
             "repro.hw", "repro.sim", "repro.core"],
        ) == ["repro.hw"]

    def test_warm_pooled_sweep_loads_no_multiprocessing(self, tmp_path):
        # The fork check runs at the first pooled map, so a --jobs 2
        # sweep that the store answers in full forks nothing and imports
        # no multiprocessing.
        sweep = (
            "from repro.hw import POLICY_FACTORIES\n"
            "from repro.litmus.catalog import by_name\n"
            "from repro.verify.engine import VerificationEngine\n"
            "programs = [by_name(n).program for n in ('MP+sync', 'SB')]\n"
            "engine = VerificationEngine(jobs={jobs}, cache_dir={store!r})\n"
            "rows = engine.definition2_sweep(\n"
            "    programs, {{'sc': POLICY_FACTORIES['sc']}}, seeds=range(4),\n"
            ").rows\n"
            "stats = engine.store.stats\n"
            "engine.store.close()\n"
            "print(json.dumps([rows, stats.flushed_sc + stats.flushed_drf0\n"
            "                  + stats.flushed_runs,\n"
            "                  'multiprocessing' in sys.modules]))\n"
        )
        runs = []
        for jobs in (1, 2):
            proc = _run_cli("-c", "import json, sys\n" + sweep.format(
                jobs=jobs, store=str(tmp_path)
            ))
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout))
        (cold_rows, cold_flushed, _), (warm_rows, warm_flushed, mp) = runs
        assert cold_flushed > 0 and warm_flushed == 0
        assert warm_rows == cold_rows
        assert mp is False

    def test_daemon_loads_what_its_workers_resolve_before_the_fork(self):
        # The daemon's fleet workers resolve each campaign's program
        # names after the fork; what the daemon loads before forking them
        # must cover every name, so no worker imports a module.
        proc = _run_cli("-c", (
            "import json, sys\n"
            "from repro.hw import POLICY_FACTORIES\n"
            "from repro.service.campaigns import (\n"
            "    load_program_registries, resolve_policies)\n"
            "from repro.workloads import WORKLOAD_FACTORIES, resolve_program\n"
            "load_program_registries()\n"
            "from repro.litmus import all_tests\n"
            "names = [*WORKLOAD_FACTORIES, *(t.name for t in all_tests())]\n"
            "before = set(sys.modules)\n"
            "for name in names:\n"
            "    resolve_program(name)\n"
            "policies = resolve_policies(sorted(POLICY_FACTORIES))\n"
            "built = sorted(factory().name for factory in policies.values())\n"
            "print(json.dumps([sorted(set(sys.modules) - before), built]))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        imported, built = json.loads(proc.stdout)
        assert imported == []
        assert len(built) == 6

    def test_seed_campaign_workers_import_nothing_after_the_fork(self):
        # fuzz and diff import what their seeds run (the snoop substrate
        # included) before the session forks, so no worker imports a
        # repro module of its own.
        proc = _run_cli("-c", (
            "import json, os, sys, tempfile\n"
            "from repro.verify import fleet\n"
            "out = tempfile.mkdtemp()\n"
            "original = fleet._worker_main\n"
            "def recording(*args):\n"
            "    before = set(sys.modules)\n"
            "    try:\n"
            "        original(*args)\n"
            "    finally:\n"
            "        with open(os.path.join(out, str(os.getpid())), 'w') as fh:\n"
            "            json.dump(sorted(set(sys.modules) - before), fh)\n"
            "fleet._worker_main = recording\n"
            "from repro.verify.engine import VerificationEngine\n"
            "VerificationEngine(jobs=2).diff_campaign(range(4), minimize=False)\n"
            "VerificationEngine(jobs=2).fuzz(range(4))\n"
            "imported = {}\n"
            "for name in sorted(os.listdir(out)):\n"
            "    with open(os.path.join(out, name)) as fh:\n"
            "        imported[name] = [module for module in json.load(fh)\n"
            "                          if module.split('.')[0] == 'repro']\n"
            "print(json.dumps(imported))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        imported = json.loads(proc.stdout)
        if "fork" in multiprocessing.get_all_start_methods():
            assert len(imported) == 4  # two workers per campaign
        assert all(modules == [] for modules in imported.values()), imported

    def test_sweep_workers_import_nothing_after_the_fork(self):
        # The policy table imports a policy module only when its factory
        # is called; a sweep with no store calls each factory in the
        # parent before its session forks, so no worker imports one.
        proc = _run_cli("-c", (
            "import json, os, sys, tempfile\n"
            "from repro.verify import fleet\n"
            "out = tempfile.mkdtemp()\n"
            "original = fleet._worker_main\n"
            "def recording(*args):\n"
            "    before = set(sys.modules)\n"
            "    try:\n"
            "        original(*args)\n"
            "    finally:\n"
            "        with open(os.path.join(out, str(os.getpid())), 'w') as fh:\n"
            "            json.dump(sorted(set(sys.modules) - before), fh)\n"
            "fleet._worker_main = recording\n"
            "from repro.cli import main\n"
            "code = main(['sweep', 'MP+sync', 'SB', 'lock', '--seeds', '3',\n"
            "             '--exhaustive-drf0', '--jobs', '2'])\n"
            "imported = {}\n"
            "for name in sorted(os.listdir(out)):\n"
            "    with open(os.path.join(out, name)) as fh:\n"
            "        imported[name] = [module for module in json.load(fh)\n"
            "                          if module.split('.')[0] == 'repro']\n"
            "print(json.dumps([code, imported]))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        code, imported = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        if "fork" in multiprocessing.get_all_start_methods():
            assert len(imported) == 2
        assert all(modules == [] for modules in imported.values()), imported

    @pytest.mark.parametrize("order", ("name_first", "submodule_first"))
    @pytest.mark.parametrize("package", (
        "repro", "repro.analysis", "repro.axiomatic", "repro.core",
        "repro.hw", "repro.litmus", "repro.machine", "repro.obs",
        "repro.service", "repro.sim", "repro.verify", "repro.workloads",
    ))
    def test_every_export_resolves(self, package, order):
        # Each lazy re-export is the object its defining submodule binds,
        # whether the name or the submodule is imported first
        # (repro.verify.fuzz is the function, never the submodule).
        proc = _run_cli("-c", (
            "import importlib, json\n"
            f"package = importlib.import_module({package!r})\n"
            "origin = {name: f'{package.__name__}.{sub}'\n"
            "          for sub, names in package._EXPORTS.items()\n"
            "          for name in names}\n"
            f"if {order == 'submodule_first'}:\n"
            "    for source in set(origin.values()):\n"
            "        importlib.import_module(source)\n"
            "exported = {name: getattr(package, name) for name in origin}\n"
            "wrong = sorted(\n"
            "    name for name, source in origin.items()\n"
            "    if exported[name] is not getattr(\n"
            "        importlib.import_module(source), name)\n"
            "    or getattr(package, name) is not exported[name])\n"
            "listed = set(package.__all__)\n"
            "print(json.dumps([wrong, sorted(set(origin) - listed),\n"
            "                  sorted(listed - set(origin) - set(vars(package))),\n"
            "                  sorted(listed - set(dir(package)))]))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        wrong, unlisted, unbound, undir = json.loads(proc.stdout)
        assert wrong == [] and unlisted == [] and unbound == [] and undir == []

    def test_obs_export_validate_runs_clean(self, tmp_path):
        # `python -m repro.obs.export` must run its module once: a package
        # that imported it eagerly made runpy warn (RuntimeWarning) and
        # execute it a second time as __main__.
        from repro.obs import RecordingTracer, write_chrome_trace

        tracer = RecordingTracer()
        tracer.span("cat", "s", "P0", 0, 5)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer)
        proc = _run_cli("-m", "repro.obs.export", "--validate", str(path))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == f"{path}: ok\n"


#: Command lines that name every subcommand and every one of its flags
#: (checked below), repeated ``--policy`` included.
PARSER_CORPUS = [
    ["catalog"],
    ["litmus"],
    ["litmus", "SB", "MP", "--policy", "adve_hill", "--topology", "bus",
     "--no-caches", "--seeds", "4", "--net-latency", "2",
     "--capacity", "8", "--trace-out", "t.json", "--metrics-json", "m.json"],
    ["drf0", "SB", "--sampled", "--seeds", "5", "--witness", "--stats",
     "--json", "--trace-out", "t.json", "--metrics-json", "m.json",
     "--status-json", "s.json"],
    ["models"],
    ["models", "SB", "MP"],
    ["simulate", "TAS", "--trace", "--json", "--policy", "sc",
     "--topology", "network", "--no-caches", "--seed", "1",
     "--net-latency", "1", "--capacity", "4", "--faults", "reorder",
     "--fault-seed", "3", "--watchdog", "1000", "--trace-out", "t.json",
     "--metrics-json", "m.json"],
    ["sweep"],
    ["sweep", "MP+sync", "SB", "--policy", "sc", "--policy", "adve_hill",
     "--policy", "relaxed", "--topology", "bus", "--no-caches",
     "--seeds", "3", "--net-latency", "4", "--capacity", "16",
     "--drf0-seeds", "4", "--exhaustive-drf0", "--check-51", "--jobs", "2",
     "--stats", "--task-timeout", "1.5", "--cache-dir", "store",
     "--faults", "jitter-light",
     "--fault-seed", "7", "--watchdog", "500", "--trace-out", "t.json",
     "--metrics-json", "m.json", "--status-json", "s.json"],
    ["profile", "--workload", "lock"],
    ["profile", "--workload", "critical_section", "--compare", "sc",
     "--policy", "definition1", "--topology", "bus", "--no-caches",
     "--seed", "5", "--net-latency", "2", "--capacity", "4",
     "--trace-out", "t.json", "--metrics-json", "m.json"],
    ["delays", "SB"],
    ["fuzz"],
    ["fuzz", "--programs", "3", "--start-seed", "2", "--jobs", "2",
     "--cache-dir", "store", "--metrics-json", "m.json",
     "--status-json", "s.json"],
    ["diff", "--programs", "3", "--start-seed", "1", "--hw-seeds", "1",
     "--jobs", "2", "--cache-dir", "store", "--no-minimize",
     "--report", "r.json", "--metrics-json", "m.json",
     "--status-json", "s.json"],
    ["chaos", "--quick", "--seeds", "2", "--jobs", "2", "--report", "r.json",
     "--cache-dir", "store", "--service", "svc", "--service-kills", "1",
     "--service-no-restart", "--status-json", "s.json"],
    ["cache", "stats", "store", "--json"],
    ["cache", "audit", "store", "--sample", "5"],
    ["serve", "svc"],
    ["serve", "svc", "--host", "0.0.0.0", "--port", "9", "--workers", "3",
     "--queue-limit", "2", "--task-timeout", "5", "--max-retries", "1",
     "--retry-backoff", "0.1"],
    ["submit", "--state-dir", "svc"],
    ["submit", "SB", "lock", "--state-dir", "svc", "--policy", "sc",
     "--policy", "adve-hill-drf1", "--seeds", "3", "--drf0-seeds", "2",
     "--exhaustive-drf0", "--check-51", "--no-wait", "--timeout", "9"],
    ["submit", "--host", "localhost", "--port", "9"],
    ["campaigns", "--state-dir", "svc"],
    ["campaigns", "c1", "--state-dir", "svc", "--host", "h", "--port", "9",
     "--events", "--json", "--shutdown"],
    ["status", "s.json", "--json"],
    ["top", "s.json", "--interval", "0.5", "--once"],
]

#: Command lines that argparse rejects (exit status 2).
BAD_ARGV = [
    [],
    ["nosuchcmd"],
    ["--bogus", "catalog"],
    ["catalog", "extra"],
    ["submit", "--policy", "nope"],
    ["sweep", "--policy", "nope"],
    ["litmus", "--policy", "adve-hill", "--policy", "nope"],
    ["simulate", "TAS", "--faults", "nope"],
    ["sweep", "--faults", "nope"],
    ["sweep", "--seeds", "many"],
    # Retired options are unknown, not silently ignored.
    ["sweep", "--journal", "j.jsonl"],
    ["sweep", "--resume"],
    ["serve", "svc", "--keep-journals", "2"],
    # Flags that changed nothing: every run reseeds the config itself,
    # and one run or one profile reads no seed count.
    ["sweep", "--seed", "3"],
    ["litmus", "--seed", "3"],
    ["simulate", "TAS", "--seeds", "2"],
    ["profile", "--workload", "lock", "--seeds", "2"],
    ["drf0"],
    ["simulate"],
    ["delays"],
    ["cache", "stats"],
    ["serve"],
    ["status"],
    ["top"],
    ["profile"],
]


def _parse(parser, argv):
    """``(exit status or None, namespace, stdout, stderr)`` of one parse."""
    out, err = io.StringIO(), io.StringIO()
    namespace, status = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parser.parse_args(argv)
        except SystemExit as exc:
            status = exc.code
    return status, namespace, out.getvalue(), err.getvalue()


class TestParser:
    """The parser :func:`main` uses adds only the invoked subcommand's
    arguments; it must parse, print help and fail exactly as the parser
    with every subcommand's arguments added."""

    @staticmethod
    def _subcommands():
        return build_parser(lazy=False)._subparsers._group_actions[0].choices

    def test_corpus_names_every_flag_of_every_subcommand(self):
        for name, subparser in self._subcommands().items():
            flags = {
                option
                for action in subparser._actions
                for option in action.option_strings
            } - {"-h", "--help"}
            named = {
                token for argv in PARSER_CORPUS
                if next(t for t in argv if t[0] != "-") == name
                for token in argv
            }
            assert flags <= named, (name, sorted(flags - named))

    @pytest.mark.parametrize(
        "argv", [[], *([name] for name in (
            "catalog", "litmus", "drf0", "models", "simulate", "sweep",
            "profile", "delays", "fuzz", "diff", "chaos", "cache", "serve",
            "submit", "campaigns", "status", "top",
        ))], ids=lambda argv: argv[0] if argv else "repro",
    )
    def test_help_is_the_full_parsers(self, argv):
        lazy = _parse(build_parser(), argv + ["--help"])
        assert lazy == _parse(build_parser(lazy=False), argv + ["--help"])
        assert lazy[0] == 0 and lazy[2].startswith("usage: repro")

    @pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
    def test_argv_parses_as_in_the_full_parser(self, argv):
        lazy = _parse(build_parser(), argv)
        assert lazy[0] is None, lazy[3]
        assert lazy == _parse(build_parser(lazy=False), argv)

    @pytest.mark.parametrize(
        "argv", BAD_ARGV, ids=lambda argv: " ".join(argv) or "empty"
    )
    def test_bad_argv_fails_as_in_the_full_parser(self, argv):
        lazy = _parse(build_parser(), argv)
        assert lazy[0] == 2 and lazy[3].startswith("usage: repro")
        assert lazy == _parse(build_parser(lazy=False), argv)

    def test_only_the_invoked_subcommand_gets_a_parser(self):
        parser = build_parser()
        parser.parse_args(["submit", "--state-dir", "svc"])
        built = sorted(
            name
            for name, sub in parser._subparsers._group_actions[0].choices.items()
            if isinstance(sub, argparse.ArgumentParser)
        )
        assert built == ["submit"]


class TestEntry:
    """``python -m repro`` runs :func:`repro.cli.entry`: it flushes,
    freezes the heap for a quick exit, and survives a closed stdout."""

    def test_closed_stdout_exits_1_without_a_traceback(self):
        # The read end is closed before the child starts, so its first
        # write to stdout fails, whether stdout is buffered or not.
        for unbuffered in ("", "1"):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "repro", "catalog"],
                    stdout=write_end, stderr=subprocess.PIPE, text=True,
                    timeout=120, env=_cli_env(PYTHONUNBUFFERED=unbuffered),
                )
            finally:
                os.close(write_end)
            assert proc.returncode == 1
            assert proc.stderr == ""

    def test_frozen_exit_leaves_every_output_whole(self, tmp_path, capsys):
        # The collector never finalizes a frozen object, so everything a
        # command writes must be closed before main() returns.
        store = tmp_path / "store"
        metrics, trace = tmp_path / "m.json", tmp_path / "t.json"
        status = tmp_path / "s.json"
        argv = ["sweep", "MP+sync", "SB", "--seeds", "4", "--policy", "sc",
                "--policy", "adve-hill"]
        proc = _run_cli(
            "-m", "repro", *argv, "--jobs", "2", "--cache-dir", str(store),
            "--metrics-json", str(metrics),
            "--trace-out", str(trace), "--status-json", str(status),
        )
        assert proc.returncode == 0, proc.stderr
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out

        stats = _run_cli(
            "-m", "repro", "cache", "stats", str(store), "--json"
        )
        summary = json.loads(stats.stdout)
        assert summary["dropped_lines"] == 0
        assert summary["quarantined_segments"] == 0

        rerun = _run_cli("-m", "repro", *argv, "--cache-dir", str(store))
        assert rerun.returncode == 0, rerun.stderr
        assert rerun.stdout == proc.stdout
        assert " 0 new records flushed" in rerun.stderr  # nothing recomputed

        validated = _run_cli("-m", "repro.obs.export", "--validate", str(trace))
        assert validated.returncode == 0, validated.stdout
        assert json.loads(metrics.read_text())
        checked = _run_cli(
            "-m", "repro.obs.export", "--validate-status", str(status)
        )
        assert checked.returncode == 0, checked.stdout
        assert json.loads(status.read_text())["state"] == "done"


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

    def test_search_cap_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # A thread that counts forever never halts and never revisits a
        # configuration, so the search hits its 400-operation cap.  That
        # is no verdict, so neither exit 1 (racy) nor a traceback; the
        # status snapshot still records the failure.
        from repro import cli
        from repro.machine.dsl import ThreadBuilder, build_program

        counter = build_program(
            [ThreadBuilder().label("l").add("r", "r", 1).store("x", "r")
             .jump("l")],
            initial_memory={"x": 0},
            name="counter",
        )
        monkeypatch.setattr(cli, "_resolve_program", lambda name: counter)
        status = tmp_path / "status.json"
        with pytest.raises(SystemExit) as exc:
            main(["drf0", "counter", "--status-json", str(status)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "exceeded 400 operations" in captured.err
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
                "--policy", "adve-hill-drf1",
                PYTHONHASHSEED=hash_seed,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1


class TestSubstratePairing:
    """A policy the configured substrate cannot run is a usage error,
    found before the first run: one stderr line, exit status 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "TAS", "--no-caches"],
            ["litmus", "SB", "--no-caches"],
            ["profile", "--workload", "TAS", "--no-caches"],
            ["sweep", "SB", "--no-caches"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_cacheless_adve_hill_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro: error: policy 'weak-ordering-adve-hill' needs the "
            "cache-coherent substrate\n"
        )

    def test_a_policy_the_substrate_can_run_still_runs(self, capsys):
        assert main(["sweep", "SB", "--no-caches", "--policy", "sc"]) == 0
        assert "Definition-2 contract: holds" in capsys.readouterr().out


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

    def test_metrics_count_every_drf0_search(self, tmp_path, capsys):
        """Each program's exhaustive DRF0 search lands in
        ``engine.explorer.*``, with the same totals at any --jobs."""
        counters = []
        for jobs in ("1", "2"):
            metrics = tmp_path / f"metrics-{jobs}.json"
            argv = ["diff", "--programs", "20", "--jobs", jobs]
            assert main([*argv, "--metrics-json", str(metrics)]) == 0
            counters.append(
                {
                    name: value
                    for name, value in json.loads(metrics.read_text())[
                        "counters"
                    ].items()
                    if name.startswith("engine.explorer.")
                }
            )
        assert counters[0]["engine.explorer.states"] > 0
        assert counters[0] == counters[1]

    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["diff", "--jobs", "-1"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["diff", "--hw-seeds", "0"])
        assert err.value.code == 2
