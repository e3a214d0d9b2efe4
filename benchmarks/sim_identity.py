"""Print one digest per simulator run over a wide corpus, for A/B identity.

Usage (from the root of a checkout)::

    PYTHONPATH=src python benchmarks/sim_identity.py > ids-a.txt
    # ... same command in the other checkout ...
    cmp ids-a.txt ids-b.txt

Two trees simulate identically on this corpus exactly when their outputs
are byte-identical; ``diff`` names the runs that moved.  The corpus is
the litmus catalog and the named workloads, under every policy, seeds
0-9, on the four Figure-1 configurations, the snooping bus, and the
network-cache system under every delivery-preserving fault plan (about
22,000 runs).  Each line's digest covers what ``tests/test_sim_golden.py``
pins -- cycles, result, processor/cache/directory/fault statistics,
message count, each access's generate/commit/globally-performed times --
plus each access's NACK count and its missed and buffered flags.  A run
that raises prints the exception instead of a digest.

This is a check, not a benchmark: it is not run by the test suite (it
takes tens of seconds) and measures no time.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Dict, Iterator

from repro.cli import WORKLOAD_FACTORIES
from repro.hw import POLICY_FACTORIES
from repro.litmus.catalog import all_tests
from repro.sim.faults import DELIVERY_PRESERVING_PLANS
from repro.sim.system import (
    FIGURE1_CONFIGS,
    MachineRun,
    SystemConfig,
    run_on_hardware,
)

SEEDS = range(10)


def configs() -> Dict[str, SystemConfig]:
    """Every substrate of the corpus, by report name."""
    named = dict(FIGURE1_CONFIGS)
    named["snoop"] = SystemConfig(coherence="snoop", topology="bus")
    for name, plan in DELIVERY_PRESERVING_PLANS.items():
        named[f"faults:{name}"] = SystemConfig(fault_plan=plan)
    return named


def run_digest(run: MachineRun) -> str:
    """Digest of every simulated statistic and access flag of one run."""
    h = hashlib.sha256()
    h.update(repr((
        run.cycles,
        run.result,
        [stats.as_dict() for stats in run.proc_stats],
        run.messages_sent,
        run.cache_stats,
        sorted(run.directory_stats.items()),
        sorted(run.fault_stats.items()),
    )).encode())
    for accesses in run.raw_accesses:
        for a in accesses:
            h.update(repr((
                a.uid, a.proc, a.po_index, a.kind.value, a.location,
                a.write_value, a.value_read, a.generate_time,
                a.commit_time, a.gp_time, a.nacks, a.missed, a.buffered,
            )).encode())
    return h.hexdigest()


def lines() -> Iterator[str]:
    """One ``key digest`` line per run of the corpus, in a fixed order."""
    programs = [test.program for test in all_tests()]
    programs += [factory() for factory in WORKLOAD_FACTORIES.values()]
    for config_name, config in configs().items():
        for policy_name, factory in POLICY_FACTORIES.items():
            policy = factory()
            if policy.requires_caches and not config.caches:
                continue
            for program in programs:
                for seed in SEEDS:
                    key = f"{config_name} {policy_name} {program.name} {seed}"
                    try:
                        run = run_on_hardware(
                            program, policy, config.with_seed(seed)
                        )
                    except Exception as exc:  # report, keep going
                        yield f"{key} raised {type(exc).__name__}: {exc}"
                        continue
                    yield f"{key} {run_digest(run)}"


def main() -> int:
    count = 0
    for line in lines():
        sys.stdout.write(line + "\n")
        count += 1
    print(f"{count} runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
