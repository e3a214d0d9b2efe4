"""Golden digests pinning the simulator's absolute statistics.

The corpus is the litmus catalog and the named workloads, under every
policy, seeds 0-2, on four substrates: the default network-cache
system, the cacheless bus, the snooping bus, and the directory system
under the ``kitchen-sink`` fault plan.  Every run is reduced to one
digest covering cycles, the result, every
:class:`~repro.sim.processor.ProcessorStats` field, message, cache,
directory and fault counts, and each access's generate, commit and
globally-performed times.  The expected digests live in
``sim_golden.json``; a change to the simulator that moves any simulated
number fails here.

A deliberate behaviour change regenerates the file with::

    PYTHONPATH=src python tests/test_sim_golden.py

and says so in its change description (it must also bump
``verify/store.SEMANTICS_VERSION``).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Iterator, Tuple

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

GOLDEN = pathlib.Path(__file__).with_name("sim_golden.json")

CONFIGS: Dict[str, SystemConfig] = {
    "default": SystemConfig(),
    "bus-no-cache": FIGURE1_CONFIGS["bus-no-cache"],
    "snoop": SystemConfig(coherence="snoop", topology="bus"),
    "kitchen-sink": SystemConfig(
        fault_plan=DELIVERY_PRESERVING_PLANS["kitchen-sink"]
    ),
}
SEEDS = range(3)


def run_digest(run: MachineRun) -> str:
    """A short digest of every simulated statistic of one run."""
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
                a.uid, a.po_index, a.kind.value, a.location, a.value_read,
                a.generate_time, a.commit_time, a.gp_time,
            )).encode())
    return h.hexdigest()[:16]


def corpus() -> Iterator[Tuple[str, str]]:
    """``(key, digest)`` for every run of the golden corpus, in order."""
    programs = [test.program for test in all_tests()]
    programs += [factory() for factory in WORKLOAD_FACTORIES.values()]
    for config_name, config in CONFIGS.items():
        for policy_name, factory in POLICY_FACTORIES.items():
            policy = factory()
            if policy.requires_caches and not config.caches:
                continue
            for program in programs:
                for seed in SEEDS:
                    run = run_on_hardware(
                        program, policy, config.with_seed(seed)
                    )
                    key = f"{config_name}/{policy_name}/{program.name}/{seed}"
                    yield key, run_digest(run)


def test_simulated_statistics_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = dict(corpus())
    assert list(actual) == list(expected)
    moved = [key for key in expected if actual[key] != expected[key]]
    assert not moved, f"{len(moved)} runs moved, first: {moved[:5]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(dict(corpus()), indent=0) + "\n")
