"""The processor's gate bookkeeping agrees with a full rescan.

``Processor`` answers the policy-facing queries -- ``not_globally_performed()``
and ``pending_syncs(level)`` -- from indexes it prunes as accesses commit and
globally perform, instead of scanning every access of the run.  These tests
wrap each policy's ``generation_gate`` so that, at every access the processor
issues, the indexed answers and the gate list the policy returns are compared
with the same quantities recomputed by scanning ``proc.accesses``.  A second
check runs at the moment each access is handed to the memory port.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cli import WORKLOAD_FACTORIES
from repro.hw import POLICY_FACTORIES, RelaxedPolicy
from repro.litmus.catalog import all_tests
from repro.machine.dsl import ThreadBuilder, build_program
from repro.sim.access import BlockLevel
from repro.sim.events import Simulator
from repro.sim.migration import (
    MigrationPlan,
    _ResumedProcessor,
    run_with_migration,
)
from repro.sim.processor import Processor
from repro.sim.system import SystemConfig, run_on_hardware

from helpers import lock_increment_program

COMMIT, GP = BlockLevel.COMMIT, BlockLevel.GP


def _not_gp(proc):
    return [a for a in proc.accesses if a.generated and not a.globally_performed]


def _syncs_not_committed(proc):
    return [a for a in proc.accesses if a.is_sync and not a.committed]


def _syncs_not_gp(proc):
    return [a for a in proc.accesses if a.is_sync and not a.globally_performed]


def _reference_gates(policy_name, proc, access):
    """Each policy's gate list, derived from rescans (uid, level) pairs."""
    if policy_name == "sc":
        previous = proc.last_generated
        if previous is None or previous.globally_performed:
            return []
        return [(previous.uid, GP)]
    if policy_name == "definition1":
        prior = _not_gp(proc) if access.is_sync else _syncs_not_gp(proc)
        return [(a.uid, GP) for a in prior]
    if policy_name in ("adve-hill", "adve-hill-drf1"):
        return [(a.uid, COMMIT) for a in _syncs_not_committed(proc)]
    if policy_name == "release-consistency":
        if access.is_sync and access.has_write:
            return [(a.uid, GP) for a in _not_gp(proc)]
        if access.is_sync:
            return [(a.uid, GP) for a in _syncs_not_gp(proc)]
        return [
            (a.uid, COMMIT) for a in _syncs_not_committed(proc) if a.has_read
        ]
    assert policy_name == "relaxed"
    return []


def _assert_queries_match_rescan(proc):
    uids = lambda accesses: [a.uid for a in accesses]  # noqa: E731
    assert uids(proc.not_globally_performed()) == uids(_not_gp(proc))
    assert uids(proc.pending_syncs(COMMIT)) == uids(_syncs_not_committed(proc))
    assert uids(proc.pending_syncs(GP)) == uids(_syncs_not_gp(proc))


class _CheckingPort:
    """Delegates to the real port after checking the indexes at generation."""

    def __init__(self, proc, port, counts):
        self._proc = proc
        self._port = port
        self._counts = counts

    def submit(self, access):
        assert self._proc.accesses[-1] is access
        _assert_queries_match_rescan(self._proc)
        self._counts["generated"] += 1
        self._port.submit(access)


def checked_policy(policy_name, counts):
    """A fresh policy whose gate function cross-checks the bookkeeping."""
    policy = POLICY_FACTORIES[policy_name]()
    gate = policy.generation_gate

    def generation_gate(proc, access):
        if not isinstance(proc.port, _CheckingPort):
            proc.port = _CheckingPort(proc, proc.port, counts)
        _assert_queries_match_rescan(proc)
        gates = gate(proc, access)
        assert [(g.access.uid, g.level) for g in gates] == _reference_gates(
            policy_name, proc, access
        )
        counts["gates"] += 1
        return gates

    policy.generation_gate = generation_gate
    return policy


PROGRAMS = [test.program for test in all_tests()] + [
    factory() for factory in WORKLOAD_FACTORIES.values()
]


@pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
def test_indexes_match_rescan_over_catalog_and_workloads(policy_name):
    counts = {"gates": 0, "generated": 0}
    generated = 0
    for program in PROGRAMS:
        policy = checked_policy(policy_name, counts)
        for seed in range(5):
            run = run_on_hardware(program, policy, SystemConfig(seed=seed))
            generated += sum(s.accesses_generated for s in run.proc_stats)
    # Every issued access was checked at its gate and at its generation.
    assert counts["gates"] == counts["generated"] == generated > 0


@pytest.mark.parametrize("policy_name", ["definition1", "adve-hill"])
def test_indexes_follow_a_migrated_thread(policy_name):
    counts = {"gates": 0, "generated": 0}
    run = run_with_migration(
        lock_increment_program(2),
        checked_policy(policy_name, counts),
        MigrationPlan(thread=0, after_accesses=2),
        SystemConfig(seed=3),
    )
    assert run.result.memory_value("count") == 2
    # The spare processor issued accesses after adopting the donor's.
    assert counts["gates"] == counts["generated"] > 4


def test_adopt_carries_accesses_still_in_flight():
    """A spare that adopts a donor with outstanding accesses reports them."""

    class SilentPort:
        """Accepts accesses and never completes them."""

        def submit(self, access):
            pass

    program = build_program(
        [ThreadBuilder().store("x", 1).unset("s").store("y", 2)], name="w3"
    )
    sim = Simulator()
    uids = itertools.count().__next__
    args = (program.threads[0], RelaxedPolicy(), SilentPort(), uids, lambda p: None)
    donor = Processor(sim, 0, *args)
    donor.start()
    sim.run()
    assert [a.uid for a in donor.not_globally_performed()] == [0, 1, 2]

    spare = _ResumedProcessor(sim, 0, *args)
    spare.adopt(donor)
    _assert_queries_match_rescan(spare)
    assert [a.uid for a in spare.not_globally_performed()] == [0, 1, 2]
    assert [a.uid for a in spare.pending_syncs(COMMIT)] == [1]
    assert spare.last_generated is donor.accesses[-1]
