"""Campaign specs: the one request for a Definition-2 sweep.

A campaign is exactly a ``definition2_sweep`` call by name: a program
corpus (litmus/workload names), a policy grid (policy registry names),
a hardware config, and seed ranges.  ``repro sweep`` builds one from its
flags and runs it, ``repro submit`` sends one to the daemon, and the
daemon and the service chaos harness run the ones they receive.  Every
one of them expands a spec through :meth:`CampaignSpec.sweep_arguments`.

Everything is name-based and JSON-round-trippable so specs can cross
the HTTP protocol, be persisted in the daemon's state directory, and be
resolved *independently* by the daemon (for the engine and its
serial-degradation path) and by each fleet worker (which was spawned
before the campaign existed and cannot inherit anything by fork).

Content signature: :meth:`CampaignSpec.signature` hashes the canonical
JSON form.  The daemon embeds it in campaign ids and results.  A
restarted daemon resumes a campaign from the shared verdict store,
whose keys are the units' content, so it can only ever reuse records
that match the spec's own inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.sim.faults import FAULT_PLANS
from repro.sim.system import SystemConfig, build_config, validate_policy_config
from repro.workloads import WORKLOAD_FACTORIES, resolve_program


class CampaignError(ValueError):
    """The spec is malformed or references unknown names (client error)."""


#: SystemConfig fields a spec's ``config`` object may set directly.
_CONFIG_FIELDS = (
    "topology",
    "caches",
    "coherence",
    "seed",
    "bus_latency",
    "net_latency",
    "net_jitter",
    "fifo_per_pair",
    "mem_latency",
    "hit_latency",
    "local_cycle",
    "write_buffer",
    "wb_drain_delay",
    "cache_capacity",
    "reserved_miss_limit",
    "remote_sync_nack",
    "nack_retry_delay",
    "max_events",
    "watchdog_cycles",
)


def config_from_dict(data: Optional[dict]) -> SystemConfig:
    """Build a :class:`SystemConfig` from a spec's ``config`` object.

    The object comes from outside the program, so its names are checked
    here: plain fields against :data:`_CONFIG_FIELDS`, the fault plan
    (``faults`` + optional ``fault_seed``) against
    :data:`~repro.sim.faults.FAULT_PLANS`.
    :func:`~repro.sim.system.build_config` builds it, as it builds the
    config of the command line's ``--faults`` flags.
    """
    data = dict(data or {})
    unknown = set(data) - {"faults", "fault_seed", *_CONFIG_FIELDS}
    if unknown:
        raise CampaignError(
            f"unknown config fields: {', '.join(sorted(unknown))}"
        )
    plan_name = data.get("faults")
    if plan_name is not None and plan_name not in FAULT_PLANS:
        raise CampaignError(
            f"unknown fault plan {plan_name!r} "
            f"(known: {', '.join(sorted(FAULT_PLANS))})"
        )
    try:
        return build_config(**data)
    except TypeError as exc:
        raise CampaignError(f"bad config: {exc}")


def load_program_registries() -> None:
    """Import every module a program or policy name can resolve through.

    Fleet workers resolve each campaign's names after the fork; the
    daemon calls this before it forks them, so they inherit the litmus
    catalog, the workload modules and the policy modules instead of
    each importing them.
    """
    from repro.hw import POLICY_FACTORIES
    from repro.litmus import catalog  # noqa: F401 -- loaded for the fork

    for build in (*WORKLOAD_FACTORIES.values(), *POLICY_FACTORIES.values()):
        build()


def resolve_policies(
    names: Iterable[str],
) -> Dict[str, Callable[[], object]]:
    from repro.hw import POLICY_FACTORIES

    factories: Dict[str, Callable[[], object]] = {}
    for name in names:
        if name not in POLICY_FACTORIES:
            raise CampaignError(
                f"unknown policy {name!r} "
                f"(known: {', '.join(sorted(POLICY_FACTORIES))})"
            )
        factories[name] = POLICY_FACTORIES[name]
    return factories


@dataclass(frozen=True)
class CampaignSpec:
    """One verification campaign, exactly as submitted.

    ``failpoints`` is chaos-test plumbing: each entry
    ``{"task_kind", "mode", "token"}`` becomes an engine
    :class:`~repro.verify.engine.Failpoint` inside every fleet worker
    (token-claimed, so each fires exactly once across the fleet) --
    how the kill-chaos tests inject deterministic worker deaths into a
    live daemon without patching it.
    """

    programs: Tuple[str, ...]
    policies: Tuple[str, ...]
    seeds: int = 20
    drf0_seeds: int = 30
    exhaustive_drf0: bool = False
    check_51: bool = False
    config: dict = field(default_factory=dict)
    failpoints: Tuple[dict, ...] = ()

    # -- wire format ---------------------------------------------------

    @staticmethod
    def from_dict(data: dict) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise CampaignError("spec must be a JSON object")
        programs = data.get("programs")
        policies = data.get("policies")
        if not programs or not isinstance(programs, list):
            raise CampaignError("spec needs a non-empty 'programs' list")
        if not policies or not isinstance(policies, list):
            raise CampaignError("spec needs a non-empty 'policies' list")
        try:
            seeds = int(data.get("seeds", 20))
            drf0_seeds = int(data.get("drf0_seeds", 30))
        except (TypeError, ValueError):
            raise CampaignError("'seeds' / 'drf0_seeds' must be integers")
        if seeds <= 0:
            raise CampaignError("'seeds' must be positive")
        failpoints = []
        for entry in data.get("failpoints", ()):
            if not isinstance(entry, dict) or not entry.get("token"):
                raise CampaignError(
                    "failpoints entries need task_kind/mode/token"
                )
            failpoints.append(
                {
                    "task_kind": str(entry.get("task_kind", "*")),
                    "mode": str(entry.get("mode", "crash")),
                    "token": str(entry["token"]),
                }
            )
        spec = CampaignSpec(
            programs=tuple(str(n) for n in programs),
            policies=tuple(str(n) for n in policies),
            seeds=seeds,
            drf0_seeds=drf0_seeds,
            exhaustive_drf0=bool(data.get("exhaustive_drf0", False)),
            check_51=bool(data.get("check_51", False)),
            config=dict(data.get("config") or {}),
            failpoints=tuple(failpoints),
        )
        config_from_dict(spec.config)  # validate the config names eagerly
        return spec

    def to_dict(self) -> dict:
        return {
            "programs": list(self.programs),
            "policies": list(self.policies),
            "seeds": self.seeds,
            "drf0_seeds": self.drf0_seeds,
            "exhaustive_drf0": self.exhaustive_drf0,
            "check_51": self.check_51,
            "config": dict(self.config),
            "failpoints": [dict(f) for f in self.failpoints],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def signature(self) -> str:
        """Content hash of the spec (failpoints included: a chaos run is
        a different campaign than a clean one)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- resolution ----------------------------------------------------

    def sweep_arguments(self) -> dict:
        """The keyword arguments of the ``definition2_sweep`` this spec
        names, its names resolved (:class:`CampaignError` for an unknown
        one) and every policy checked against the config before any run
        (:class:`ValueError` for one the substrate cannot run).

        The one expansion of a spec: every caller runs a campaign as
        ``engine.definition2_sweep(**spec.sweep_arguments())``, and each
        daemon fleet worker builds its sweep campaign from the same
        arguments (:func:`build_task_context`), so the cell indices in
        task tuples mean the same in every process.
        """
        programs = []
        for name in self.programs:
            try:
                programs.append(resolve_program(name))
            except KeyError:
                raise CampaignError(f"unknown program {name!r}")
        policy_factories = resolve_policies(self.policies)
        config = config_from_dict(self.config)
        for factory in policy_factories.values():
            validate_policy_config(factory(), config)
        return {
            "programs": programs,
            "policy_factories": policy_factories,
            "config": config,
            "seeds": range(self.seeds),
            "drf0_seeds": range(self.drf0_seeds),
            "exhaustive_drf0": self.exhaustive_drf0,
            "check_51_conditions": self.check_51,
        }


def build_task_context(data: dict):
    """Worker-side: spec dict -> the
    :class:`~repro.verify.engine.SweepCampaign` the daemon's engine
    builds from the same :meth:`~CampaignSpec.sweep_arguments`, with the
    spec's failpoints armed."""
    from repro.verify.engine import Failpoint, SweepCampaign

    spec = CampaignSpec.from_dict(data)
    return SweepCampaign(
        **spec.sweep_arguments(),
        failpoints=tuple(
            Failpoint(f["task_kind"], f["mode"], f["token"])
            for f in spec.failpoints
        ),
    )
