"""Memory-system policies: SC, Definition 1, and the paper's implementation.

:data:`POLICY_FACTORIES` is the one table of policy names: a command
line validates ``--policy`` against its keys, and each factory imports
its policy module only when it is called.  Code that forks workers
calls every factory it dispatches once before the fork, so the workers
inherit the policy modules instead of importing them.
"""

from repro import _deferred, _lazy_exports

_EXPORTS = {
    "base": ("BlockLevel", "GateCondition", "MemoryPolicy"),
    "relaxed": ("RelaxedPolicy",),
    "release_consistency": ("ReleaseConsistencyPolicy",),
    "sc_impl": ("SCPolicy",),
    "wo_adve_hill": ("AdveHillPolicy",),
    "wo_definition1": ("Definition1Policy",),
}

#: Factories for the policies compared throughout the benchmarks.
POLICY_FACTORIES = {
    "sc": _deferred("repro.hw.sc_impl", "SCPolicy"),
    "definition1": _deferred("repro.hw.wo_definition1", "Definition1Policy"),
    "adve-hill": _deferred("repro.hw.wo_adve_hill", "AdveHillPolicy"),
    "adve-hill-drf1": _deferred(
        "repro.hw.wo_adve_hill", "AdveHillPolicy", drf1_optimized=True
    ),
    "release-consistency": _deferred(
        "repro.hw.release_consistency", "ReleaseConsistencyPolicy"
    ),
    "relaxed": _deferred("repro.hw.relaxed", "RelaxedPolicy"),
}

__all__ = _lazy_exports(__name__, _EXPORTS) + ["POLICY_FACTORIES"]
