"""Reproduction of *Weak Ordering -- A New Definition* (Adve & Hill, ISCA 1990).

The library is organized around the paper's central move: re-defining weak
ordering as a **contract** between software and hardware.

* :mod:`repro.machine` -- the register-machine frontend every executor shares.
* :mod:`repro.core` -- the formal side: the idealized sequentially consistent
  architecture, happens-before, the DRF0/DRF1 synchronization models, and
  the Definition-2 "appears sequentially consistent" checker.
* :mod:`repro.axiomatic` -- herd-style candidate-execution enumeration with
  axiomatic memory models (SC, TSO-like, coherence-only).
* :mod:`repro.sim` -- a discrete-event, directory-based cache-coherent
  multiprocessor simulator (the hardware side of the contract).
* :mod:`repro.hw` -- memory-system policies: sequential consistency, the old
  Definition 1 (Dubois/Scheurich/Briggs), and the paper's Section-5.3
  implementation (counters + reserve bits), with the DRF1 read-only-sync
  optimization.
* :mod:`repro.litmus` -- the paper's figures and classic litmus tests.
* :mod:`repro.workloads` -- synthetic workloads for the quantitative study.
* :mod:`repro.analysis` -- Shasha-Snir delay-set analysis (related work).
* :mod:`repro.verify` -- contract sweeps and Section-5.1 condition monitors.

Quickstart::

    from repro import build_program, ThreadBuilder, sc_results, obeys_drf0

    p0 = ThreadBuilder().store("x", 1).unset("flag")
    p1 = ThreadBuilder().sync_load("r0", "flag").load("r1", "x")
    program = build_program([p0, p1], initial_memory={"flag": 1})
    print(obeys_drf0(program))
    print(sc_results(program))

Every package re-exports its public names lazily (PEP 562): importing a
package loads none of its submodules, and the first access to a name
imports the one submodule that defines it.  Each package lists its names
once, in its ``_EXPORTS`` table, so a command pays at start-up only for
the modules it uses.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, List, Sequence

__version__ = "1.0.0"


class _LazyPackage(types.ModuleType):
    """A package whose re-exported names win over same-named submodules.

    The import system binds each submodule it imports on the parent
    package.  Where the package re-exports a same-named object
    (``repro.verify.fuzz`` is the fuzz function), that binding is
    dropped, so the name resolves to the export whichever of the two is
    imported first -- as it did when the package imported eagerly.
    """

    def __setattr__(self, name: str, value) -> None:
        if (
            isinstance(value, types.ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in self.__dict__.get("__all__", ())
        ):
            return
        super().__setattr__(name, value)


def _lazy_exports(package: str, table: Dict[str, Sequence[str]]) -> List[str]:
    """Re-export ``table``'s names from ``package`` on first access.

    ``table`` maps each defining submodule, relative to ``package``, to
    the public names it provides.  Installs the package's module
    ``__getattr__`` and ``__dir__`` and returns its ``__all__``.
    """
    module = sys.modules[package]
    namespace = vars(module)
    origin = {
        name: f"{package}.{submodule}"
        for submodule, names in table.items()
        for name in names
    }

    def __getattr__(name: str):
        try:
            source = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(source), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    module.__class__ = _LazyPackage
    return list(origin)


def _deferred(module: str, factory: str, *args, **kwargs) -> Callable:
    """``factory(*args, **kwargs)`` from ``module``, imported when called.

    The registries of names a command line accepts (policies, workloads)
    map each name to one of these, so listing the names loads nothing.
    """

    def build():
        return getattr(importlib.import_module(module), factory)(
            *args, **kwargs
        )

    return build


_EXPORTS = {
    "core.contract": (
        "ContractReport", "appears_sc", "check_weak_ordering", "is_sc_result",
    ),
    "core.drf0": ("Race", "check_program", "obeys_drf0", "races_in_execution"),
    "core.execution": ("Execution", "Result"),
    "core.models": ("DRF0_MODEL", "DRF1_MODEL"),
    "core.ops": ("Operation", "conflicts"),
    "core.relations": ("happens_before",),
    "core.sc": ("ExplorationConfig", "explore", "sc_results"),
    "core.types": ("Condition", "OpKind"),
    "machine.dsl": ("ThreadBuilder", "build_program"),
    "machine.program": ("Program",),
}
__all__ = _lazy_exports(__name__, _EXPORTS) + ["__version__"]
