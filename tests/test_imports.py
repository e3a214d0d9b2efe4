"""Every name a ``src/`` module imports at module level is read there.

An unused import costs start-up time and hides what a module depends
on.  The check is a stdlib ``ast`` scan, so it needs no linter: a
module-level import binds names, and each must be read somewhere in the
module -- in code, or in a quoted annotation.  A name listed in the
module's ``__all__`` is a re-export, and an import marked
``# noqa: F401`` is kept on purpose (say why beside it).
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def _module_imports(tree):
    """``(name, line)`` of every name bound by a module-level import,
    including those under a module-level ``if`` or ``try``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body)
            pending.extend(node.orelse)
            if isinstance(node, ast.Try):
                pending.extend(node.finalbody)
                for handler in node.handlers:
                    pending.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            arguments = node.args
            for arg in (
                *arguments.posonlyargs, *arguments.args,
                *arguments.kwonlyargs, arguments.vararg, arguments.kwarg,
            ):
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree):
    """Every name the module reads, quoted annotations included."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a type
                    continue
                names |= _read_names(quoted)
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return set()
    return set()


def unused_imports(path):
    """``line: name`` of each module-level import ``path`` never reads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = _read_names(tree) | _exported(tree)
    return sorted(
        f"{line}: {name}"
        for name, line in _module_imports(tree)
        if name not in read and "# noqa: F401" not in lines[line - 1]
    )


def test_every_module_level_import_is_read():
    unused = {}
    for path in sorted(SRC.rglob("*.py")):
        found = unused_imports(path)
        if found:
            unused[str(path.relative_to(SRC))] = found
    assert unused == {}


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import TYPE_CHECKING, Dict, List\n"
        "import os.path\n"
        "import json  # noqa: F401\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "    from fractions import Fraction\n"
        "__all__ = ['List']\n"
        "def f(x: 'Decimal') -> Dict[str, int]:\n"
        "    return {}\n"
    )
    assert unused_imports(module) == ["2: os", "6: Fraction"]


#: Who may import what: ``repro.cli`` is the command line's own module,
#: and ``repro.service`` is the campaign daemon's package, which only
#: the command line (``repro serve``, ``submit``, ``chaos --service``)
#: reaches into.  A library module that imported either would drag the
#: CLI or the daemon into every program that uses the library.
LAYERS = (
    ("repro.cli", ("cli.py", "__main__.py")),
    ("repro.service", ("cli.py", "service/")),
)


def _imported_names(tree):
    """``(name, line)`` of every module an import anywhere in ``tree``
    may load: ``import a.b`` names ``a.b``; ``from a.b import c`` names
    ``a.b`` and ``a.b.c``, since ``c`` may be a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module, node.lineno
            for alias in node.names:
                yield f"{node.module}.{alias.name}", node.lineno


def layering_violations(path, relative):
    """``line: package`` of each import in ``path`` (``relative`` to the
    package root, ``/``-separated) of a package :data:`LAYERS` keeps it
    from importing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for name, line in _imported_names(tree):
        for package, allowed in LAYERS:
            inside = name == package or name.startswith(package + ".")
            if inside and not relative.startswith(allowed):
                found.add(f"{line}: {package}")
    return sorted(found)


def test_library_modules_import_neither_the_cli_nor_the_daemon():
    violations = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        found = layering_violations(path, relative)
        if found:
            violations[relative] = found
    assert violations == {}


def test_the_layering_scan_sees_lazy_and_from_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from repro import cli\n"
        "def f():\n"
        "    from repro.service.campaigns import CampaignSpec\n"
        "    import repro.service\n"
        "    from repro.workloads import resolve_program\n"
    )
    assert layering_violations(module, "verify/m.py") == [
        "1: repro.cli", "3: repro.service", "4: repro.service",
    ]
    assert layering_violations(module, "service/m.py") == ["1: repro.cli"]
    assert layering_violations(module, "cli.py") == []
