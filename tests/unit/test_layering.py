"""Layering guard: which package of ``repro`` may import which.

Every import statement under ``src/repro`` is read with ``ast`` —
function-level imports included, since placing an import inside a function
hides a module cycle without removing it. The table lists, per importing
package, the packages it must not reach. The same pass keeps the service
stack assembled in one place: only ``repro.core.stack`` constructs a service.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

_BELOW_EVAL = ("sim", "net", "devices", "membership", "storage", "core", "apps", "rt")
#: importing package -> packages it must not import
FORBIDDEN = {
    **{package: ("eval", "rt") for package in _BELOW_EVAL},
    "rt": ("eval",),
    "eval": (),
}


def _imports(path: Path):
    """(line, modules named) for every absolute import statement in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # ``from repro import eval`` names a package through its alias.
            yield node.lineno, [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]


def test_no_package_imports_upward():
    offences = []
    packages = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if len(relative.parts) < 2:
            continue  # repro/__init__.py
        package = relative.parts[0]
        packages.add(package)
        for line, modules in _imports(path):
            reached = {
                module.split(".")[1] for module in modules
                if module.startswith("repro.")
            }
            for target in sorted(reached.intersection(FORBIDDEN[package])):
                offences.append(f"{relative}:{line} imports repro.{target}")
    assert packages == set(FORBIDDEN), "a new package needs a row in FORBIDDEN"
    assert not offences, "\n".join(offences)


#: Constructed by ``ServiceHost.boot_services`` and nowhere else in ``src/``.
SERVICES = {"HeartbeatService", "DeliveryService", "ExecutionService", "ReplicatedStore"}


def test_only_the_service_host_constructs_a_service():
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                if name in SERVICES:
                    callers.add((str(path.relative_to(SRC)), name))
    assert callers == {("core/stack.py", name) for name in SERVICES}
